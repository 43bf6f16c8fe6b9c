"""Sparse multivariate polynomials with integer coefficients: plain, factored
as a unit times positive roots, or over a multiset of positive roots.

Variables a_1..a_n are the simple roots of the owning system.  An MPoly maps
packed monomials to coefficients: one int holds the exponent of a_{i+1} in bits
16i to 16i + 15, each below LIMIT = 2^15 (PolyError past it; E8's N = 120
bounds every degree the library forms), so a product of monomials is one int
addition.  MPoly(n, terms) takes exponent tuples; MPoly.terms builds them anew.
Only this module reads or forms a packed key; another module places a
polynomial among more variables through MPoly.embedded.
Coefficients are Python ints; MPoly and MPoly.const reject any other type.

Every RatFn the operations return is in lowest terms (no denominator root
divides the numerator), given inputs in lowest terms.  Positive roots are
pairwise non-associate primes of Q[a], so a root can cancel only at the roots
shared by the denominators of a sum, at the one-sided roots of a product and
at the new root of ratfn_mul_root_inverse; the Weyl action cancels none.

Most of those candidate roots do not divide, and one evaluation proves it
before any trial division.  Each positive root beta has a fixed point a0 with
beta(a0) = 0 mod the prime P.  A root's coefficients have gcd 1 (it is a
Weyl image of a simple root), so by Gauss's lemma an integral numerator
num = beta * q has an integral q, and then num(a0) = beta(a0) q(a0) = 0
mod P.  A nonzero num(a0) mod P therefore proves that beta does not divide
num.  A zero value goes to the exact divide_by_linear, so every result is the
one exact trial division gives.

The numerators of a fold share few monomials, so each root memoises the
value mod P of every packed monomial it has met at its point a0; an
evaluation is then one sum of coefficient times memoised value.  A miss is
filled from its parent, the monomial without the whole power of its lowest
variable, times one pow of that coordinate; the parent is memoised on the
way, so a chain of misses is at most one per variable deep.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import struct
from dataclasses import dataclass, field
from typing import Sequence

from .rootsys import Root, RootSystem
from .weyl import WeylElt

# The prime of the divisibility pre-test in _cancel.
P = (1 << 61) - 1

# The bound on every exponent of a packed monomial.
LIMIT = 1 << 15


class PolyError(ValueError):
    pass


class BudgetExceeded(PolyError):
    """Support-term budget blown; refuse rather than thrash."""


@functools.cache
def _layout(n: int) -> tuple[struct.Struct, int]:
    """The bytes of a packed monomial in n variables; its fields' top bits."""
    return struct.Struct(f"<{n}H"), sum(LIMIT << 16 * i for i in range(n))


def _pack(n: int, e: Sequence[int]) -> int:
    fmt, high = _layout(n)
    try:
        k = int.from_bytes(fmt.pack(*e), "little")
    except struct.error:  # wrong length, or an exponent outside [0, 2^16)
        k = high
    if k & high:
        raise PolyError(f"{e!r} is no monomial in {n} variables below {LIMIT}")
    return k


def _unpack(n: int, k: int) -> tuple[int, ...]:
    fmt = _layout(n)[0]
    return fmt.unpack(k.to_bytes(fmt.size, "little"))


def _hull(keys) -> int:
    """The OR of packed monomials: a field's top bit is set in it exactly
    when some exponent there reaches LIMIT."""
    return functools.reduce(operator.or_, keys, 0)


def _check_ints(coeffs) -> None:
    for c in coeffs:
        if type(c) is not int:
            raise PolyError(f"coefficient {c!r} is not an int")


class MPoly:
    """Sparse polynomial: map from packed monomials to nonzero coefficients."""

    __slots__ = ("n", "packed")

    def __init__(self, n: int, terms: dict[tuple[int, ...], int] | None = None):
        """terms maps exponent tuples of length n to int coefficients; each
        key and coefficient is checked, and zero coefficients are dropped."""
        self.n = n
        terms = terms or {}
        _check_ints(terms.values())
        packed = {_pack(n, e): c for e, c in terms.items()}
        self.packed = {k: c for k, c in packed.items() if c}

    @classmethod
    def from_packed(cls, n: int, packed: dict[int, int]) -> "MPoly":
        """The polynomial with these packed terms, taken as they are."""
        p = cls.__new__(cls)
        p.n, p.packed = n, packed
        return p

    def embedded(self, n: int, offset: int) -> "MPoly":
        """The same polynomial in n variables, with a_i renamed a_{offset+i}."""
        if not 0 <= offset <= n - self.n:
            raise PolyError(f"{self.n} variables at offset {offset} do not fit in {n}")
        return MPoly.from_packed(n, {k << 16 * offset: c for k, c in self.packed.items()})

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The terms keyed by exponent tuple, in a new dict on each read."""
        return {_unpack(self.n, k): c for k, c in self.packed.items()}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MPoly":
        return cls.from_packed(n, {})

    @classmethod
    def const(cls, n: int, c: int) -> "MPoly":
        _check_ints((c,))
        return cls.from_packed(n, {0: c} if c else {})

    @classmethod
    def var(cls, n: int, i: int) -> "MPoly":
        """The variable a_i, 1-based."""
        return cls(n, {tuple(int(j == i - 1) for j in range(n)): 1})

    # -- ring operations -------------------------------------------------------

    def __bool__(self):
        return bool(self.packed)

    def is_zero(self) -> bool:
        return not self.packed

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.n == other.n and self.packed == other.packed

    def __hash__(self):
        return hash((self.n, frozenset(self.packed.items())))

    def __add__(self, other: "MPoly") -> "MPoly":
        if self.n != other.n:
            raise PolyError("mixed variable counts")
        out = dict(self.packed)
        for k, c in other.packed.items():
            v = out.get(k)
            if v is None:
                out[k] = c
            else:
                v = v + c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return MPoly.from_packed(self.n, out)

    def __neg__(self) -> "MPoly":
        return MPoly.from_packed(self.n, {k: -c for k, c in self.packed.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        if self.n != other.n:
            raise PolyError("mixed variable counts")
        a = self.packed
        out = {}
        for kb, cb in other.packed.items():
            for ka, ca in a.items():
                k = ka + kb
                p = ca * cb
                v = out.get(k)
                if v is None:
                    out[k] = p
                else:
                    v = v + p
                    if v:
                        out[k] = v
                    else:
                        del out[k]
        # A sum of two exponents below LIMIT never carries into the next
        # field, so the product's top bits show any exponent that reaches it.
        if _hull(out) & _layout(self.n)[1]:
            raise PolyError(f"a product exponent reaches {LIMIT}")
        return MPoly.from_packed(self.n, out)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(_unpack(self.n, k)) for k in self.packed), default=-1)

    def term_count(self) -> int:
        return len(self.packed)

    def coefficient(self, exponents: tuple[int, ...]) -> int:
        try:
            return self.packed.get(_pack(self.n, exponents), 0)
        except PolyError:  # no term of a polynomial has this monomial
            return 0

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for k in sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = terms[k]
            mono = "*".join(
                f"a{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(k) if e
            )
            cf = str(c)
            if mono:
                if cf == "1":
                    parts.append(mono)
                elif cf == "-1":
                    parts.append("-" + mono)
                else:
                    parts.append(f"{cf}*{mono}")
            else:
                parts.append(cf)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"MPoly({self.render()})"


def root_linear_form(rs: RootSystem, beta: Root) -> MPoly:
    """The root as a degree-1 polynomial in the simple-root variables."""
    return MPoly.from_packed(rs.rank, {1 << 16 * i: b for i, b in enumerate(beta.b) if b})


class _MonomialValues(dict):
    """Packed monomial -> its value mod P at the point a0, each computed on
    first read from its parent (module docstring)."""

    __slots__ = ("point",)

    def __init__(self, point: list[int]):
        super().__init__()
        self.point = point

    def __missing__(self, k: int) -> int:
        if k:
            j = ((k & -k).bit_length() - 1) >> 4
            e = k >> 16 * j & 0xFFFF
            v = self[k - (e << 16 * j)] * pow(self.point[j], e, P) % P
        else:
            v = 1
        self[k] = v
        return v


def _root_data(rs: RootSystem, k: int) -> tuple[MPoly, _MonomialValues]:
    """The linear form of positive root k and the monomial values at its
    point a0, made once per system in rs.root_memo.  a0 draws all
    coordinates but one from a generator seeded by k and solves
    beta(a0) = 0 mod P for that one through the inverse of its coefficient
    mod P, as an E8 root may have no coefficient +-1."""
    data = rs.root_memo.get(k)
    if data is None:
        b = rs.positive_roots[k].b
        rng = random.Random(k)
        a0 = [rng.randrange(1, P) for _ in b]
        j = next(i for i, c in enumerate(b) if c)
        a0[j] = 0
        a0[j] = -sum(c * x for c, x in zip(b, a0)) * pow(b[j], -1, P) % P
        data = rs.root_memo[k] = (root_linear_form(rs, rs.positive_roots[k]),
                                  _MonomialValues(a0))
    return data


def _times_forms(rs: RootSystem, poly: MPoly, factors: Sequence[int],
                 budget: int | None = None) -> MPoly:
    """poly times the memoised linear forms of the positive roots with the
    given indices, one root at a time; BudgetExceeded as soon as a partial
    product has more than `budget` terms."""
    for k in factors:
        poly = poly * _root_data(rs, k)[0]
        _check_budget(len(poly.packed), budget)
    return poly


def _nonzero_mod_p(p: MPoly, values: _MonomialValues) -> bool:
    """Whether p is nonzero mod P at the point whose monomial values are
    given."""
    total = sum(map(operator.mul, p.packed.values(), map(values.__getitem__, p.packed)))
    return total % P != 0


def divide_by_linear(p: MPoly, L: MPoly) -> tuple[MPoly, MPoly]:
    """Division with remainder over Z by a linear form with zero constant
    term, eliminating the leading variable of L (the lowest-index variable
    with nonzero coefficient c0) top-down.

    Returns (q, r) with p = q*L + r; r is zero exactly when L divides p in
    Z[a], and then q = p / L.  Where c0 is +-1, no monomial of r involves
    the leading variable.  Otherwise, at the first step whose coefficient is
    no multiple of c0, it returns (0, p): that coefficient over c0 is one of
    the quotient over Q, which is then not integral, so L does not divide p
    in Z[a], nor, for a primitive L such as a root form, in Q[a] (Gauss's
    lemma).
    """
    if L.is_zero():
        raise PolyError("division by zero")
    # a variable's monomial is a power of two at the bottom of its field
    if any(k & k - 1 or (k.bit_length() - 1) % 16 for k in L.packed):
        raise PolyError("divisor must be linear with zero constant term")
    uj = min(L.packed)  # the monomial of the leading variable a_{j+1}
    shift, c0 = uj.bit_length() - 1, L.packed[uj]
    rest = [(ui, c) for ui, c in L.packed.items() if ui != uj]

    # bucket terms by their degree in the leading variable; eliminate top-down
    buckets: dict[int, dict[int, int]] = {}
    for k, c in p.packed.items():
        buckets.setdefault(k >> shift & 0xFFFF, {})[k] = c
    q: dict[int, int] = {}
    for d in range(max(buckets, default=0), 0, -1):
        layer = buckets.get(d)
        if not layer:
            continue
        below = buckets.setdefault(d - 1, {})
        for k, c in layer.items():
            t, inexact = divmod(c, c0)
            if inexact:
                return MPoly.zero(p.n), p
            kq = k - uj
            q[kq] = t
            for ui, ci in rest:
                k2 = kq + ui
                v = below.get(k2)
                add = -t * ci
                if v is None:
                    below[k2] = add
                else:
                    v = v + add
                    if v:
                        below[k2] = v
                    else:
                        del below[k2]
    r = buckets.get(0, {})
    # A step trades a_{j+1} for another variable, so no exponent passes the sum
    # of two of p's: a field may reach its top bit but never carries.
    if (_hull(q) | _hull(r)) & _layout(p.n)[1]:
        raise PolyError(f"a quotient or remainder exponent reaches {LIMIT}")
    return MPoly.from_packed(p.n, q), MPoly.from_packed(p.n, r)


# -- Weyl action ------------------------------------------------------------------


def _signed_image(w: WeylElt, roots: Sequence[int]) -> tuple[int, list[int]]:
    """w maps each positive root to a positive root up to sign: the product of
    those signs and the image indices, for the positive roots with the given
    indices."""
    images = [w.perm[k] for k in roots]
    sign = -1 if sum(1 for x in images if x < 0) % 2 else 1
    return sign, [abs(x) - 1 for x in images]


def weyl_act_poly(w: WeylElt, p: MPoly) -> MPoly:
    """Substitute a_i -> w(alpha_i); a ring automorphism.  Each monomial is a
    product of simple roots, which w maps to a signed product of positive
    roots."""
    if p.n != w.rs.rank:
        raise PolyError("polynomial does not match the root system rank")
    simple = w.rs.simple_index
    out = MPoly.zero(p.n)
    for k, c in p.packed.items():
        sign, images = _signed_image(
            w, [simple[i] for i, e in enumerate(_unpack(p.n, k)) for _ in range(e)])
        out = out + _times_forms(w.rs, MPoly.const(p.n, sign * c), images)
    return out


# -- rational functions --------------------------------------------------------------


@dataclass(frozen=True)
class RatFn:
    """num / product of positive roots; den is a sorted tuple of root indices.
    In lowest terms (num, den) is canonical, so == and hash compare it alone."""
    rs: RootSystem = field(compare=False, repr=False)
    num: MPoly
    den: tuple[int, ...]

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def render(self) -> str:
        if not self.den:
            return self.num.render()
        den = "*".join(f"({_root_data(self.rs, k)[0].render()})" for k in self.den)
        return f"({self.num.render()}) / {den}"

    def __repr__(self):
        return f"RatFn({self.render()})"


def ratfn_zero(rs: RootSystem) -> RatFn:
    return RatFn(rs, MPoly.zero(rs.rank), ())


def ratfn_const(rs: RootSystem, c) -> RatFn:
    return RatFn(rs, MPoly.const(rs.rank, c), ())


def _cancel(rs: RootSystem, num: MPoly, den, candidates) -> RatFn:
    """num / den with each candidate root cancelled as often as it divides; as
    roots are pairwise non-associate primes, one pass over them suffices.  A
    trial division is made only where num vanishes at the root's point mod P
    (module docstring)."""
    if num.is_zero():
        return ratfn_zero(rs)
    den = list(den)
    for k in candidates:
        form, values = _root_data(rs, k)
        while k in den and not _nonzero_mod_p(num, values):
            q, r = divide_by_linear(num, form)
            if not r.is_zero():
                break
            num = q
            den.remove(k)
    return RatFn(rs, num, tuple(sorted(den)))


def ratfn_normalize(f: RatFn) -> RatFn:
    """Cancel every denominator root that divides the numerator."""
    return _cancel(f.rs, f.num, f.den, set(f.den))


def _merge(a: Sequence[int], b: Sequence[int]):
    """For sorted multisets a and b, in one merge: a - b, b - a, the common
    part (a list, with repeats) and the union, a sorted tuple."""
    only_a, only_b, both, union = [], [], [], []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x < y:
            only_a.append(x)
            union.append(x)
            i += 1
        elif y < x:
            only_b.append(y)
            union.append(y)
            j += 1
        else:
            both.append(x)
            union.append(x)
            i += 1
            j += 1
    only_a += a[i:]
    only_b += b[j:]
    union += a[i:]
    union += b[j:]
    return only_a, only_b, both, tuple(union)


def ratfn_add(f: RatFn, g: RatFn) -> RatFn:
    """f + g in lowest terms, for f and g in lowest terms.  A root of one
    denominator alone divides exactly one of the two summands of the common
    numerator, so only roots shared by both denominators can cancel."""
    if f.rs is not g.rs:
        raise PolyError("mixed root systems")
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    # g.den - f.den are the factors f is missing, and the reverse for g
    extra_g, extra_f, shared, lcm = _merge(f.den, g.den)
    num = _times_forms(f.rs, f.num, extra_f) + _times_forms(f.rs, g.num, extra_g)
    return _cancel(f.rs, num, lcm, shared)


def ratfn_neg(f: RatFn) -> RatFn:
    return RatFn(f.rs, -f.num, f.den)


def ratfn_mul(f: RatFn, g: RatFn) -> RatFn:
    """f * g in lowest terms, for f and g in lowest terms.  A prime root of
    both denominators divides neither numerator, hence not their product, so
    only the roots of one denominator alone can cancel."""
    if f.rs is not g.rs:
        raise PolyError("mixed root systems")
    return _cancel(f.rs, f.num * g.num, f.den + g.den, set(f.den) ^ set(g.den))


def ratfn_mul_root_inverse(f: RatFn, signed_index: int) -> RatFn:
    """Multiply by 1/w(alpha): signed 1-based positive-root index; negative
    signs are absorbed into the numerator."""
    idx = abs(signed_index) - 1
    num = f.num if signed_index > 0 else -f.num
    return _cancel(f.rs, num, f.den + (idx,), (idx,))


def weyl_act_ratfn(w: WeylElt, f: RatFn) -> RatFn:
    """Weyl action; denominator roots map to roots up to sign, signs go to num.
    w is a ring automorphism, so lowest terms are kept with no cancelling."""
    if f.rs is not w.rs:
        raise PolyError("mixed root systems")
    sign, den = _signed_image(w, f.den)
    num = weyl_act_poly(w, f.num)
    return RatFn(f.rs, num if sign > 0 else -num, tuple(sorted(den)))


# -- factored polynomials ------------------------------------------------------------


def _times_roots(rs: RootSystem, poly: MPoly, factors: Sequence[int],
                 budget: int | None = None) -> MPoly:
    """poly times the positive roots with the given indices, expanded.

    The product runs on rows.  Two variables a_p and a_q are set aside; a
    row key is a packed monomial with e_p + e_q in a_q's field and 0 in
    a_p's, and the row value is one int whose K-bit slot e_p holds the
    coefficient.  Multiplying by a_p adds a_q's monomial to the key and
    shifts the value K bits; multiplying by another variable adds its
    monomial to the key: one dict update per row rather than per term.  K
    fits the L1 norm of the product, which bounds every coefficient of every
    partial product.  Degrees in each variable add under products (Q[a] is a
    domain), so poly's and the roots' decide up front whether an exponent
    would reach LIMIT; below it e_p + e_q fits its field.  A rank below 2
    falls back to MPoly products by root forms.
    """
    roots = [rs.positive_roots[k] for k in factors]
    n = rs.rank
    if n < 2:
        return _times_forms(rs, poly, factors, budget)
    uses = [sum(1 for beta in roots if beta.b[i]) for i in range(n)]
    tops = map(max, zip(*(_unpack(n, k) for k in poly.packed)))
    if any(t + u >= LIMIT for t, u in zip(tops, uses)):
        raise PolyError(f"a product exponent reaches {LIMIT}")
    by_use = sorted(range(n), key=uses.__getitem__)
    p, q = by_use[-1], by_use[-2]
    bound = (sum(abs(c) for c in poly.packed.values())
             * math.prod(sum(beta.b) for beta in roots))
    K = bound.bit_length() + 1
    step = (1 << 16 * p) - (1 << 16 * q)  # moves one degree from a_q to a_p
    rows: dict[int, int] = {}
    for k, c in poly.packed.items():
        slot = k >> 16 * p & 0xFFFF
        key = k - slot * step
        rows[key] = rows.get(key, 0) + (c << K * slot)
    for beta in roots:
        out: dict[int, int] = {}
        get = out.get
        for i, c in enumerate(beta.b):
            if not c:
                continue
            shift = K if i == p else 0
            s = 1 << 16 * (q if i == p else i)
            for key, v in rows.items():
                key += s
                out[key] = get(key, 0) + (c * v << shift)
        if not all(out.values()):
            out = {key: v for key, v in out.items() if v}
        rows = out
        # every nonzero row holds at least one term
        _check_budget(len(rows), budget)
    # read the slots as balanced digits, each in (-2^(K-1), 2^(K-1)); slot
    # e_p holds the monomial key + e_p * step
    full, half, mask = 1 << K, 1 << K - 1, (1 << K) - 1
    terms = {}
    for key, v in rows.items():
        while v:
            c = v & mask
            if c >= half:
                c -= full
            if c:
                terms[key] = c
            v = (v - c) >> K
            key += step
        _check_budget(len(terms), budget)
    return MPoly.from_packed(n, terms)


def _check_budget(count: int, budget: int | None) -> None:
    if budget is not None and count > budget:
        raise BudgetExceeded(f"expansion terms {count} exceed budget {budget}")


@dataclass(frozen=True)
class FactoredPoly:
    """unit * product of positive roots, the positive roots given by index.

    Positive roots are pairwise non-proportional linear forms, hence pairwise
    non-associate irreducibles of the UFD Q[a_1..a_n]; divisibility and
    equality are decided from the factors without expanding the product.
    """
    rs: RootSystem
    unit: MPoly
    root_factors: tuple[int, ...]

    def expand(self, budget: int | None = None) -> MPoly:
        """The product in full; BudgetExceeded once it has more than `budget`
        terms, or as soon as a partial product has more than `budget` rows."""
        return _times_roots(self.rs, self.unit, self.root_factors, budget)

    def divisible_by(self, k: int) -> bool:
        """Whether positive root k divides the product: it is one of the root
        factors or it divides the unit, which _cancel decides with its mod-P
        pre-test before any trial division."""
        return k in self.root_factors or not _cancel(self.rs, self.unit, (k,), (k,)).den

    def equals(self, other: "FactoredPoly", budget: int | None = None) -> bool:
        """Exact equality: shared root factors cancel, and only the two units
        times their unshared factors are expanded, within `budget`, and compared."""
        if self.rs is not other.rs:
            return False
        mine, theirs = _merge(sorted(self.root_factors), sorted(other.root_factors))[:2]
        return (_times_roots(self.rs, self.unit, mine, budget)
                == _times_roots(self.rs, other.unit, theirs, budget))
