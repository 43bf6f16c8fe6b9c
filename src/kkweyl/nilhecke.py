"""The nil-Hecke ring: x_i generators, x_w expansions, coefficients c_{w,v},
the brute-force signed-sequence oracle, and the Kostant-Kumar polynomial d_w.

Elements are finite maps from Weyl elements to rational functions.  Products
follow the rule  f d_v * g d_w = f v(g) d_{vw}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .rootsys import RootSystem, direct_sum
from . import weyl
from .weyl import WeylElt, Word, BruhatOrder
from .polyring import (
    BudgetExceeded, FactoredPoly, MPoly, RatFn, ratfn_zero, ratfn_const,
    ratfn_add, ratfn_neg, ratfn_mul, ratfn_mul_root_inverse, ratfn_scale,
    weyl_act_ratfn,
)

DEFAULT_TERM_BUDGET = 2_000_000


class NilHeckeError(ValueError):
    pass


@dataclass(frozen=True)
class NHElt:
    """Finite map WeylElt -> RatFn with zero coefficients pruned."""
    rs: RootSystem
    coeffs: tuple[tuple[WeylElt, RatFn], ...]  # sorted by (length, perm)

    @staticmethod
    def from_dict(rs: RootSystem, d: dict[WeylElt, RatFn]) -> "NHElt":
        items = [(w, f) for w, f in d.items() if not f.is_zero()]
        items.sort(key=lambda wf: (wf[0].length, wf[0].perm))
        return NHElt(rs, tuple(items))

    def as_dict(self) -> dict[WeylElt, RatFn]:
        return dict(self.coeffs)

    def support(self) -> set[WeylElt]:
        return {w for w, _ in self.coeffs}

    def coefficient(self, v: WeylElt) -> RatFn:
        for w, f in self.coeffs:
            if w == v:
                return f
        return ratfn_zero(self.rs)

    def term_count(self) -> int:
        return sum(f.num.term_count() for _, f in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def render(self) -> str:
        rows = [(w.length, weyl.reduced_word(w), f) for w, f in self.coeffs]
        rows.sort(key=lambda r: (r[0], r[1]))
        return "\n".join(
            f"{' '.join(str(i) for i in word) or 'id'} : {f.render()}"
            for _, word, f in rows
        )


@dataclass(init=False)
class KKResult:
    """d_w and its factored form for one element.

    The expanded d_w is not a dataclass field, so neither repr, == nor
    `dataclasses.replace` reads it: its first read expands d_factored within
    the term budget, and the result is kept.  The constructor still takes it,
    so replace(r, d_w=p) gives a result whose d_w is p."""
    w: WeylElt
    c_w: RatFn
    d_factored: FactoredPoly
    term_budget: int | None = None

    def __init__(self, w: WeylElt, c_w: RatFn, d_factored: FactoredPoly,
                 term_budget: int | None = None, d_w: MPoly | None = None):
        self.w, self.c_w, self.d_factored = w, c_w, d_factored
        self.term_budget = term_budget
        if d_w is not None:
            self.d_w = d_w

    @cached_property
    def d_w(self) -> MPoly:
        return self.d_factored.expand(self.term_budget)


class NilHeckeEngine:
    """Per-system computation context with memoization and budgets."""

    # longest word the brute-force oracle expands (2^len signed sequences)
    brute_cap = 12

    def __init__(self, rs: RootSystem, term_budget: int = DEFAULT_TERM_BUDGET):
        self.rs = rs
        self.term_budget = term_budget
        self.bruhat = BruhatOrder(rs)
        self.clear_cache()

    # -- basics -----------------------------------------------------------------

    def delta_id(self) -> NHElt:
        return NHElt.from_dict(self.rs, {weyl.identity(self.rs): ratfn_const(self.rs, 1)})

    def x_gen(self, i: int) -> NHElt:
        """x_i = (1/alpha_i) (d_{s_i} - d_id)."""
        rs = self.rs
        s = weyl.simple_reflection(rs, i)
        idx = rs.simple_index[i - 1]
        inv_alpha = RatFn(rs, MPoly.const(rs.rank, 1), (idx,))
        return NHElt.from_dict(rs, {s: inv_alpha, weyl.identity(rs): ratfn_neg(inv_alpha)})

    def nh_mul(self, a: NHElt, b: NHElt) -> NHElt:
        """Bilinear extension of  f d_v * g d_w = f v(g) d_{vw}."""
        if a.rs is not b.rs:
            raise NilHeckeError("mixed root systems")
        out: dict[WeylElt, RatFn] = {}
        for v, f in a.coeffs:
            for w, g in b.coeffs:
                vg = weyl_act_ratfn(v, g)
                term = ratfn_mul(f, vg)
                if term.is_zero():
                    continue
                vw = weyl.multiply(v, w)
                cur = out.get(vw)
                out[vw] = term if cur is None else ratfn_add(cur, term)
        return NHElt.from_dict(self.rs, out)

    def _extend_right(self, a: NHElt, i: int) -> NHElt:
        """a * x_i by recursion (b): c_{w s_i, u} = -(c_{w,u} + c_{w,u s_i}) /
        u(alpha_i).  The coefficients at u and u s_i differ only in sign, so
        each pair {u, u s_i} costs one add and one root inverse."""
        rs = self.rs
        coeffs = a.as_dict()
        out: dict[WeylElt, RatFn] = {}
        for v, f in a.coeffs:
            vs = weyl.multiply_simple(v, i)
            if vs not in out:
                total = ratfn_add(f, coeffs.get(vs, ratfn_zero(rs)))
                out[vs] = ratfn_mul_root_inverse(total, weyl.act_on_simple(v, i))
                out[v] = ratfn_neg(out[vs])
        elt = NHElt.from_dict(rs, out)
        if elt.term_count() > self.term_budget:
            raise BudgetExceeded(
                f"support terms {elt.term_count()} exceed budget {self.term_budget}")
        return elt

    # -- x_w --------------------------------------------------------------------

    def x_w(self, word: Word) -> NHElt:
        """x_w for a reduced word of w.  x_w depends on w alone, so the memo is
        keyed by element: each prefix element is looked up, or folded from the
        previous one with one x_i.  A non-reduced word raises NilHeckeError."""
        word = tuple(word)
        u = weyl.identity(self.rs)
        elt = self._x_memo[u]
        for i in word:
            nxt = weyl.multiply_simple(u, i)
            if nxt.length < u.length:
                raise NilHeckeError(f"word {word} is not reduced")
            u = nxt
            hit = self._x_memo.get(u)
            if hit is None:
                hit = self._x_memo[u] = self._extend_right(elt, i)
            elt = hit
        return elt

    def x_of(self, w: WeylElt) -> NHElt:
        """x_w for an element: a memo hit, or a fold along reduced_word(w)."""
        hit = self._x_memo.get(w)
        return hit if hit is not None else self.x_w(weyl.reduced_word(w))

    def c_wv(self, w: WeylElt, v: WeylElt) -> RatFn:
        return self.x_of(w).coefficient(v)

    def c_w(self, w: WeylElt) -> RatFn:
        return self.c_wv(w, weyl.identity(self.rs))

    def clear_cache(self):
        """Drop every memoised x_w but x_id."""
        self._x_memo: dict[WeylElt, NHElt] = {weyl.identity(self.rs): self.delta_id()}

    # -- brute-force oracle --------------------------------------------------------

    def bruteforce_expansion(self, word: Word) -> dict[WeylElt, RatFn]:
        """Signed sum over all 0/1 sequences along a reduced word, grouped by
        the product element.  Independent of the x_i fold."""
        word = tuple(word)
        if len(word) > self.brute_cap:
            raise NilHeckeError(
                f"word length {len(word)} exceeds brute-force cap {self.brute_cap}")
        rs = self.rs
        elt = weyl.from_word(rs, word)
        if elt.length != len(word):
            raise NilHeckeError(f"word {word} is not reduced")
        sums: dict[WeylElt, RatFn] = {}
        one = ratfn_const(rs, 1)

        def go(pos: int, prefix: WeylElt, acc: RatFn):
            if pos == len(word):
                cur = sums.get(prefix)
                sums[prefix] = acc if cur is None else ratfn_add(cur, acc)
                return
            i = word[pos]
            s = weyl.simple_reflection(rs, i)
            # epsilon = 0: prefix unchanged; denominator factor prefix(alpha_i)
            go(pos + 1, prefix, ratfn_mul_root_inverse(acc, weyl.act_on_simple(prefix, i)))
            # epsilon = 1: prefix gains s_i
            nxt = weyl.multiply(prefix, s)
            go(pos + 1, nxt, ratfn_mul_root_inverse(acc, weyl.act_on_simple(nxt, i)))

        go(0, weyl.identity(rs), one)
        sign = -1 if len(word) % 2 else 1
        return {v: ratfn_scale(f, sign) for v, f in sums.items() if not f.is_zero()}

    # -- Kostant-Kumar polynomial -----------------------------------------------------

    def kk_poly(self, w: WeylElt, expand: bool = True) -> KKResult:
        """d_w = (-1)^{l(w)} c_w * product of all positive roots.

        The denominator of c_w must cancel entirely into that product; any
        residue signals an arithmetic bug.
        """
        c = self.c_w(w)
        den = set(c.den)
        if len(den) != len(c.den):
            raise NilHeckeError(
                f"residual denominator with multiplicity: {c.den}; arithmetic bug")
        remaining = [k for k in range(len(self.rs.positive_roots)) if k not in den]
        sign = -1 if w.length % 2 else 1
        factored = FactoredPoly(self.rs, c.num.scale(sign), tuple(remaining))
        result = KKResult(w, c, factored, self.term_budget)
        if expand:
            result.d_w  # expands within the budget, once
        return result

    # -- identity checks ---------------------------------------------------------------

    def recursion_check_b(self, w: WeylElt, v: WeylElt, i: int) -> bool:
        """c_{w,v} = -v(alpha_i)^{-1} (c_{w s_i, v} + c_{w s_i, v s_i}),
        valid when l(w s_i) = l(w) - 1."""
        ws = weyl.multiply_simple(w, i)
        if ws.length != w.length - 1:
            raise NilHeckeError("recursion (b) requires l(w s_i) = l(w) - 1")
        lhs = self.c_wv(w, v)
        inner = ratfn_add(self.c_wv(ws, v), self.c_wv(ws, weyl.multiply_simple(v, i)))
        rhs = ratfn_neg(ratfn_mul_root_inverse(inner, weyl.act_on_simple(v, i)))
        return lhs == rhs

    def recursion_check_c(self, w: WeylElt, v: WeylElt, i: int) -> bool:
        """c_{w,v} = alpha_i^{-1} (s_i(c_{s_i w, s_i v}) - c_{s_i w, v}),
        valid when l(s_i w) = l(w) - 1."""
        rs = self.rs
        s = weyl.simple_reflection(rs, i)
        sw = weyl.multiply(s, w)
        if sw.length != w.length - 1:
            raise NilHeckeError("recursion (c) requires l(s_i w) = l(w) - 1")
        lhs = self.c_wv(w, v)
        acted = weyl_act_ratfn(s, self.c_wv(sw, weyl.multiply(s, v)))
        inner = ratfn_add(acted, ratfn_neg(self.c_wv(sw, v)))
        rhs = ratfn_mul_root_inverse(inner, weyl.act_on_simple(weyl.identity(rs), i))
        return lhs == rhs

    def dyer_check(self, w: WeylElt, v: WeylElt) -> bool:
        """The denominator of c_{w,v}, in lowest terms, uses each root at most
        once and only roots alpha with s_alpha v <= w."""
        c = self.c_wv(w, v)
        if c.is_zero():
            return True
        if len(set(c.den)) != len(c.den):
            return False
        rs = self.rs
        return all(
            self.bruhat.leq(
                weyl.multiply(weyl.reflection(rs, rs.positive_roots[k]), v), w)
            for k in c.den
        )


def product_formula_check(rs_sum: RootSystem, w1: WeylElt, w2: WeylElt) -> bool:
    """d_{w1 w2} over an orthogonal direct sum equals the product of the factor
    polynomials under the block variable embedding."""
    rs1, rs2 = w1.rs, w2.rs
    if rs_sum.rank != rs1.rank + rs2.rank:
        raise NilHeckeError("rank mismatch with the direct sum")
    word1 = weyl.reduced_word(w1)
    word2 = tuple(i + rs1.rank for i in weyl.reduced_word(w2))
    w = weyl.from_word(rs_sum, word1 + word2)
    d = NilHeckeEngine(rs_sum).kk_poly(w).d_w
    d1 = NilHeckeEngine(rs1).kk_poly(w1).d_w
    d2 = NilHeckeEngine(rs2).kk_poly(w2).d_w
    lifted1 = MPoly(rs_sum.rank, {
        k + (0,) * rs2.rank: c for k, c in d1.terms.items()
    })
    lifted2 = MPoly(rs_sum.rank, {
        (0,) * rs1.rank + k: c for k, c in d2.terms.items()
    })
    return d == lifted1 * lifted2
