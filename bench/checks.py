"""Output checks for the benchmark workloads.

Each check recomputes what it needs with code of its own: signed permutations
of the positive roots built from the Cartan matrix alone, and polynomial
evaluation at seeded random points.  It never calls the engine code whose
output it judges.  Every checker returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import getitem

# A Mersenne prime; evaluation modulo it keeps the 234,713-term d_w cheap to
# evaluate while staying exact: a nonzero polynomial of degree <= 36 vanishes
# at a uniform random point of F_p^n with probability at most 36/p.
P61 = (1 << 61) - 1

MAX_PROBLEMS = 10

VERIFY_NAMES = (
    "product_law_2a", "recursions_2b_2c", "support_law", "oracle_equivalence",
    "dyer_shape", "support_containment_bruhat", "direct_sum_product_formula",
)


class Group:
    """The Weyl group as signed permutations of the positive roots.

    Only the Cartan matrix and the list of positive roots (as simple-root
    coefficient vectors, in the engine's indexing) are taken from the system,
    so permutations compare equal to the engine's `WeylElt.perm`.
    """

    def __init__(self, rs):
        self.cartan = rs.cartan
        self.rank = len(rs.cartan)
        self.roots = [r.b for r in rs.positive_roots]
        self.index = {b: k for k, b in enumerate(self.roots)}
        self.ident = tuple(range(1, len(self.roots) + 1))
        self._reflections = {}
        units = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        self.simple_index = [self.index[u] for u in units]
        self.simple = [self.reflection(u) for u in units]

    def pairing(self, g, b) -> int:
        return sum(gi * self.cartan[i][j] * bj
                   for i, gi in enumerate(g) if gi
                   for j, bj in enumerate(b) if bj)

    def signed(self, v) -> int:
        k = self.index.get(v)
        if k is not None:
            return k + 1
        return -(self.index[tuple(-x for x in v)] + 1)

    def reflection(self, beta) -> tuple[int, ...]:
        if beta in self._reflections:
            return self._reflections[beta]
        out = []
        for k, g in enumerate(self.roots):
            c = self.pairing(g, beta)
            out.append(self.signed(tuple(x - c * y for x, y in zip(g, beta)))
                       if c else k + 1)
        self._reflections[beta] = tuple(out)
        return self._reflections[beta]

    @staticmethod
    def mul(p, q) -> tuple[int, ...]:
        return tuple(p[x - 1] if x > 0 else -p[-x - 1] for x in q)

    @staticmethod
    def length(p) -> int:
        return sum(1 for x in p if x < 0)

    def word(self, word) -> tuple[int, ...]:
        out = self.ident
        for i in word:
            out = self.mul(out, self.simple[i - 1])
        return out

    def reduced_word(self, perm):
        """A reduced word of perm, by peeling right descents w(alpha_i) < 0."""
        word = []
        cur = perm
        while cur != self.ident:
            i = next((i for i in range(self.rank) if cur[self.simple_index[i]] < 0), None)
            if i is None:
                return None
            word.append(i + 1)
            cur = self.mul(cur, self.simple[i])
        return tuple(reversed(word))

    def subword_products(self, word) -> set:
        out = {self.ident}
        for i in word:
            s = self.simple[i - 1]
            out |= {self.mul(p, s) for p in out}
        return out

    def elements(self, max_len: int) -> dict:
        """Every element of length <= max_len, mapped to one reduced word."""
        found = {self.ident: ()}
        layer = {self.ident: ()}
        for _ in range(max_len):
            nxt = {}
            for p, word in layer.items():
                for i in range(1, self.rank + 1):
                    q = self.mul(p, self.simple[i - 1])
                    if q not in found and self.length(q) == len(word) + 1:
                        nxt[q] = word + (i,)
            found.update(nxt)
            layer = nxt
        return found

    def support(self, perm, order) -> list:
        """Greedy orthogonal support: peel off the lex-largest negated root."""
        key = lambda k: tuple(self.roots[k][i - 1] for i in order.perm)
        out = []
        cur = perm
        while cur != self.ident:
            negated = [k for k, x in enumerate(cur) if x == -(k + 1)]
            if not negated or len(out) > self.rank:
                return None
            k = max(negated, key=key)
            out.append(self.roots[k])
            cur = self.mul(self.reflection(self.roots[k]), cur)
        return out


# -- evaluation at points --------------------------------------------------------

def poly_at(terms: dict, pt, mod=None):
    """Value of a polynomial {exponents: coeff} at pt, exact or modulo `mod`."""
    top = max((max(k) for k in terms), default=0)
    pows = []
    for x in pt:
        row = [1]
        for _ in range(top):
            row.append(row[-1] * x if mod is None else row[-1] * x % mod)
        pows.append(row)
    total = sum(c * math.prod(map(getitem, pows, k)) for k, c in terms.items())
    if mod is None:
        return total
    total = Fraction(total)
    return total.numerator * pow(total.denominator, -1, mod) % mod


def root_values(roots, pt, mod=None) -> list:
    vals = [sum(b * x for b, x in zip(r, pt)) for r in roots]
    return vals if mod is None else [v % mod for v in vals]


def ratfn_at(f, pt, rvals, mod=None):
    den = math.prod(rvals[k] for k in f.den)
    num = poly_at(f.num.terms, pt, mod)
    return Fraction(num, den) if mod is None else num * pow(den, -1, mod) % mod


def factored_at(fp, pt, rvals, mod=None):
    val = poly_at(fp.unit.terms, pt, mod) * math.prod(rvals[k] for k in fp.root_factors)
    return val if mod is None else val % mod


def homogeneous_degree(terms: dict):
    """The common total degree of every term, or None if degrees differ."""
    degs = {sum(k) for k in terms}
    return degs.pop() if len(degs) == 1 else None


def _add(problems, msg):
    if len(problems) < MAX_PROBLEMS:
        problems.append(msg)


# -- fold-e6 -------------------------------------------------------------------------

def check_fold(rs, word, xs, kks, rng, npoints: int = 2) -> list[str]:
    """x_w and factored d_w along prefixes word[:1], word[:2], ...

    For w = word[:p]: every c_{w,v} is homogeneous of degree -p; at random
    rational points sum_v c_{w,v} = 0 and, for p >= 2, sum_v c_{w,v} v(alpha_1) = 0;
    d_w = (-1)^p c_w prod_{alpha>0} alpha and d_w has degree N - p.
    """
    g = Group(rs)
    n_pos = len(g.roots)
    a1 = g.index[tuple(int(j == 0) for j in range(g.rank))]
    problems: list[str] = []
    # positive coordinates keep every positive root nonzero at the point
    pts = []
    for _ in range(npoints):
        pt = tuple(rng.randint(1, 10**6) for _ in range(g.rank))
        rv = root_values(g.roots, pt)
        pts.append((pt, rv, math.prod(rv)))
    if len(xs) != len(kks):
        _add(problems, f"fold: {len(xs)} expansions but {len(kks)} d_w results")
    for p, (x, kk) in enumerate(zip(xs, kks), 1):
        perm = g.word(word[:p])
        if g.length(perm) != p:
            _add(problems, f"fold: input word[:{p}] is not reduced")
        if kk.w.perm != perm:
            _add(problems, f"fold p={p}: d_w computed for another element")
        for v, f in x.coeffs:
            d = homogeneous_degree(f.num.terms)
            if d is None or d - len(f.den) != -p:
                _add(problems, f"fold p={p}: c_(w,v) not homogeneous of degree {-p}")
                break
        unit_deg = homogeneous_degree(kk.d_factored.unit.terms)
        if unit_deg is None or unit_deg + len(kk.d_factored.root_factors) != n_pos - p:
            _add(problems, f"fold p={p}: d_w not homogeneous of degree {n_pos - p}")
        for pt, rv, all_roots in pts:
            vals = [(v.perm, ratfn_at(f, pt, rv)) for v, f in x.coeffs]
            if sum(c for _, c in vals) != 0:
                _add(problems, f"fold p={p}: sum_v c_(w,v) != 0 at {pt}")
            if p >= 2:
                act = sum(c * (rv[v[a1] - 1] if v[a1] > 0 else -rv[-v[a1] - 1])
                          for v, c in vals)
                if act != 0:
                    _add(problems, f"fold p={p}: x_w(alpha_1) != 0 at {pt}")
            c_w = dict(vals).get(g.ident, 0)
            if factored_at(kk.d_factored, pt, rv) != (-1) ** p * c_w * all_roots:
                _add(problems, f"fold p={p}: d_w != (-1)^l c_w prod(alpha) at {pt}")
    return problems


# -- certify-e6 / scan-e7 clauses --------------------------------------------------

class PairOracle:
    """The good-pair clauses recomputed with the subword Bruhat characterisation."""

    def __init__(self, rs, order):
        self.g = Group(rs)
        self.order = order
        c = order.distinguished - 1
        self.c1 = {b for b in self.g.roots if b[c]}
        self._beta = {}
        self._below = {}

    def beta(self, perm):
        """The one first-column root of the support of `perm`, else None."""
        if perm not in self._beta:
            meet = [b for b in self.g.support(perm, self.order) or () if b in self.c1]
            self._beta[perm] = meet[0] if len(meet) == 1 else None
        return self._beta[perm]

    def below(self, perm) -> set:
        """The lower Bruhat interval of `perm`, as subword products."""
        if perm not in self._below:
            self._below[perm] = self.g.subword_products(self.g.reduced_word(perm))
        return self._below[perm]

    def clauses(self, p1, p2):
        """(beta1, beta2, side1, side2), or None when the pair is not good."""
        g = self.g
        b1, b2 = self.beta(p1), self.beta(p2)
        if b1 is None or b2 is None or b1 == b2:
            return None
        side1 = g.reflection(b1) not in self.below(p2)
        side2 = g.reflection(b2) not in self.below(p1)
        if not (side1 or side2):
            return None
        return b1, b2, side1, side2

    def involution_problem(self, word):
        g = self.g
        p = g.word(word)
        if g.length(p) != len(word):
            return p, f"word {list(word)} is not reduced"
        if g.mul(p, p) != g.ident:
            return p, f"w = {list(word)} has w*w != id"
        return p, None


def check_scan(rs, order, max_len: int, lines: list[str]) -> list[str]:
    """Every emitted JSON certificate is re-derived, and the emitted set must
    equal the set of good pairs found by an exhaustive independent search, so
    every rejected pair is confirmed to fail a clause."""
    oracle = PairOracle(rs, order)
    g = oracle.g
    problems: list[str] = []
    emitted = set()
    for n, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
            words = (tuple(rec["w1"]), tuple(rec["w2"]))
            claimed = (tuple(rec["beta1_b"]), tuple(rec["beta2_b"]),
                       rec["side1"], rec["side2"])
        except (ValueError, KeyError, TypeError) as exc:
            _add(problems, f"scan line {n}: unreadable certificate ({exc})")
            continue
        perms = []
        for word in words:
            p, bad = oracle.involution_problem(word)
            if bad or len(word) > max_len:
                _add(problems, f"scan line {n}: {bad or 'element longer than the cap'}")
            perms.append(p)
        if rec.get("computed") is not False:
            _add(problems, f"scan line {n}: uncertified scan reports computed")
        actual = oracle.clauses(perms[0], perms[1])
        if actual is None:
            _add(problems, f"scan line {n}: pair fails a good-pair clause")
        elif actual != claimed:
            _add(problems, f"scan line {n}: claims {claimed}, recomputed {actual}")
        key = frozenset(perms)
        if key in emitted:
            _add(problems, f"scan line {n}: pair emitted twice")
        emitted.add(key)

    invols = [p for p in g.elements(max_len)
              if p != g.ident and g.mul(p, p) == g.ident]
    expected = set()
    for a, p1 in enumerate(invols):
        for p2 in invols[a + 1:]:
            if oracle.clauses(p1, p2) is not None:
                expected.add(frozenset((p1, p2)))
    if emitted - expected:
        _add(problems, f"scan: {len(emitted - expected)} emitted pairs are not good")
    if expected - emitted:
        _add(problems, f"scan: {len(expected - emitted)} good pairs were not emitted")
    return problems


# -- certify-e6 ------------------------------------------------------------------------

def _hyperplane_point(beta, rank, rng, mod):
    """A random point of F_mod^rank on the hyperplane beta = 0."""
    j = next(i for i, b in enumerate(beta) if b)
    pt = [rng.randrange(mod) for _ in range(rank)]
    rest = sum(b * x for i, (b, x) in enumerate(zip(beta, pt)) if i != j)
    pt[j] = -rest * pow(beta[j], -1, mod) % mod
    return tuple(pt)


def check_certify(rs, order, certs, kk_cache, rng, hyper_points: int = 2) -> list[str]:
    """Certificates from certify_distinct and the d_w they rest on.

    Each certificate is computed with a direct inequality, and its clauses match
    an independent recomputation.  Each expanded d_w is homogeneous of degree
    N - l(w) and, at a random point, equals its factored form and
    (-1)^l c_w prod(alpha).  On random points of the hyperplane beta = 0 of the
    claimed divisor root, d_div vanishes and d_nodiv does not vanish everywhere.
    """
    oracle = PairOracle(rs, order)
    g = oracle.g
    n_pos = len(g.roots)
    problems: list[str] = []
    for n, cert in enumerate(certs, 1):
        if cert.computed is not True or cert.direct_inequality is not True:
            _add(problems, f"certify {n}: certificate not computed with a direct inequality")
            continue
        actual = oracle.clauses(cert.w1.perm, cert.w2.perm)
        claimed = (cert.beta1.b, cert.beta2.b, cert.side1, cert.side2)
        if actual != claimed:
            _add(problems, f"certify {n}: claims {claimed}, recomputed {actual}")
        ev = cert.divides_evidence
        beta, div, nodiv = ((cert.beta1.b, "w2", "w1") if cert.side1
                            else (cert.beta2.b, "w1", "w2"))
        if ev is None or (ev.root.b, ev.divides, ev.not_divides) != (beta, div, nodiv):
            _add(problems, f"certify {n}: divisibility evidence does not match the clauses")
            continue
        results = {"w1": kk_cache.get(cert.w1), "w2": kk_cache.get(cert.w2)}
        if None in results.values():
            _add(problems, f"certify {n}: d_w missing from the cache")
            continue
        pt = tuple(rng.randrange(P61) for _ in range(g.rank))
        rv = root_values(g.roots, pt, P61)
        all_roots = math.prod(rv) % P61
        for label, r in results.items():
            length = g.length(r.w.perm)
            if r.d_w is None or homogeneous_degree(r.d_w.terms) != n_pos - length:
                _add(problems, f"certify {n}: d_{label} not homogeneous of degree {n_pos - length}")
                continue
            value = poly_at(r.d_w.terms, pt, P61)
            if value != factored_at(r.d_factored, pt, rv, P61):
                _add(problems, f"certify {n}: expanded d_{label} differs from its factored form")
            sign = -1 if length % 2 else 1
            if value != sign * ratfn_at(r.c_w, pt, rv, P61) * all_roots % P61:
                _add(problems, f"certify {n}: d_{label} != (-1)^l c_w prod(alpha)")
        if results["w1"].d_w == results["w2"].d_w:
            _add(problems, f"certify {n}: d_w1 equals d_w2")
        nodiv_zero = 0
        for _ in range(hyper_points):
            h = _hyperplane_point(beta, g.rank, rng, P61)
            if results[div].d_w is not None and poly_at(results[div].d_w.terms, h, P61):
                _add(problems, f"certify {n}: d_{div} does not vanish on {beta} = 0")
            if results[nodiv].d_w is not None and not poly_at(results[nodiv].d_w.terms, h, P61):
                nodiv_zero += 1
        if nodiv_zero == hyper_points:
            _add(problems, f"certify {n}: d_{nodiv} vanishes at every point of {beta} = 0")
    return problems


# -- verify-e6 ------------------------------------------------------------------------

def poincare_count(exponents, max_len: int) -> int:
    """Number of elements of length <= max_len: the coefficients of
    prod_e (1 + q + ... + q^e) up to q^max_len."""
    coeffs = [1]
    for e in exponents:
        out = [0] * (len(coeffs) + e)
        for i, c in enumerate(coeffs):
            for j in range(e + 1):
                out[i + j] += c
        coeffs = out
    return sum(coeffs[:max_len + 1])


def check_verify(results, exponents, max_len: int, brute_cap: int) -> list[str]:
    """All seven properties pass with nonzero counts; the support law and the
    oracle run over every element of length <= their caps."""
    problems: list[str] = []
    names = tuple(r.name for r in results)
    if names != VERIFY_NAMES:
        _add(problems, f"verify: properties {names}, expected {VERIFY_NAMES}")
    for r in results:
        if not r.ok or r.failed or r.passed <= 0:
            _add(problems, f"verify: {r.name} passed {r.passed}, failed {r.failed}")
    want = {"support_law": poincare_count(exponents, min(max_len, 6)),
            "oracle_equivalence": poincare_count(exponents, min(max_len, brute_cap))}
    for r in results:
        if r.name in want and r.passed != want[r.name]:
            _add(problems, f"verify: {r.name} ran {r.passed} cases, expected {want[r.name]}")
    return problems
