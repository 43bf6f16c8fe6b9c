"""First-column factorizations, good pairs of involutions, and machine-checkable
certificates that two involutions have distinct Kostant-Kumar polynomials.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .rootsys import Root, RootSystem, SimpleOrder, first_column
from . import weyl
from .weyl import WeylElt, Word, BruhatOrder
from .nilhecke import NilHeckeEngine, KKResult, BudgetExceeded

DEFAULT_MAX_COMPUTE_LEN = 8


class AnalysisError(ValueError):
    pass


class NotAGoodPair(AnalysisError):
    """Raised by GoodPairClauses with the failing clause as the message."""


@dataclass(frozen=True)
class FactorRow:
    """One first-column root beta with the minimal-coset factor u of s_beta.

    s_beta = u * v with v in the parabolic subgroup avoiding the distinguished
    node c; when the premises hold, u = v^{-1} s_c and l(u) = l(v) + 1.
    """
    beta: Root
    u: WeylElt
    u_word: Word
    v_word: Word
    premise_ok: bool


def prop35_factor(rs: RootSystem, order: SimpleOrder, beta: Root) -> FactorRow:
    c = order.distinguished
    if beta.b[c - 1] == 0:
        raise AnalysisError("beta is not in the first column for this order")
    s_beta = weyl.reflection(rs, beta)
    I = {i for i in range(1, rs.rank + 1) if i != c}
    u, v = weyl.parabolic_factorize(s_beta, I)
    if weyl.multiply(u, v) != s_beta:
        raise AnalysisError("parabolic factorization failed to recompose")
    if u.length + v.length != s_beta.length:
        raise AnalysisError("length additivity violated")
    expected_u = weyl.multiply_simple(weyl.inverse(v), c)
    premise_ok = (u == expected_u) and u.length == v.length + 1
    return FactorRow(
        beta=beta,
        u=u,
        u_word=weyl.reduced_word(u),
        v_word=weyl.reduced_word(v),
        premise_ok=premise_ok,
    )


def gen_table(rs: RootSystem, order: SimpleOrder) -> list[FactorRow]:
    """One factorization row per first-column root, in (height, lex) order.

    Rows whose premises fail are emitted with premise_ok=False, never dropped.
    """
    return [prop35_factor(rs, order, beta) for beta in first_column(rs, order)]


# -- good pairs -----------------------------------------------------------------


@dataclass(frozen=True)
class DividesEvidence:
    """A root dividing one of the two polynomials but not the other."""
    root: Root
    divides: str       # "w1" or "w2"
    not_divides: str


@dataclass(frozen=True)
class GoodPairCertificate:
    w1: WeylElt
    w2: WeylElt
    beta1: Root
    beta2: Root
    side1: bool   # s_{beta1} is not below w2 in Bruhat order
    side2: bool   # s_{beta2} is not below w1
    computed: bool = False
    divides_evidence: Optional[DividesEvidence] = None
    direct_inequality: Optional[bool] = None


class GoodPairClauses:
    """The clauses that make two involutions w1, w2 a good pair, for one root
    system and simple order: the support of each meets the first column C1 in
    exactly one root, beta1 and beta2; beta1 != beta2, and for E8 neither is
    the top of C1; and s_beta1 is not below w2 or s_beta2 is not below w1 in
    Bruhat order.

    C1 and its top are built once.  The two facts of one involution w that
    the clauses read are each decided on their first ask and kept per
    element: the meet of its support with C1, whose one root is beta(w), and
    each Bruhat side s_beta <= w, decided by `bruhat` and kept under beta.b,
    which hashes faster than a Root (its hash covers the Fraction
    coordinates); only roots of C1 are asked, so at most candidates x |C1|
    flags are kept.  A caller checking many pairs makes one object for all
    of them."""

    def __init__(self, rs: RootSystem, order: SimpleOrder,
                 bruhat: Optional[BruhatOrder] = None):
        self.rs = rs
        self.order = order
        self.bruhat = bruhat or BruhatOrder(rs)
        column = first_column(rs, order)
        self.c1 = {r.b for r in column}
        self.top = column[-1] if rs.type_tag == "E8" else None
        self._meets: dict[WeylElt, tuple[Root, ...]] = {}
        self._sides: dict[WeylElt, dict[tuple[int, ...], bool]] = defaultdict(dict)

    def meet(self, w: WeylElt) -> tuple[Root, ...]:
        """The roots of the support of the involution w that lie in C1."""
        meet = self._meets.get(w)
        if meet is None:
            meet = self._meets[w] = tuple(
                r for r in weyl.support(w, self.order) if r.b in self.c1)
        return meet

    def below(self, beta: Root, w: WeylElt) -> bool:
        """Whether s_beta <= w."""
        known = self._sides[w]
        side = known.get(beta.b)
        if side is None:
            side = known[beta.b] = self.bruhat.leq(weyl.reflection(self.rs, beta), w)
        return side

    def clauses(self, w1: WeylElt, beta1: Root, w2: WeylElt,
                beta2: Root) -> GoodPairCertificate:
        """The clauses that follow the C1 meet, for w1 and w2 meeting C1 in
        beta1 and beta2.  Raises NotAGoodPair with the failing clause."""
        # roots compare by .b: Root's == also compares the eps Fractions
        if beta1.b == beta2.b:
            raise NotAGoodPair("beta1 = beta2")
        top = self.top
        if top is not None and (beta1.b == top.b or beta2.b == top.b):
            raise NotAGoodPair("a beta is maximal in C1 (excluded for E8)")
        side1 = not self.below(beta1, w2)
        side2 = not self.below(beta2, w1)
        if not (side1 or side2):
            raise NotAGoodPair("both s_{beta1} <= w2 and s_{beta2} <= w1")
        return GoodPairCertificate(w1, w2, beta1, beta2, side1, side2)

    def check(self, w1: WeylElt, w2: WeylElt) -> GoodPairCertificate:
        """All the clauses.  Raises AnalysisError if w1 or w2 is not an
        involution, and NotAGoodPair with the failing clause."""
        if not (w1.is_involution() and w2.is_involution()):
            raise AnalysisError("good pairs are defined for involutions")
        betas = []
        for label, w in (("w1", w1), ("w2", w2)):
            meet = self.meet(w)
            if len(meet) != 1:
                raise NotAGoodPair(
                    f"support of {label} meets C1 in {len(meet)} roots, need exactly 1")
            betas.append(meet[0])
        return self.clauses(w1, betas[0], w2, betas[1])


def is_good_pair(w1: WeylElt, w2: WeylElt, rs: RootSystem, order: SimpleOrder,
                 bruhat: Optional[BruhatOrder] = None) -> GoodPairCertificate:
    """Check the good-pair clauses of one pair through a fresh
    GoodPairClauses; raises as its `check` does."""
    return GoodPairClauses(rs, order, bruhat).check(w1, w2)


def implied_evidence(cert: GoodPairCertificate) -> DividesEvidence:
    """The divisibility evidence the Bruhat sides imply: with side1, beta1
    divides d_w2 and not d_w1; otherwise beta2 divides d_w1 and not d_w2."""
    if cert.side1:
        return DividesEvidence(cert.beta1, "w2", "w1")
    return DividesEvidence(cert.beta2, "w1", "w2")


def certify_distinct(cert: GoodPairCertificate, engine: NilHeckeEngine,
                     max_compute_len: int = DEFAULT_MAX_COMPUTE_LEN,
                     kk_cache: Optional[dict[WeylElt, KKResult]] = None,
                     ) -> GoodPairCertificate:
    """Enrich a good-pair certificate with divisibility evidence.

    When both lengths fit under the cap, both d polynomials are computed in
    factored form, unit times positive roots, and never expanded.  Positive
    roots are pairwise non-proportional irreducibles of Q[a], so a root
    divides d exactly when it is one of the root factors or divides the unit;
    both halves of the divisibility asymmetry are checked that way, and the
    inequality directly with FactoredPoly.equals.  Over the cap, or past the
    term budget, the certificate stays symbolic.
    """
    rs = engine.rs
    ev = implied_evidence(cert)
    if cert.w1.length > max_compute_len or cert.w2.length > max_compute_len:
        return replace(cert, computed=False, divides_evidence=ev)
    if kk_cache is None:
        kk_cache = {}
    try:
        d = {}
        for label, w in (("w1", cert.w1), ("w2", cert.w2)):
            result = kk_cache.get(w)
            if result is None:
                result = kk_cache[w] = engine.kk_poly(w, expand=False)
            d[label] = result.d_factored
        equal = d["w1"].equals(d["w2"], engine.term_budget)
    except BudgetExceeded:
        return replace(cert, computed=False, divides_evidence=ev)
    k = rs.index_of_b[ev.root.b]
    if not d[ev.divides].divisible_by(k):
        raise AnalysisError(
            f"certificate inconsistent: {ev.root.b} should divide d_{ev.divides}")
    if d[ev.not_divides].divisible_by(k):
        raise AnalysisError(
            f"certificate inconsistent: {ev.root.b} should not divide d_{ev.not_divides}")
    if equal:
        raise AnalysisError("good pair with equal polynomials; contradiction")
    return replace(cert, computed=True, divides_evidence=ev,
                   direct_inequality=True)


def scan_good_pairs(rs: RootSystem, order: SimpleOrder, max_len: int,
                    engine: Optional[NilHeckeEngine] = None,
                    max_compute_len: int = DEFAULT_MAX_COMPUTE_LEN,
                    certify: bool = True,
                    kk_cache: Optional[dict[WeylElt, KKResult]] = None,
                    ) -> Iterator[GoodPairCertificate]:
    """All good pairs among involutions of length <= max_len, each emitted once
    with (w1, w2) in deterministic enumeration order."""
    if engine is None:
        engine = NilHeckeEngine(rs)
    if kk_cache is None:
        kk_cache = {}
    good = GoodPairClauses(rs, order, engine.bruhat)
    # The clauses that depend on one involution only are decided once each:
    # an involution takes part in a good pair only if its support meets C1 in
    # exactly one root beta.
    candidates = []
    for w in weyl.enumerate_involutions(rs, max_len):
        if w.is_identity():
            continue
        meet = good.meet(w)
        if len(meet) == 1:
            candidates.append((w, meet[0]))
    for a, (w1, beta1) in enumerate(candidates):
        for w2, beta2 in candidates[a + 1:]:
            try:
                cert = good.clauses(w1, beta1, w2, beta2)
            except NotAGoodPair:
                continue
            if certify:
                cert = certify_distinct(cert, engine, max_compute_len, kk_cache)
            yield cert
