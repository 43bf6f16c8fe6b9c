"""First-column factorizations, good pairs of involutions, and machine-checkable
certificates that two involutions have distinct Kostant-Kumar polynomials.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from .rootsys import Root, RootSystem, SimpleOrder, first_column, lex_key
from . import weyl
from .weyl import WeylElt, Word, BruhatOrder
from .nilhecke import NilHeckeEngine, KKResult, BudgetExceeded


class AnalysisError(ValueError):
    pass


class NotAGoodPair(AnalysisError):
    """Raised by is_good_pair with the failing clause as the message."""


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


def _c1(rs: RootSystem, order: SimpleOrder) -> tuple[set[tuple[int, ...]], Optional[Root]]:
    """The root vectors b of the first column C1, unsorted, and the top of C1
    for E8 (None otherwise)."""
    c = order.distinguished - 1
    col = [r for r in rs.positive_roots if r.b[c] != 0]
    top = max(col, key=lambda r: lex_key(order, r)) if rs.type_tag == "E8" else None
    return {r.b for r in col}, top


def _c1_meet(w: WeylElt, order: SimpleOrder, c1: set[tuple[int, ...]]) -> list[Root]:
    """The roots of the support of the involution w that lie in C1."""
    return [r for r in weyl.support(w, order) if r.b in c1]


def reflection_below(bruhat: BruhatOrder) -> Callable[[Root, WeylElt], bool]:
    """below(beta, w): whether s_beta <= w, decided by `bruhat` on the first
    ask of each (beta, w) and kept per element under beta.b, which hashes
    faster than a Root (its hash covers the Fraction coordinates).  The
    good-pair clauses ask only roots of C1: at most candidates x |C1| flags."""
    rs = bruhat.rs
    sides: dict[WeylElt, dict[tuple[int, ...], bool]] = defaultdict(dict)

    def below(beta: Root, w: WeylElt) -> bool:
        known = sides[w]
        side = known.get(beta.b)
        if side is None:
            side = known[beta.b] = bruhat.leq(weyl.reflection(rs, beta), w)
        return side
    return below


def _pair_clauses(w1: WeylElt, beta1: Root, w2: WeylElt, beta2: Root,
                  top: Optional[Root],
                  below: Callable[[Root, WeylElt], bool]) -> GoodPairCertificate:
    """The good-pair clauses that follow the C1 meet: beta1 != beta2, neither
    beta is `top` (the top of C1 for E8, None otherwise), and at least one
    Bruhat side, read through a reflection_below lookup.  Raises NotAGoodPair
    with the failing clause."""
    if beta1 == beta2:
        raise NotAGoodPair("beta1 = beta2")
    if top is not None and (beta1 == top or beta2 == top):
        raise NotAGoodPair("a beta is maximal in C1 (excluded for E8)")
    side1 = not below(beta1, w2)
    side2 = not below(beta2, w1)
    if not (side1 or side2):
        raise NotAGoodPair("both s_{beta1} <= w2 and s_{beta2} <= w1")
    return GoodPairCertificate(w1, w2, beta1, beta2, side1, side2)


def is_good_pair(w1: WeylElt, w2: WeylElt, rs: RootSystem, order: SimpleOrder,
                 bruhat: Optional[BruhatOrder] = None, *,
                 below: Optional[Callable[[Root, WeylElt], bool]] = None,
                 c1: Optional[tuple[set[tuple[int, ...]], Optional[Root]]] = None,
                 ) -> GoodPairCertificate:
    """Check the four good-pair clauses; raises NotAGoodPair with the failing
    one.  The Bruhat sides are read through `below`, a reflection_below
    lookup shared by the caller's checks, or else one made from `bruhat`;
    C1 is `c1`, what _c1(rs, order) returned to a caller checking many
    pairs, or else built here."""
    if not (w1.is_involution() and w2.is_involution()):
        raise AnalysisError("good pairs are defined for involutions")
    if below is None:
        below = reflection_below(bruhat or BruhatOrder(rs))
    c1, top = _c1(rs, order) if c1 is None else c1
    betas = []
    for label, w in (("w1", w1), ("w2", w2)):
        meet = _c1_meet(w, order, c1)
        if len(meet) != 1:
            raise NotAGoodPair(
                f"support of {label} meets C1 in {len(meet)} roots, need exactly 1")
        betas.append(meet[0])
    return _pair_clauses(w1, betas[0], w2, betas[1], top, below)


def implied_evidence(cert: GoodPairCertificate) -> DividesEvidence:
    """The divisibility evidence the Bruhat sides imply: with side1, beta1
    divides d_w2 and not d_w1; otherwise beta2 divides d_w1 and not d_w2."""
    if cert.side1:
        return DividesEvidence(cert.beta1, "w2", "w1")
    return DividesEvidence(cert.beta2, "w1", "w2")


def certify_distinct(cert: GoodPairCertificate, engine: NilHeckeEngine,
                     max_compute_len: int = 8,
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
    try:
        d = {}
        for label, w in (("w1", cert.w1), ("w2", cert.w2)):
            if kk_cache is not None and w in kk_cache:
                result = kk_cache[w]
            else:
                result = engine.kk_poly(w, expand=False)
                if kk_cache is not None:
                    kk_cache[w] = result
            d[label] = result.d_factored
    except BudgetExceeded:
        return replace(cert, computed=False, divides_evidence=ev)
    k = rs.index_of_b[ev.root.b]
    if not d[ev.divides].divisible_by(k):
        raise AnalysisError(
            f"certificate inconsistent: {ev.root.b} should divide d_{ev.divides}")
    if d[ev.not_divides].divisible_by(k):
        raise AnalysisError(
            f"certificate inconsistent: {ev.root.b} should not divide d_{ev.not_divides}")
    if d["w1"].equals(d["w2"]):
        raise AnalysisError("good pair with equal polynomials; contradiction")
    return replace(cert, computed=True, divides_evidence=ev,
                   direct_inequality=True)


def scan_good_pairs(rs: RootSystem, order: SimpleOrder, max_len: int,
                    engine: Optional[NilHeckeEngine] = None,
                    max_compute_len: int = 8,
                    certify: bool = True,
                    kk_cache: Optional[dict[WeylElt, KKResult]] = None,
                    ) -> Iterator[GoodPairCertificate]:
    """All good pairs among involutions of length <= max_len, each emitted once
    with (w1, w2) in deterministic enumeration order."""
    if engine is None:
        engine = NilHeckeEngine(rs)
    below = reflection_below(engine.bruhat)
    if kk_cache is None:
        kk_cache = {}
    # The clauses that depend on one involution only are decided once each:
    # an involution takes part in a good pair only if its support meets C1 in
    # exactly one root beta.
    c1, top = _c1(rs, order)
    candidates = []
    for w in weyl.enumerate_involutions(rs, max_len):
        if w.is_identity():
            continue
        meet = _c1_meet(w, order, c1)
        if len(meet) == 1:
            candidates.append((w, meet[0]))
    for a, (w1, beta1) in enumerate(candidates):
        for w2, beta2 in candidates[a + 1:]:
            try:
                cert = _pair_clauses(w1, beta1, w2, beta2, top, below)
            except NotAGoodPair:
                continue
            if certify:
                cert = certify_distinct(cert, engine, max_compute_len, kk_cache)
            yield cert
