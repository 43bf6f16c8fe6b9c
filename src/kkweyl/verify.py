"""Property suite backing the `verify` command: ring identities, the Bruhat
support law, the denominator shape, the brute-force oracle, and the
direct-sum product formula, each reported with case counts and a minimal
counterexample on failure.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterator, Optional

from .rootsys import RootSystem, SimpleOrder, build_from_cartan, direct_sum
from . import weyl
from .weyl import WeylElt
from .nilhecke import NilHeckeEngine, product_formula_check

DEFAULT_SAMPLE = 200


@dataclass
class VerifyResult:
    name: str
    passed: int = 0
    failed: int = 0
    counterexample: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, **instance):
        """Count one case.  The first failing instance is kept as the
        counterexample, each WeylElt in it written as its reduced word."""
        if ok:
            self.passed += 1
            return
        self.failed += 1
        if self.counterexample is None:
            self.counterexample = {
                k: list(weyl.reduced_word(x)) if isinstance(x, WeylElt) else x
                for k, x in instance.items()}


def _length_ends(elements: list[WeylElt], max_len: int) -> list[int]:
    """ends[L] = number of elements of length <= L.  enumerate_elements yields
    by nondecreasing length, so those elements are elements[:ends[L]]."""
    counts = [0] * (max_len + 1)
    for w in elements:
        counts[w.length] += 1
    return list(accumulate(counts))


def product_blocks(elements: list[WeylElt], max_len: int) -> list[tuple]:
    """The product-law cases (v, w) with l(v) + l(w) <= max_len, as blocks
    ((v,), n): v pairs with each w in elements[:n]."""
    ends = _length_ends(elements, max_len)
    return [((v,), ends[max_len - v.length]) for v in elements]


def recursion_blocks(elements: list[WeylElt], rank: int) -> list[tuple]:
    """The recursion cases as blocks ((w, i, right, left), n): one for each
    w != id and each letter i that is a right or a left descent of w, pairing
    with each v in elements[:n], the v with l(v) <= l(w)."""
    ends = _length_ends(elements, elements[-1].length)
    blocks = []
    for w in elements:
        if w.is_identity():
            continue
        n = ends[w.length]
        w_inv = weyl.inverse(w)
        for i in range(1, rank + 1):
            right = weyl.act_on_simple(w, i) < 0          # l(w s_i) < l(w)
            left = weyl.act_on_simple(w_inv, i) < 0       # l(s_i w) < l(w)
            if right or left:
                blocks.append(((w, i, right, left), n))
    return blocks


def draw_cases(elements: list[WeylElt], blocks: list[tuple],
               sample: Optional[int], seed: int) -> Iterator[tuple]:
    """Yield (head, x) for each block (head, n) and each x in elements[:n],
    in block order.  When `sample` is set and below the number of cases,
    yield instead the cases random.Random(seed).sample would draw from that
    list, in its order: random.sample picks positions from the list's length
    alone, so each position is decoded through the prefix sums of the block
    sizes and no case list is built.  Memory stays linear in the number of
    elements while the cases grow quadratically."""
    ends = list(accumulate(n for _, n in blocks))
    total = ends[-1] if ends else 0
    if sample is None or total <= sample:
        for head, n in blocks:
            for x in islice(elements, n):
                yield head, x
        return
    for j in random.Random(seed).sample(range(total), sample):
        b = bisect_right(ends, j)
        head, n = blocks[b]
        yield head, elements[j - ends[b] + n]


def check_product_law(engine: NilHeckeEngine, max_len: int,
                      sample: Optional[int] = None) -> VerifyResult:
    """Eq: x_v * x_w = x_{vw} when lengths add, 0 otherwise."""
    res = VerifyResult("product_law_2a")
    rs = engine.rs
    elements = list(weyl.enumerate_elements(rs, max_len))
    blocks = product_blocks(elements, max_len)
    for (v,), w in draw_cases(elements, blocks, sample, seed=0):
        prod = engine.nh_mul(engine.x_of(v), engine.x_of(w))
        vw = weyl.multiply(v, w)
        if vw.length == v.length + w.length:
            ok = prod == engine.x_of(vw)
        else:
            ok = prod.is_zero()
        res.record(ok, v=v, w=w)
    return res


def check_recursions(engine: NilHeckeEngine, max_len: int,
                     sample: Optional[int] = None) -> VerifyResult:
    """Coefficient recursions over descents, both sided variants."""
    res = VerifyResult("recursions_2b_2c")
    rs = engine.rs
    elements = list(weyl.enumerate_elements(rs, max_len))
    blocks = recursion_blocks(elements, rs.rank)
    for (w, i, right, left), v in draw_cases(elements, blocks, sample, seed=1):
        ok = True
        if right:
            ok = ok and engine.recursion_check_b(w, v, i)
        if left:
            ok = ok and engine.recursion_check_c(w, v, i)
        res.record(ok, w=w, v=v, i=i)
    return res


def check_support_law(engine: NilHeckeEngine, max_len: int) -> VerifyResult:
    """support(x_w) = {v : v <= w}, with the Bruhat recursion itself validated
    against the subword oracle on the same range."""
    res = VerifyResult("support_law")
    elements = list(weyl.enumerate_elements(engine.rs, max_len))
    ends = _length_ends(elements, max_len)
    for w in elements:
        interval = weyl.bruhat_interval_subword(w)
        ok = engine.x_of(w).support() == interval
        ok = ok and all(
            engine.bruhat.leq(v, w) == (v in interval)
            for v in elements[:ends[w.length]]
        )
        res.record(ok, w=w)
    return res


def check_oracle_equivalence(engine: NilHeckeEngine, max_len: int) -> VerifyResult:
    """x_w coefficients match the signed-sequence brute-force sum."""
    res = VerifyResult("oracle_equivalence")
    for w in weyl.enumerate_elements(engine.rs, max_len):
        brute = engine.bruteforce_expansion(weyl.reduced_word(w))
        ok = engine.x_of(w).as_dict() == brute
        res.record(ok, w=w)
    return res


def check_dyer_shape(engine: NilHeckeEngine, max_len: int,
                     id_only_above: Optional[int] = None) -> VerifyResult:
    """Denominators stay inside {alpha : s_alpha v <= w}, multiplicity one."""
    res = VerifyResult("dyer_shape")
    ident = weyl.identity(engine.rs)
    for w in weyl.enumerate_elements(engine.rs, max_len):
        if id_only_above is not None and w.length > id_only_above:
            ok = engine.dyer_check(w, ident)
            res.record(ok, w=w, v=ident)
            continue
        for v in engine.x_of(w).support():
            res.record(engine.dyer_check(w, v), w=w, v=v)
    return res


def check_supp_bruhat(rs: RootSystem, order: SimpleOrder, max_len: int) -> VerifyResult:
    """Strict support containment implies Bruhat comparability for involutions."""
    res = VerifyResult("support_containment_bruhat")
    bruhat = weyl.BruhatOrder(rs)
    invols = list(weyl.enumerate_involutions(rs, max_len))
    supports = [frozenset(weyl.support(w, order)) for w in invols]
    for a, w1 in enumerate(invols):
        for b, w2 in enumerate(invols):
            if a != b and supports[a] < supports[b]:
                res.record(bruhat.leq(w1, w2), w1=w1, w2=w2)
    return res


def check_product_formula() -> VerifyResult:
    """Direct-sum product rule on A1+A1 (all involutions) and A2+A1 (sampled)."""
    res = VerifyResult("direct_sum_product_formula")
    a1 = build_from_cartan([[2]])
    a2 = build_from_cartan([[2, -1], [-1, 2]])
    sum11 = direct_sum(a1, a1)
    for w1 in weyl.enumerate_involutions(a1, 1):
        for w2 in weyl.enumerate_involutions(a1, 1):
            ok = product_formula_check(sum11, w1, w2)
            res.record(ok, sum="A1+A1", w1=w1, w2=w2)
    sum21 = direct_sum(a2, a1)
    e2 = list(weyl.enumerate_elements(a2, 3))
    e1 = list(weyl.enumerate_elements(a1, 1))
    pairs = [(w1, w2) for w1 in e2 for w2 in e1]
    for w1, w2 in random.Random(2).choices(pairs, k=20):
        ok = product_formula_check(sum21, w1, w2)
        res.record(ok, sum="A2+A1", w1=w1, w2=w2)
    return res


def run_suite(rs: RootSystem, order: SimpleOrder, max_len: Optional[int],
              engine: Optional[NilHeckeEngine] = None,
              sample: Optional[int] = DEFAULT_SAMPLE) -> list[VerifyResult]:
    """The full property suite at the given length cap; with none, every
    length on a system of rank at most 3 and length 5 above that.  On a
    system of rank at most 3 every case runs; above that the pair checks
    draw `sample` cases and the Dyer check keeps only v = id beyond length 5."""
    if engine is None:
        engine = NilHeckeEngine(rs)
    small = rs.rank <= 3
    if max_len is None:
        max_len = len(rs.positive_roots) if small else 5
    pair_sample = None if small else sample
    return [
        check_product_law(engine, max_len, sample=pair_sample),
        check_recursions(engine, max_len, sample=pair_sample),
        check_support_law(engine, min(max_len, 6)),
        check_oracle_equivalence(engine, min(max_len, engine.brute_cap)),
        check_dyer_shape(engine, max_len, id_only_above=None if small else 5),
        check_supp_bruhat(rs, order, max_len),
        check_product_formula(),
    ]
