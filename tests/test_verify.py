import random
import tracemalloc

import pytest

from kkweyl import verify, weyl
from kkweyl.nilhecke import NilHeckeEngine
from kkweyl.rootsys import SimpleOrder


def reference_pairs(elements, max_len):
    return [(v, w) for v in elements for w in elements
            if v.length + w.length <= max_len]


def reference_triples(elements, rank):
    triples = []
    for w in elements:
        if w.is_identity():
            continue
        for i in range(1, rank + 1):
            right = weyl.act_on_simple(w, i) < 0
            left = weyl.act_on_simple(weyl.inverse(w), i) < 0
            if right or left:
                for v in elements:
                    if v.length <= w.length:
                        triples.append((w, v, i, right, left))
    return triples


def drawn_pairs(elements, max_len, sample=None, seed=0):
    blocks = verify.product_blocks(elements, max_len)
    return [(v, w) for (v,), w in
            verify.draw_cases(elements, blocks, sample, seed)]


def drawn_triples(elements, rank, sample=None, seed=0):
    blocks = verify.recursion_blocks(elements, rank)
    return [(w, v, i, right, left) for (w, i, right, left), v in
            verify.draw_cases(elements, blocks, sample, seed)]


@pytest.mark.parametrize("system, max_len", [("a3", 6), ("e6", 4)])
def test_case_lists_match_length_filters(request, system, max_len):
    rs = request.getfixturevalue(system)
    elements = list(weyl.enumerate_elements(rs, max_len))
    assert drawn_pairs(elements, max_len) == reference_pairs(elements, max_len)
    assert drawn_triples(elements, rs.rank) == \
        reference_triples(elements, rs.rank)


@pytest.mark.parametrize("system, max_len", [("a3", 6), ("e6", 4)])
@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_draw_matches_sampling_the_list(request, system, max_len, seed):
    # the same seed draws the same cases, in the same order, as sampling the
    # whole case list; a sample no smaller than the list keeps the whole list
    rs = request.getfixturevalue(system)
    elements = list(weyl.enumerate_elements(rs, max_len))
    for drawn, reference in (
            (lambda k: drawn_pairs(elements, max_len, k, seed),
             reference_pairs(elements, max_len)),
            (lambda k: drawn_triples(elements, rs.rank, k, seed),
             reference_triples(elements, rs.rank))):
        total = len(reference)
        for k in (0, 50):
            assert drawn(k) == random.Random(seed).sample(reference, k)
        for k in (total, total + 1):
            assert drawn(k) == reference


def test_pair_cap_beyond_longest_element(a2):
    # the length cap may exceed the longest element's length (3 in A2)
    elements = list(weyl.enumerate_elements(a2, 7))
    assert drawn_pairs(elements, 7) == reference_pairs(elements, 7)


def test_sampled_checks_build_no_case_list(e7):
    # E7 at length <= 8 has 59 million recursion cases; drawing 20 of them
    # by index keeps the peak near the size of the element list
    engine = NilHeckeEngine(e7)
    tracemalloc.start()
    try:
        results = [verify.check_recursions(engine, 8, sample=20),
                   verify.check_product_law(engine, 8, sample=20)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.passed, r.failed) for r in results] == [(20, 0), (20, 0)]
    assert peak < 64 * 2**20


def test_default_depth_is_every_length_at_rank_3(a3):
    # A3's longest element has length 6
    order = SimpleOrder((1, 2, 3), 1)
    counts = [[(r.name, r.passed, r.failed) for r in verify.run_suite(a3, order, cap)]
              for cap in (None, 6)]
    assert counts[0] == counts[1]


def test_dyer_shape_keeps_identity_only_above_the_cap(e6):
    # verify on an E-type at --max-len 6 checks the whole support of x_w up
    # to length 5 and only v = id at length 6
    engine = NilHeckeEngine(e6)
    asked = []
    dyer_check = engine.dyer_check

    def counted(w, v):
        asked.append((w.length, v.is_identity()))
        return dyer_check(w, v)

    engine.dyer_check = counted
    res = verify.check_dyer_shape(engine, 6, id_only_above=5)
    elements = list(weyl.enumerate_elements(e6, 6))
    top = sum(1 for w in elements if w.length == 6)
    below = sum(len(weyl.bruhat_interval_subword(w)) for w in elements if w.length <= 5)
    assert top == 329
    assert res.ok and res.passed == len(asked) == below + top
    assert asked.count((6, True)) == top and (6, False) not in asked
