import pytest

from kkweyl import verify, weyl


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


@pytest.mark.parametrize("system, max_len", [("a3", 6), ("e6", 4)])
def test_case_lists_match_length_filters(request, system, max_len):
    rs = request.getfixturevalue(system)
    elements = list(weyl.enumerate_elements(rs, max_len))
    assert verify.product_pairs(elements, max_len) == \
        reference_pairs(elements, max_len)
    assert verify.recursion_triples(elements, rs.rank) == \
        reference_triples(elements, rs.rank)


def test_pair_cap_beyond_longest_element(a2):
    # the length cap may exceed the longest element's length (3 in A2)
    elements = list(weyl.enumerate_elements(a2, 7))
    assert verify.product_pairs(elements, 7) == reference_pairs(elements, 7)
