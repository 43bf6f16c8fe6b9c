"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single summary line; the pytest verdict per test is the
pass/fail line for that criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from kkweyl.rootsys import eps_coordinates, first_column, named_order
from kkweyl.polyring import (
    MPoly, RatFn, ratfn_normalize, root_linear_form, divide_by_linear,
)
from kkweyl import weyl
from kkweyl.weyl import (
    identity, simple_reflection, multiply, from_word, reduced_word,
    reflection, enumerate_elements, bruhat_interval_subword,
)
from kkweyl.nilhecke import NilHeckeEngine
from kkweyl.analysis import gen_table, scan_good_pairs
from kkweyl.verify import check_product_formula

from golden_tables import TABLES


def report(msg: str):
    # stored for the terminal summary: one line per criterion
    import conftest
    conftest.ACCEPTANCE_LINES.append(msg)
    print(msg)


# Published table rows whose printed u-word is mechanically impossible for the
# row it sits in: the factorization forces l(u) = height(beta), and each of
# these words has the wrong letter count or is not reduced.  Criterion 2
# compares every other common row as an exact group element.
KNOWN_BAD_PRINTED_WORDS = {
    ("E7", "standard"): {"1123221", "1123321"},
    ("E8", "standard"): {"01122211", "01122221", "11122211",
                         "11122221", "11222211", "11222221"},
    ("E6", "natural"): set(),
    ("E6", "alternate"): set(),
}

# The E8 published table omits exactly the lex-maximal first-column root
# (the highest root); our generator emits it with a premise-failure flag.
E8_OMITTED_ROW = "23465432"


@pytest.fixture(scope="module")
def e6_engine(e6):
    return NilHeckeEngine(e6)


def b_string(root):
    return "".join(str(x) for x in root.b)


def test_criterion_1_example_reproduction(a2):
    t0 = time.monotonic()
    engine = NilHeckeEngine(a2)
    w = from_word(a2, (1, 2, 1))
    den = tuple(sorted(a2.index_of_b[b] for b in ((1, 0), (0, 1), (1, 1))))
    expect = RatFn(a2, MPoly.const(2, -1), den)
    assert engine.c_w(w) == expect
    brute = engine.bruteforce_expansion((1, 2, 1))
    assert brute[identity(a2)] == expect
    # exactly two of the eight 0/1 sequences multiply out to the identity
    count = 0
    s = [identity(a2), simple_reflection(a2, 1), simple_reflection(a2, 2)]
    for eps in itertools.product((0, 1), repeat=3):
        prod = identity(a2)
        for e, i in zip(eps, (1, 2, 1)):
            if e:
                prod = multiply(prod, s[i])
        if prod.is_identity():
            count += 1
    assert count == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(f"ACCEPTANCE 1: PASS - c_(s1s2s1,id) = -1/(a1 a2 (a1+a2)), "
          f"two-sequence oracle agrees ({elapsed:.3f}s)")


def _check_table(rs, type_tag, order_name, allow_extra=()):
    order = named_order(type_tag, order_name)
    rows = gen_table(rs, order)
    golden = TABLES[(type_tag, order_name)]
    ours = {b_string(r.beta): r for r in rows}
    paper = {b: (eps, word) for eps, b, word in golden}

    extra = set(ours) - set(paper)
    assert extra == set(allow_extra), f"unexpected extra rows {extra}"
    assert set(paper) <= set(ours), f"missing rows {set(paper) - set(ours)}"
    for key in allow_extra:
        assert not ours[key].premise_ok

    diffs = []
    for key, (eps_strs, word) in paper.items():
        row = ours[key]
        assert row.premise_ok
        assert eps_coordinates(row.beta.b) == tuple(Fraction(s) for s in eps_strs)
        paper_elt = from_word(rs, word)
        if paper_elt == row.u:
            continue
        diffs.append(key)
        # the printed word cannot be a valid u for this row: l(u) is forced
        # to equal height(beta), and our row satisfies all the invariants
        wrong_count = len(word) != row.beta.height
        non_reduced = paper_elt.length != len(word)
        assert wrong_count or non_reduced, \
            f"row {key}: printed word differs but is not provably invalid"
        assert len(row.u_word) == row.beta.height
    assert set(diffs) == KNOWN_BAD_PRINTED_WORDS[(type_tag, order_name)], \
        f"diff set changed: {sorted(diffs)}"
    return len(rows), sorted(diffs)


def test_criterion_2_appendix_tables(e6, e7, e8):
    t0 = time.monotonic()
    n1, d1 = _check_table(e6, "E6", "natural")
    n2, d2 = _check_table(e6, "E6", "alternate")
    n3, d3 = _check_table(e7, "E7", "standard")
    assert (n1, n2, n3) == (16, 16, 27)
    assert not d1 and not d2
    mid = time.monotonic() - t0
    assert mid < 60.0
    n4, d4 = _check_table(e8, "E8", "standard", allow_extra=(E8_OMITTED_ROW,))
    assert n4 == 57
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(f"ACCEPTANCE 2: PASS - tables match; printed-word diffs "
          f"(all provably invalid words): E7 {d3}, E8 {d4} ({elapsed:.1f}s)")


def test_criterion_3_support_law(e6, e6_engine, a3):
    t0 = time.monotonic()
    checked = 0
    for rs, engine, cap in ((a3, NilHeckeEngine(a3), 6), (e6, e6_engine, 6)):
        elements = list(enumerate_elements(rs, cap))
        by_len = sorted(elements, key=lambda w: w.length)
        for w in elements:
            interval = bruhat_interval_subword(w)
            assert engine.x_of(w).support() == interval
            for v in by_len:
                if v.length > w.length:
                    break
                assert engine.bruhat.leq(v, w) == (v in interval)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(f"ACCEPTANCE 3: PASS - support(x_w) = lower Bruhat interval for "
          f"{checked} elements, Bruhat recursion matches subword oracle "
          f"({elapsed:.1f}s)")


def test_criterion_4_recursions_and_product_law(a2, a3, e6, e6_engine):
    # product law, exhaustive in A3
    engine3 = NilHeckeEngine(a3)
    elements3 = list(enumerate_elements(a3, 6))
    for v in elements3:
        for w in elements3:
            prod = engine3.nh_mul(engine3.x_of(v), engine3.x_of(w))
            vw = multiply(v, w)
            if vw.length == v.length + w.length:
                assert prod == engine3.x_of(vw)
            else:
                assert prod.is_zero()
    # recursions, exhaustive in A2
    engine2 = NilHeckeEngine(a2)
    elements2 = list(enumerate_elements(a2, 3))
    a2_checked = 0
    for w in elements2:
        if w.is_identity():
            continue
        for v in elements2:
            for i in (1, 2):
                if weyl.act_on_simple(w, i) < 0:
                    assert engine2.recursion_check_b(w, v, i)
                    a2_checked += 1
                if weyl.act_on_simple(weyl.inverse(w), i) < 0:
                    assert engine2.recursion_check_c(w, v, i)
                    a2_checked += 1
    # recursions, 200 seeded admissible triples in E6 with l(w) <= 8
    rng = random.Random(42)
    elements6 = list(enumerate_elements(e6, 8))
    triples = []
    while len(triples) < 200:
        w = rng.choice(elements6)
        if w.is_identity():
            continue
        v = rng.choice([x for x in elements6 if x.length <= w.length])
        i = rng.randrange(1, 7)
        right = weyl.act_on_simple(w, i) < 0
        left = weyl.act_on_simple(weyl.inverse(w), i) < 0
        if right or left:
            triples.append((w, v, i, right, left))
    for w, v, i, right, left in triples:
        if right:
            assert e6_engine.recursion_check_b(w, v, i)
        if left:
            assert e6_engine.recursion_check_c(w, v, i)
    e6_engine.clear_cache()
    report(f"ACCEPTANCE 4: PASS - Eq (2a) exhaustive in A3 ({len(elements3)}^2 "
          f"products), recursions exhaustive in A2 ({a2_checked} checks) and on "
          f"{len(triples)} E6 triples")


def test_criterion_5_oracle_equivalence(e6, e6_engine):
    checked = 0
    for w in enumerate_elements(e6, 6):
        brute = e6_engine.bruteforce_expansion(reduced_word(w))
        assert e6_engine.x_of(w).as_dict() == brute
        checked += 1
    report(f"ACCEPTANCE 5: PASS - fold and brute-force expansions identical "
          f"for all {checked} E6 elements with l(w) <= 6")


def test_criterion_6_polynomiality_and_dyer(e6, e6_engine):
    ident = identity(e6)
    nroots = len(e6.positive_roots)
    checked = 0
    for w in enumerate_elements(e6, 8):
        c = ratfn_normalize(e6_engine.c_w(w))
        # polynomiality: denominator uses each root at most once, so it
        # cancels completely into the full positive-root product
        assert len(set(c.den)) == len(c.den)
        # Dyer shape at v = id: every denominator root alpha has s_alpha <= w
        for k in c.den:
            s_alpha = reflection(e6, e6.positive_roots[k])
            assert e6_engine.bruhat.leq(s_alpha, w)
        checked += 1
    # kk_poly succeeds end to end on a reduced-length slice of the same range
    for w in enumerate_elements(e6, 3):
        res = e6_engine.kk_poly(w, expand=False)
        assert len(res.d_factored.root_factors) == nroots - w.length
    # d_{s_i} = product of all positive roots except alpha_i, symbolically
    for i in range(1, 7):
        res = e6_engine.kk_poly(simple_reflection(e6, i), expand=False)
        assert res.d_factored.unit == MPoly.const(6, 1)
        idx = e6.index_of_b[tuple(1 if j == i - 1 else 0 for j in range(6))]
        assert sorted(res.d_factored.root_factors) == \
            [k for k in range(nroots) if k != idx]
    e6_engine.clear_cache()
    report(f"ACCEPTANCE 6: PASS - polynomiality and Dyer shape for all "
          f"{checked} E6 elements with l(w) <= 8; d_(s_i) symbolic for all i")


def test_criterion_7_prop35_divisibility(e6, e6_natural, e6_engine):
    t0 = time.monotonic()
    col = first_column(e6, e6_natural)
    short = [beta for beta in col if beta.height <= 4]
    assert len(short) >= 4
    d_of = {}
    for beta in short:
        d_of[beta] = e6_engine.kk_poly(reflection(e6, beta), expand=True).d_w
        e6_engine.clear_cache()
    divide_checks = 0
    for beta in short:
        s_beta = reflection(e6, beta)
        _, r = divide_by_linear(d_of[beta], root_linear_form(e6, beta))
        assert not r.is_zero(), f"beta {beta.b} divides d_(s_beta)"
        for gamma in col:
            if gamma != beta and \
                    not e6_engine.bruhat.leq(reflection(e6, gamma), s_beta):
                _, r = divide_by_linear(d_of[beta], root_linear_form(e6, gamma))
                assert r.is_zero(), \
                    f"gamma {gamma.b} should divide d for beta {beta.b}"
                divide_checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    report(f"ACCEPTANCE 7: PASS - beta never divides d_(s_beta) "
          f"({len(short)} roots), gamma | d_(s_beta) verified in "
          f"{divide_checks} cases ({elapsed:.1f}s)")


def test_criterion_8_good_pairs_distinct(e6, e6_natural, e6_engine):
    t0 = time.monotonic()
    kk_cache = {}
    certs = list(scan_good_pairs(e6, e6_natural, 4, e6_engine,
                                 max_compute_len=8, certify=True,
                                 kk_cache=kk_cache))
    assert certs
    for cert in certs:
        assert cert.computed
        assert cert.direct_inequality is True
        ev = cert.divides_evidence
        assert ev is not None
        # re-verify the divisibility asymmetry straight from the cache
        d1 = kk_cache[cert.w1].d_w
        d2 = kk_cache[cert.w2].d_w
        assert d1 != d2
        form = root_linear_form(e6, ev.root)
        d_div = d2 if ev.divides == "w2" else d1
        d_nodiv = d1 if ev.not_divides == "w1" else d2
        assert divide_by_linear(d_div, form)[1].is_zero()
        assert not divide_by_linear(d_nodiv, form)[1].is_zero()
    e6_engine.clear_cache()
    elapsed = time.monotonic() - t0
    report(f"ACCEPTANCE 8: PASS - {len(certs)} good pairs in E6 (l <= 4), "
          f"every certificate confirmed by direct polynomial comparison "
          f"({elapsed:.1f}s)")


def test_criterion_9_product_formula():
    res = check_product_formula()
    assert res.failed == 0
    assert res.passed == 4 + 20   # all A1+A1 involution pairs, 20 A2+A1 samples
    report("ACCEPTANCE 9: PASS - direct-sum product formula on all A1+A1 "
          "involution pairs and 20 sampled A2+A1 pairs")
