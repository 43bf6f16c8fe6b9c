import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from kkweyl.polyring import (
    MPoly, RatFn, ratfn_const, ratfn_normalize, root_linear_form,
    divide_by_linear,
)
from kkweyl import polyring, verify, weyl
from kkweyl.weyl import (
    identity, simple_reflection, multiply, from_word, reduced_word,
    enumerate_elements, WeylError,
)
from kkweyl.nilhecke import (
    NHElt, NilHeckeEngine, NilHeckeError, BudgetExceeded, FactoredPoly,
    product_formula_check,
)
from kkweyl.rootsys import build_e_system, direct_sum


@pytest.fixture(scope="module")
def a2_engine(a2):
    return NilHeckeEngine(a2)


@pytest.fixture(scope="module")
def a3_engine(a3):
    return NilHeckeEngine(a3)


def example_coefficient(a2):
    """-1/(alpha_1 alpha_2 (alpha_1+alpha_2)) as a normalized RatFn."""
    den = tuple(sorted(a2.index_of_b[b] for b in ((1, 0), (0, 1), (1, 1))))
    return RatFn(a2, MPoly.const(2, -1), den)


class TestNhMul:
    def test_delta_id_is_unit(self, a2_engine):
        x = a2_engine.x_gen(1)
        assert a2_engine.nh_mul(a2_engine.delta_id(), x) == x
        assert a2_engine.nh_mul(x, a2_engine.delta_id()) == x

    def test_rule_with_sign(self, a2, a2_engine):
        # (x1 d_{s1}) * (x1 d_id) = x1 * s1(x1) d_{s1} = -x1^2 d_{s1}
        s1 = simple_reflection(a2, 1)
        x1 = MPoly.var(2, 1)
        a = NHElt.from_dict(a2, {s1: RatFn(a2, x1, ())})
        b = NHElt.from_dict(a2, {identity(a2): RatFn(a2, x1, ())})
        prod = a2_engine.nh_mul(a, b)
        assert prod.support() == {s1}
        assert prod.coefficient(s1) == RatFn(a2, -(x1 * x1), ())

    def test_associativity_random(self, a3, a3_engine):
        rng = random.Random(23)
        gens = [a3_engine.x_gen(i) for i in (1, 2, 3)]
        pool = gens + [a3_engine.nh_mul(gens[0], gens[1]), a3_engine.delta_id()]
        for _ in range(25):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert a3_engine.nh_mul(a3_engine.nh_mul(a, b), c) == \
                a3_engine.nh_mul(a, a3_engine.nh_mul(b, c))


class TestXGen:
    def test_identity_coefficient(self, a2, a2_engine):
        for i in (1, 2):
            x = a2_engine.x_gen(i)
            idx = a2.index_of_b[tuple(1 if j == i - 1 else 0 for j in range(2))]
            assert x.coefficient(identity(a2)) == \
                RatFn(a2, MPoly.const(2, -1), (idx,))
            assert x.support() == {identity(a2), simple_reflection(a2, i)}

    def test_square_is_zero(self, a2_engine):
        for i in (1, 2):
            x = a2_engine.x_gen(i)
            assert a2_engine.nh_mul(x, x).is_zero()

    def test_product_support_bound(self, a2_engine):
        prod = a2_engine.nh_mul(a2_engine.x_gen(1), a2_engine.x_gen(2))
        assert len(prod.support()) <= 4


class TestXw:
    def test_empty_word(self, a2, a2_engine):
        assert a2_engine.x_w(()) == a2_engine.delta_id()

    def test_example_2_3_value(self, a2, a2_engine):
        xw = a2_engine.x_w((1, 2, 1))
        assert xw.coefficient(identity(a2)) == example_coefficient(a2)

    def test_reduced_word_independence(self, e6):
        # all reduced words of each element up to length 4, each folded on a
        # fresh engine: on a shared one the element memo answers the second
        for w in enumerate_elements(e6, 4):
            words = all_reduced_words(w)
            expansions = {NilHeckeEngine(e6).x_w(word) for word in words}
            assert len(expansions) == 1

    def test_nonreduced_rejected(self, a2_engine):
        with pytest.raises(NilHeckeError):
            a2_engine.x_w((1, 1))

    def test_budget_enforced(self, e6):
        engine = NilHeckeEngine(e6, term_budget=5)
        with pytest.raises(BudgetExceeded):
            engine.x_w((1, 3, 4, 2, 5))


class TestElementMemo:
    """x_w depends on w alone, and the engine keeps one memo keyed by element."""

    @pytest.mark.parametrize("system,max_len,folds", [("a3", 6, 23), ("e6", 4, 181)])
    def test_one_fold_per_element(self, request, monkeypatch, system, max_len, folds):
        rs = request.getfixturevalue(system)
        steps = []
        extend = NilHeckeEngine._extend_right

        def counted(self, a, i):
            steps.append(i)
            return extend(self, a, i)

        monkeypatch.setattr(NilHeckeEngine, "_extend_right", counted)
        engine = NilHeckeEngine(rs)
        for check in (verify.check_support_law, verify.check_oracle_equivalence,
                      verify.check_dyer_shape):
            res = check(engine, max_len)
            assert res.ok and res.passed
        # one step per non-identity element, whichever checks read x_w
        assert len(steps) == folds == len(list(enumerate_elements(rs, max_len))) - 1

    def test_hit_needs_no_reduced_word(self, a3, monkeypatch):
        engine = NilHeckeEngine(a3)
        xw = engine.x_w((1, 2, 1, 3))

        def refuse(w):
            raise AssertionError("reduced_word called for a memoised element")

        monkeypatch.setattr(weyl, "reduced_word", refuse)
        assert engine.x_of(from_word(a3, (1, 2, 1, 3))) is xw
        assert engine.x_of(from_word(a3, (1, 2))) is engine.x_w((1, 2))
        # another reduced word of the same element is a hit too
        assert engine.x_w((2, 1, 2, 3)) is xw

    def test_errors_and_clear_cache(self, a3):
        engine = NilHeckeEngine(a3)
        engine.x_w((1, 2, 3))
        with pytest.raises(NilHeckeError):
            engine.x_w((1, 2, 3, 3))
        with pytest.raises(WeylError):
            engine.x_w((1, 4))
        assert len(engine._x_memo) == 4
        engine.clear_cache()
        assert engine._x_memo == {identity(a3): engine.delta_id()}


def longest_word(rs):
    """The canonical reduced word of the longest element."""
    w = identity(rs)
    while True:
        ascent = next((i for i in range(1, rs.rank + 1)
                       if weyl.act_on_simple(w, i) > 0), None)
        if ascent is None:
            return reduced_word(w)
        w = multiply(w, simple_reflection(rs, ascent))


def test_fold_divides_only_where_a_root_cancels(monkeypatch):
    """On the E6 longest-element word, the mod-P pre-test rules out every
    trial division that would fail, and each root's linear form is built
    once per system."""
    rs = build_e_system("E6")
    word = longest_word(rs)
    assert len(word) == 36
    divisions, forms = [], []
    divide, make_form = polyring.divide_by_linear, polyring.root_linear_form

    def counted_divide(p, L):
        out = divide(p, L)
        divisions.append(out[1].is_zero())
        return out

    def counted_form(rs, beta):
        forms.append(beta.b)
        return make_form(rs, beta)

    monkeypatch.setattr(polyring, "divide_by_linear", counted_divide)
    monkeypatch.setattr(polyring, "root_linear_form", counted_form)
    engine = NilHeckeEngine(rs)
    for p in range(1, 11):
        engine.x_w(word[:p])
    assert divisions and all(divisions)
    assert forms and len(forms) == len(set(forms))


def test_fold_multiplies_by_one_root_form_at_a_time(monkeypatch):
    """The fold multiplies each summand's numerator by the root forms it
    lacks, one at a time: the multiplier of every MPoly product is a
    memoised root form itself, never the constant 1 or a product of roots.
    (A numerator may itself be 1, as in the coefficient 1/alpha of x_i.)"""
    rs = build_e_system("E6")
    word = longest_word(rs)
    multipliers = []
    mul = MPoly.__mul__

    def recorded(a, b):
        multipliers.append(b)
        return mul(a, b)

    monkeypatch.setattr(MPoly, "__mul__", recorded)
    engine = NilHeckeEngine(rs)
    for p in range(1, 11):
        engine.x_w(word[:p])
    forms = [form for form, _ in rs.root_memo.values()]
    assert multipliers
    assert all(any(b is form for form in forms) for b in multipliers)


def all_reduced_words(w):
    if w.is_identity():
        return [()]
    out = []
    for i in range(1, w.rs.rank + 1):
        if weyl.act_on_simple(weyl.inverse(w), i) < 0:
            s = simple_reflection(w.rs, i)
            for rest in all_reduced_words(multiply(s, w)):
                out.append((i,) + rest)
    return out


class TestCoefficients:
    def test_c_ss_is_inverse_root(self, a2, a2_engine):
        for i in (1, 2):
            s = simple_reflection(a2, i)
            idx = a2.index_of_b[tuple(1 if j == i - 1 else 0 for j in range(2))]
            assert a2_engine.c_wv(s, s) == RatFn(a2, MPoly.const(2, 1), (idx,))

    def test_zero_iff_not_below(self, a3, a3_engine):
        elements = list(enumerate_elements(a3, 6))
        for w in elements:
            xw = a3_engine.x_of(w)
            for v in elements:
                expected = a3_engine.bruhat.leq(v, w)
                assert (not xw.coefficient(v).is_zero()) == expected

    def test_c_w_matches_example(self, a2, a2_engine):
        w = from_word(a2, (1, 2, 1))
        assert a2_engine.c_w(w) == example_coefficient(a2)


class TestBruteForce:
    def test_empty_word(self, a2, a2_engine):
        assert a2_engine.bruteforce_expansion(()) == \
            {identity(a2): ratfn_const(a2, 1)}

    def test_example_2_3(self, a2, a2_engine):
        brute = a2_engine.bruteforce_expansion((1, 2, 1))
        assert brute[identity(a2)] == example_coefficient(a2)

    def test_cap_enforced(self, e6):
        word = (1, 3, 4, 5, 6, 1, 4, 3, 1, 2, 4, 5, 2)
        assert len(word) == NilHeckeEngine.brute_cap + 1
        assert from_word(e6, word).length == len(word)
        with pytest.raises(NilHeckeError, match="brute-force cap"):
            NilHeckeEngine(e6).bruteforce_expansion(word)

    def test_nonreduced_word_rejected(self, a2_engine):
        with pytest.raises(NilHeckeError, match=r"word \(1, 2, 2\) is not reduced"):
            a2_engine.bruteforce_expansion((1, 2, 2))

    def test_agrees_with_fold_a3(self, a3, a3_engine):
        for w in enumerate_elements(a3, 6):
            word = reduced_word(w)
            assert a3_engine.x_w(word).as_dict() == \
                a3_engine.bruteforce_expansion(word)


class TestKKPoly:
    def test_identity_gives_full_product(self, a2, a2_engine):
        d = a2_engine.kk_poly(identity(a2)).d_w
        x1, x2 = MPoly.var(2, 1), MPoly.var(2, 2)
        assert d == x1 * x2 * (x1 + x2)

    def test_simple_reflection(self, a3, a3_engine):
        for i in (1, 2, 3):
            res = a3_engine.kk_poly(simple_reflection(a3, i))
            expect = MPoly.const(3, 1)
            for r in a3.positive_roots:
                if r != a3.simple_roots[i - 1]:
                    expect = expect * root_linear_form(a3, r)
            assert res.d_w == expect
            # symbolic check: unit 1 and exactly the complement roots
            assert res.d_factored.unit == MPoly.const(3, 1)
            assert set(res.d_factored.root_factors) == \
                {k for k, r in enumerate(a3.positive_roots)
                 if r != a3.simple_roots[i - 1]}

    def test_a2_long_element(self, a2, a2_engine):
        res = a2_engine.kk_poly(from_word(a2, (1, 2, 1)))
        assert res.d_w == MPoly.const(2, 1)


def a3_factored(a3, c, unit_roots, factors):
    """c * prod(unit_roots) as the unit, times the root factors; the positive
    roots 0..5 of A3 are a1, a2, a3, a1+a2, a2+a3, a1+a2+a3."""
    unit = MPoly.const(3, c)
    for k in unit_roots:
        unit = unit * root_linear_form(a3, a3.positive_roots[k])
    return FactoredPoly(a3, unit, tuple(factors))


# (c, unit roots, root factors) on each side, and whether the products agree
EQUALS_CASES = [
    ((1, (), (0, 3, 5)), (1, (), (5, 0, 3)), True),     # permuted factors
    ((1, (), (0, 1, 3)), (1, (), (1, 0, 4)), False),    # shared factors
    ((1, (), (0, 0, 2)), (1, (), (0, 2)), False),       # a repeated factor
    ((2, (), (0, 1)), (1, (), (0, 1)), False),          # different units
    ((-1, (), (2,)), (1, (), (2,)), False),
    ((1, (0,), (3,)), (1, (), (0, 3)), True),           # a root in the unit
    ((1, (3, 4), (5,)), (1, (4,), (3, 5)), True),
    ((1, (1,), (3,)), (1, (), (0, 3)), False),
    ((0, (), (0,)), (0, (), (1, 2)), True),             # zero units
]


class TestFactoredPoly:
    """The factored comparisons against the expanded polynomial as oracle."""

    @pytest.mark.parametrize("lhs,rhs,equal", EQUALS_CASES)
    def test_equals_agrees_with_expansion(self, a3, lhs, rhs, equal):
        p, q = a3_factored(a3, *lhs), a3_factored(a3, *rhs)
        assert (p.expand() == q.expand()) is equal
        assert p.equals(q) is equal
        assert q.equals(p) is equal

    def test_divisible_by_agrees_with_division(self, a3, a3_engine):
        polys = [a3_engine.kk_poly(w, expand=False).d_factored
                 for w in enumerate_elements(a3, 6)]
        for lhs, rhs, _ in EQUALS_CASES:
            polys += [a3_factored(a3, *lhs), a3_factored(a3, *rhs)]
        x1, x2, x3 = (MPoly.var(3, i) for i in (1, 2, 3))
        polys.append(FactoredPoly(a3, x1 * x1 + x2 * x2, (2,)))
        polys.append(FactoredPoly(a3, x1 * x2 + x1 * x3, (2,)))
        for p in polys:
            full = p.expand()
            for k, root in enumerate(a3.positive_roots):
                by_division = divide_by_linear(
                    full, root_linear_form(a3, root))[1].is_zero()
                assert p.divisible_by(k) is by_division, (p, k)

    @pytest.mark.parametrize("base", [0, 247, 248])
    def test_expand_agrees_with_mpoly_products(self, a3, base):
        # with all six roots of A3 as factors, a unit of degree 249 keeps
        # every exponent within a byte; at degree 250 MPoly products take over
        x1, x2, x3 = (MPoly.var(3, i) for i in (1, 2, 3))
        big = MPoly(3, {(base, 0, 0): 1})
        units = [MPoly.const(3, 0), MPoly.const(3, -2), big * (x1 - x2),
                 big * (x1 * x2 - MPoly.const(3, 3) * x3 * x3 + x2 - MPoly.const(3, 5)),
                 big * (x1 * x1 - x2 * x3 + MPoly.const(3, Fraction(1, 3)))]
        factors = (0, 3, 5, 1, 4, 2)
        for unit in units:
            expected = unit
            for k in factors:
                expected = expected * root_linear_form(a3, a3.positive_roots[k])
            assert FactoredPoly(a3, unit, factors).expand() == expected, unit

    def test_expand_with_cancellation(self, a3):
        # (a2 + a3 - a1)(a1 + a2 + a3): the a1 a2 and a1 a3 terms cancel
        x1, x2, x3 = (MPoly.var(3, i) for i in (1, 2, 3))
        p = FactoredPoly(a3, x2 + x3 - x1, (5,))
        assert p.expand() == (x2 + x3) * (x2 + x3) - x1 * x1

    def test_expand_budget(self, a3):
        p = FactoredPoly(a3, MPoly.const(3, 1), tuple(range(6)))
        assert p.expand(budget=8).term_count() == 8
        with pytest.raises(BudgetExceeded):
            p.expand(budget=7)

    def test_kk_result_expands_once_on_first_read(self, a3, monkeypatch):
        calls = []
        expand = FactoredPoly.expand

        def counted(self, budget=None):
            calls.append(budget)
            return expand(self, budget)
        monkeypatch.setattr(FactoredPoly, "expand", counted)
        engine = NilHeckeEngine(a3, term_budget=1000)
        res = engine.kk_poly(identity(a3), expand=False)
        repr(res)
        assert res == res
        assert calls == []
        d = res.d_w
        assert res.d_w is d
        assert calls == [1000]
        assert d == FactoredPoly(a3, MPoly.const(3, 1), tuple(range(6))).expand()

    def test_kk_result_expansion_respects_budget(self, a3):
        engine = NilHeckeEngine(a3, term_budget=7)
        res = engine.kk_poly(identity(a3), expand=False)
        with pytest.raises(BudgetExceeded):
            res.d_w
        with pytest.raises(BudgetExceeded):
            engine.kk_poly(identity(a3), expand=True)

    def test_kk_result_replace_reads_no_expansion(self, a3, monkeypatch):
        calls = []
        expand = FactoredPoly.expand

        def counted(self, budget=None):
            calls.append(budget)
            return expand(self, budget)
        monkeypatch.setattr(FactoredPoly, "expand", counted)
        res = NilHeckeEngine(a3, term_budget=7).kk_poly(identity(a3), expand=False)
        free = dataclasses.replace(res, term_budget=None)
        assert calls == [] and free == dataclasses.replace(res, term_budget=None)
        assert free.d_w.term_count() == 8 and calls == [None]
        given = dataclasses.replace(res, d_w=free.d_w)
        assert given.d_w is free.d_w and calls == [None]


class TestRecursions:
    def test_precondition_errors(self, a2, a2_engine):
        s1 = simple_reflection(a2, 1)
        with pytest.raises(NilHeckeError):
            a2_engine.recursion_check_b(s1, s1, 2)
        with pytest.raises(NilHeckeError):
            a2_engine.recursion_check_c(s1, s1, 2)

    def test_exhaustive_a2(self, a2, a2_engine):
        elements = list(enumerate_elements(a2, 3))
        for w in elements:
            if w.is_identity():
                continue
            for v in elements:
                for i in (1, 2):
                    if weyl.act_on_simple(w, i) < 0:
                        assert a2_engine.recursion_check_b(w, v, i)
                    if weyl.act_on_simple(weyl.inverse(w), i) < 0:
                        assert a2_engine.recursion_check_c(w, v, i)


class TestDyer:
    def test_example_2_3_denominator(self, a2, a2_engine):
        w = from_word(a2, (1, 2, 1))
        c = ratfn_normalize(a2_engine.c_w(w))
        for k in c.den:
            s = weyl.reflection(a2, a2.positive_roots[k])
            assert a2_engine.bruhat.leq(s, w)
        assert a2_engine.dyer_check(w, identity(a2))

    def test_all_pairs_a3(self, a3, a3_engine):
        elements = list(enumerate_elements(a3, 6))
        for w in elements:
            for v in a3_engine.x_of(w).support():
                assert a3_engine.dyer_check(w, v)

    def test_v_equals_w_denominator_in_inversions(self, a3, a3_engine):
        for w in enumerate_elements(a3, 6):
            c = ratfn_normalize(a3_engine.c_wv(w, w))
            # c_{w,w} is the inverse of the product over the inversion set of w^{-1}
            winv = weyl.inverse(w)
            assert len(c.den) == w.length
            assert all(winv.perm[k] < 0 for k in c.den)


class TestProductFormula:
    def test_identities(self, a1):
        rs = direct_sum(a1, a1)
        assert product_formula_check(rs, identity(a1), identity(a1))

    def test_a1_plus_a1_both_reflections(self, a1):
        rs = direct_sum(a1, a1)
        s = simple_reflection(a1, 1)
        assert product_formula_check(rs, s, s)

    def test_a2_plus_a1_long(self, a2, a1):
        rs = direct_sum(a2, a1)
        w1 = from_word(a2, (1, 2, 1))
        s = simple_reflection(a1, 1)
        assert product_formula_check(rs, w1, s)


class TestRender:
    def test_sorted_by_length_then_word(self, a2, a2_engine):
        text = a2_engine.x_w((1, 2)).render()
        lines = text.splitlines()
        assert lines[0].startswith("id :")
        assert lines[1].startswith("1 :")
        assert lines[2].startswith("2 :")
        assert lines[3].startswith("1 2 :")
