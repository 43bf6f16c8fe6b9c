import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from kkweyl.polyring import (
    MPoly, RatFn, PolyError, root_linear_form, divide_by_linear,
    weyl_act_poly, weyl_act_ratfn,
    ratfn_zero, ratfn_const, ratfn_normalize, ratfn_add,
    ratfn_mul, ratfn_mul_root_inverse, ratfn_neg,
    _cancel, _root_data, P, LIMIT,
)
from kkweyl import polyring, weyl
from kkweyl.cli import build_system
from kkweyl.rootsys import build_e_system
from kkweyl.nilhecke import NilHeckeEngine
from kkweyl.weyl import simple_reflection, multiply, from_word, enumerate_elements


def random_poly(rng, n, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        k = tuple(rng.randrange(maxdeg) for _ in range(n))
        terms[k] = rng.randrange(-5, 6)
    return MPoly(n, terms)


class TestRootLinearForm:
    def test_simple_root_is_variable(self, e6):
        for i in range(6):
            assert root_linear_form(e6, e6.simple_roots[i]) == MPoly.var(6, i + 1)

    def test_a2_sum(self, a2):
        beta = a2.positive_roots[a2.index_of_b[(1, 1)]]
        assert root_linear_form(a2, beta) == MPoly.var(2, 1) + MPoly.var(2, 2)

    def test_e6_highest_root(self, e6):
        beta = e6.positive_roots[e6.index_of_b[(1, 2, 2, 3, 2, 1)]]
        p = root_linear_form(e6, beta)
        for i, c in enumerate((1, 2, 2, 3, 2, 1)):
            k = tuple(1 if j == i else 0 for j in range(6))
            assert p.coefficient(k) == c


class TestPolyArithmetic:
    def test_add_zero(self):
        p = MPoly(2, {(1, 0): 1, (0, 2): -3})
        assert p + MPoly.zero(2) == p

    def test_difference_of_squares(self):
        x1, x2 = MPoly.var(2, 1), MPoly.var(2, 2)
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

    def test_distributivity_random(self):
        rng = random.Random(3)
        for _ in range(100):
            p, q, r = (random_poly(rng, 3) for _ in range(3))
            assert p * (q + r) == p * q + p * r

    def test_single_term_factor(self):
        # termwise oracle for one-term factors: their products, and those of
        # factors with a constant term, equal the product summed term by term
        def termwise(p, q):
            out = MPoly.zero(p.n)
            for ka, ca in p.terms.items():
                for kb, cb in q.terms.items():
                    k = tuple(x + y for x, y in zip(ka, kb))
                    out = out + MPoly(p.n, {k: ca * cb})
            return out

        rng = random.Random(11)
        polys = [random_poly(rng, 3, nterms=6) for _ in range(5)]
        polys.append(MPoly(3, {(1, 0, 0): 2**70, (0, 0, 2): 3, (0, 0, 0): -5}))
        factors = [MPoly.const(3, -1), MPoly.const(3, 1), MPoly.const(3, 7),
                   MPoly.const(3, -3 * 2**64),
                   MPoly(3, {(0, 1, 0): -1}), MPoly(3, {(2, 0, 1): 4}),
                   MPoly(3, {(1, 1, 0): -2}),
                   MPoly(3, {(1, 0, 0): 1, (0, 0, 0): 2}),
                   MPoly(3, {(0, 0, 0): 3, (0, 1, 1): -1})]
        for p in polys:
            for q in factors:
                assert p * q == termwise(p, q)
                assert q * p == termwise(p, q)
        assert (polys[0] * MPoly.const(3, -1)) == -polys[0]


class TestDivideByLinear:
    def test_exact_multiple(self, a2):
        L = root_linear_form(a2, a2.positive_roots[a2.index_of_b[(1, 1)]])
        p = L * (MPoly.var(2, 1) + MPoly.const(2, 3))
        q, r = divide_by_linear(p, L)
        assert r.is_zero()
        assert q * L == p

    def test_nondivisible(self):
        L = MPoly.var(2, 1) + MPoly.var(2, 2)
        q, r = divide_by_linear(MPoly.var(2, 1), L)
        assert not r.is_zero()

    @pytest.mark.parametrize("system", ["e6", "e8"])
    def test_roundtrip_random(self, request, system):
        # 14 E8 roots have leading coefficient 2, so dividing a non-multiple
        # by one of them can end early with (0, p); E6 has no such root
        rs = request.getfixturevalue(system)
        rng = random.Random(5)
        roots = rs.positive_roots
        inexact = early = 0
        for _ in range(100):
            beta = rng.choice(roots)
            L = root_linear_form(rs, beta)
            q = random_poly(rng, rs.rank)
            p = q * L
            q2, r = divide_by_linear(p, L)
            assert r.is_zero()
            assert q2 == q
            assert divide_by_linear(p, L)[1].is_zero()
            # not a multiple: p = q*L + r, and where the leading coefficient
            # c0 of L is +-1, no monomial of r is in the leading variable
            p = p + random_poly(rng, rs.rank)
            q, r = divide_by_linear(p, L)
            assert q * L + r == p
            j, c0 = next((i, c) for i, c in enumerate(beta.b) if c)
            if abs(c0) == 1:
                assert all(k[j] == 0 for k in r.terms)
            else:
                early += q.is_zero() and r == p
            inexact += not r.is_zero()
        assert inexact >= 90
        assert (early > 0) == (system == "e8")

    def test_non_int_coefficients_rejected(self):
        with pytest.raises(PolyError):
            MPoly(2, {(1, 0): Fraction(1, 2)})
        for c in (Fraction(4, 2), 0.5):
            with pytest.raises(PolyError):
                MPoly.const(2, c)

    def test_mixed_variable_counts_rejected(self):
        # a divisor in three variables read against a numerator in two would
        # place a remainder term in a field the numerator does not have
        p = MPoly(2, {(1, 0): 1})
        L = MPoly(3, {(1, 0, 0): 1, (0, 0, 1): 1})
        for args in ((p, L), (L, p)):
            with pytest.raises(PolyError, match="mixed variable counts"):
                divide_by_linear(*args)

    def test_nonlinear_divisor_rejected(self):
        x1 = MPoly.var(2, 1)
        with pytest.raises(PolyError):
            divide_by_linear(x1, x1 * x1)
        with pytest.raises(PolyError):
            divide_by_linear(x1, x1 + MPoly.const(2, 1))
        with pytest.raises(PolyError):
            divide_by_linear(x1, MPoly.zero(2))


class TestWeylAction:
    def test_identity_fixes(self, a2):
        p = MPoly(2, {(2, 1): 3, (0, 1): -1})
        assert weyl_act_poly(weyl.identity(a2), p) == p

    def test_a2_simple_reflection(self, a2):
        s1 = simple_reflection(a2, 1)
        x1, x2 = MPoly.var(2, 1), MPoly.var(2, 2)
        assert weyl_act_poly(s1, x1) == -x1
        assert weyl_act_poly(s1, x2) == x1 + x2

    def test_action_axiom_random(self, a3):
        rng = random.Random(9)
        elements = list(enumerate_elements(a3, 6))
        for _ in range(50):
            v, w = rng.choice(elements), rng.choice(elements)
            p = random_poly(rng, 3)
            assert weyl_act_poly(multiply(v, w), p) == \
                weyl_act_poly(v, weyl_act_poly(w, p))

    def test_degree_preserved_and_invertible(self, a3):
        rng = random.Random(13)
        w = from_word(a3, (1, 2, 3, 1))
        for _ in range(20):
            p = random_poly(rng, 3)
            q = weyl_act_poly(w, p)
            assert q.degree == p.degree
            assert weyl_act_poly(weyl.inverse(w), q) == p


def substituted(w, p):
    """Reference Weyl action: a_i -> w(alpha_i), each image a signed linear
    form, with every monomial multiplied out."""
    rs = w.rs
    forms = []
    for k in rs.simple_index:
        image = w.perm[k]
        form = root_linear_form(rs, rs.positive_roots[abs(image) - 1])
        forms.append(form if image > 0 else -form)
    out = MPoly.zero(p.n)
    for e, c in p.terms.items():
        mono = MPoly.const(p.n, c)
        for form, d in zip(forms, e):
            for _ in range(d):
                mono = mono * form
        out = out + mono
    return out


def product_of_roots(rs, den):
    out = MPoly.const(rs.rank, 1)
    for k in den:
        out = out * root_linear_form(rs, rs.positive_roots[k])
    return out


def poly_up_to_degree(rng, n, degree=4, nterms=6):
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(rng.randrange(degree + 1)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = rng.choice([rng.randrange(-9, 10), rng.randrange(-999, 1000)])
    return MPoly(n, terms)


class TestWeylActionOracle:
    """The Weyl action against plain substitution, over E6 elements that send
    some simple and some denominator roots to negative roots."""

    @pytest.fixture(scope="class")
    def elements(self, e6):
        rng = random.Random(20)
        out = []
        while len(out) < 16:
            w = from_word(e6, tuple(rng.randrange(1, 7) for _ in range(rng.randrange(3, 37))))
            if sum(1 for k in e6.simple_index if w.perm[k] < 0) >= 2:
                out.append(w)
        return out

    def test_poly_matches_substitution(self, e6, elements):
        rng = random.Random(21)
        degrees = set()
        for w in elements:
            for _ in range(5):
                p = poly_up_to_degree(rng, 6)
                degrees.add(p.degree)
                assert weyl_act_poly(w, p) == substituted(w, p)
        assert 4 in degrees

    def test_ratfn_matches_substitution(self, e6, elements):
        rng = random.Random(22)
        flipped = 0
        for w in elements:
            for _ in range(5):
                den = tuple(sorted(rng.randrange(36) for _ in range(rng.randrange(5))))
                f = RatFn(e6, poly_up_to_degree(rng, 6), den)
                out = weyl_act_ratfn(w, f)
                # w(num / den) = w(num) / w(den), each root of den sent to a
                # root up to sign: cross-multiplied, with every factor expanded
                assert len(out.den) == len(den) and out.den == tuple(sorted(out.den))
                assert (out.num * substituted(w, product_of_roots(e6, den))
                        == substituted(w, f.num) * product_of_roots(e6, out.den))
                flipped += sum(1 for k in den if w.perm[k] < 0) % 2
        assert flipped > 0


class TestRatFn:
    def test_add_zero(self, a2):
        f = RatFn(a2, MPoly.var(2, 1), (1,))
        assert ratfn_add(f, ratfn_zero(a2)) == f

    def test_cancellation(self, a2):
        x1 = MPoly.var(2, 1)
        x2 = MPoly.var(2, 2)
        idx1 = a2.index_of_b[(1, 0)]
        f = ratfn_normalize(RatFn(a2, x1 * x2, (idx1,)))
        assert f == RatFn(a2, x2, ())
        assert f.den == ()

    def test_unit_fraction_sum(self, a2):
        idx1 = a2.index_of_b[(1, 0)]
        idx2 = a2.index_of_b[(0, 1)]
        f = RatFn(a2, MPoly.const(2, 1), (idx1,))
        g = RatFn(a2, MPoly.const(2, 1), (idx2,))
        total = ratfn_add(f, g)
        expect = RatFn(a2, MPoly.var(2, 1) + MPoly.var(2, 2),
                       tuple(sorted((idx1, idx2))))
        assert ratfn_normalize(total) == ratfn_normalize(expect)

    def test_normalization_confluent(self, a3):
        rng = random.Random(17)
        nroots = len(a3.positive_roots)
        for _ in range(50):
            den = tuple(sorted(rng.randrange(nroots) for _ in range(3)))
            num = MPoly.const(3, rng.randrange(1, 5))
            for k in rng.sample(range(nroots), 2):
                num = num * root_linear_form(a3, a3.positive_roots[k])
            f = RatFn(a3, num, den)
            forms = [ratfn_normalize(f)]
            # shuffle the denominator and re-normalize; same canonical result
            for _ in range(3):
                d = list(den)
                rng.shuffle(d)
                forms.append(ratfn_normalize(RatFn(a3, num, tuple(sorted(d)))))
            assert all(g == forms[0] for g in forms)
            # no denominator root divides the numerator after normalization
            g = forms[0]
            for k in set(g.den):
                assert not divide_by_linear(
                    g.num, root_linear_form(a3, a3.positive_roots[k]))[1].is_zero()

    def test_mul_and_root_inverse(self, a2):
        idx1 = a2.index_of_b[(1, 0)]
        f = ratfn_const(a2, 2)
        g = ratfn_mul_root_inverse(f, -(idx1 + 1))
        assert g.den == (idx1,)
        assert g.num == MPoly.const(2, -2)
        assert ratfn_mul(g, RatFn(a2, MPoly.var(2, 1), ())) == \
            ratfn_const(a2, -2)

    def test_weyl_act_ratfn_homomorphism(self, a2):
        s1 = simple_reflection(a2, 1)
        idx1 = a2.index_of_b[(1, 0)]
        f = RatFn(a2, MPoly.var(2, 2), (idx1,))
        acted = weyl_act_ratfn(s1, f)
        # s1 maps alpha_1 to its negative: sign moves into the numerator
        expect = ratfn_normalize(RatFn(a2, -(MPoly.var(2, 1) + MPoly.var(2, 2)),
                                       (idx1,)))
        assert ratfn_normalize(acted) == expect
        # round trip: acting again with s1 restores f
        assert ratfn_normalize(weyl_act_ratfn(s1, acted)) == ratfn_normalize(f)


def roots_product(rs, indices):
    """The product of the positive roots with the given indices."""
    out = MPoly.const(rs.rank, 1)
    for k in indices:
        out = out * root_linear_form(rs, rs.positive_roots[k])
    return out


def in_lowest_terms(f):
    """No denominator root divides the numerator, by trial division alone."""
    return not any(
        divide_by_linear(f.num, root_linear_form(f.rs, f.rs.positive_roots[k]))[1].is_zero()
        for k in set(f.den))


def random_lowest(rng, rs):
    """A nonzero RatFn in lowest terms whose numerator has some root factors."""
    nroots = len(rs.positive_roots)
    while True:
        num = random_poly(rng, rs.rank)
        for k in rng.sample(range(nroots), rng.randrange(3)):
            num = num * root_linear_form(rs, rs.positive_roots[k])
        den = tuple(sorted(rng.randrange(nroots) for _ in range(rng.randrange(4))))
        f = RatFn(rs, num, den)
        if not num.is_zero() and in_lowest_terms(f):
            return f


class TestLowestTerms:
    """Every RatFn the operations return is in lowest terms; checked against
    trial division and against normalising the unreduced result."""

    @pytest.mark.parametrize("system,max_len", [("a3", 6), ("e6", 4)])
    def test_fold_coefficients(self, request, system, max_len):
        rs = request.getfixturevalue(system)
        engine = NilHeckeEngine(rs)
        count = 0
        for w in enumerate_elements(rs, max_len):
            for _, c in engine.x_of(w).coeffs:
                assert in_lowest_terms(c)
                assert c == ratfn_normalize(c)
                count += 1
        assert count > 100

    def test_add_and_mul_match_unreduced(self, a3):
        rng = random.Random(29)
        pairs = []
        for _ in range(60):
            f = random_lowest(rng, a3)
            pairs.append((f, random_lowest(rng, a3)))
            pairs.append((f, ratfn_neg(f)))          # sums to zero
            if f.den:
                # f + g = r / (f.den less one alpha): alpha is shared and cancels
                alpha = root_linear_form(a3, a3.positive_roots[f.den[0]])
                g = RatFn(a3, alpha * random_poly(rng, 3) - f.num, f.den)
                if in_lowest_terms(g):
                    pairs.append((f, g))
        zeros = add_cancels = mul_cancels = 0
        for f, g in pairs:
            den = tuple(sorted(f.den + g.den))
            total = ratfn_add(f, g)
            assert total == ratfn_normalize(RatFn(
                a3, f.num * roots_product(a3, g.den) + g.num * roots_product(a3, f.den),
                den))
            assert in_lowest_terms(total)
            if total.is_zero():
                zeros += 1
            else:
                add_cancels += len(total.den) < len(set(f.den) | set(g.den))
            product = ratfn_mul(f, g)
            assert product == ratfn_normalize(RatFn(a3, f.num * g.num, den))
            assert in_lowest_terms(product)
            mul_cancels += len(product.den) < len(den)
            assert ratfn_mul(f, ratfn_zero(a3)) == ratfn_zero(a3)
        assert zeros >= 60 and add_cancels >= 10 and mul_cancels >= 10

    def test_weyl_action_keeps_lowest_terms(self, a3):
        rng = random.Random(31)
        inputs = [random_lowest(rng, a3) for _ in range(10)]
        elements = list(enumerate_elements(a3, 6))
        assert len(elements) == 24
        for w in elements:
            for f in inputs:
                acted = weyl_act_ratfn(w, f)
                assert in_lowest_terms(acted)
                assert acted == ratfn_normalize(acted)


def cancel_by_trial_division(rs, num, den, candidates):
    """The reference for _cancel: an exact trial division by every candidate
    root, as often as it divides."""
    den = list(den)
    for k in candidates:
        form = root_linear_form(rs, rs.positive_roots[k])
        while k in den:
            q, r = divide_by_linear(num, form)
            if not r.is_zero():
                break
            num = q
            den.remove(k)
    return RatFn(rs, num, tuple(sorted(den)))


@pytest.fixture
def evaluations(monkeypatch):
    """The numerators _cancel evaluates mod P, in call order."""
    seen = []
    nonzero = polyring._nonzero_mod_p

    def recorded(p, values):
        seen.append(p)
        return nonzero(p, values)

    monkeypatch.setattr(polyring, "_nonzero_mod_p", recorded)
    return seen


class TestCancelPreTest:
    """_cancel settles a numerator of degree at most 1 from its keys, and
    skips a trial division where one of higher degree is nonzero mod P at a
    point on the root's hyperplane; its results are those of trial division."""

    def test_prime(self):
        assert 6 < P < 1 << 30  # above every root coefficient, one 30-bit digit
        assert all(P % d for d in range(2, 1 << 15))  # 2^15 squared exceeds P

    @pytest.mark.parametrize("system", ["a3", "e6", "e7", "e8"])
    def test_points_lie_on_their_hyperplanes(self, system):
        rs = build_system(system.upper())  # fresh: every root's data is made here
        for k, beta in enumerate(rs.positive_roots):
            form, values = _root_data(rs, k)
            assert form == root_linear_form(rs, beta)
            assert sum(b * x for b, x in zip(beta.b, values.point, strict=True)) % P == 0
            assert not values  # filled only by evaluations
            assert _root_data(rs, k)[0] is form

    def test_root_cancels_from_its_multiple(self, monkeypatch):
        e6 = build_e_system("E6")
        evaluated = {}
        nonzero = polyring._nonzero_mod_p

        def recorded(p, values):
            evaluated.setdefault(id(values), set()).update(p.packed)
            return nonzero(p, values)

        monkeypatch.setattr(polyring, "_nonzero_mod_p", recorded)
        rng = random.Random(37)
        for k, beta in enumerate(e6.positive_roots):
            form = root_linear_form(e6, beta)
            q = random_poly(rng, 6, nterms=5, maxdeg=4)
            if q.is_zero() or divide_by_linear(q, form)[1].is_zero():
                continue
            assert _cancel(e6, form * q, (k,), (k,)) == RatFn(e6, q, ())
            assert _cancel(e6, form * q, (k, k), (k,)) == RatFn(e6, q, (k,))
            # the memo holds the packed monomials evaluated and their parents,
            # each at its value mod P
            values = _root_data(e6, k)[1]
            assert set(values) >= evaluated[id(values)] >= set((form * q).packed)
            for m, v in values.items():
                e = [m >> 16 * i & 0xFFFF for i in range(6)]
                assert v == math.prod(pow(x, d, P) for x, d in zip(values.point, e)) % P

    def test_memo_at_extreme_exponents(self, e8):
        # a miss is filled from the monomial without its lowest variable's
        # whole power, so a chain of misses is at most 8 deep at any exponent
        rng = random.Random(43)
        for k in rng.sample(range(len(e8.positive_roots)), 6):
            point = _root_data(e8, k)[1].point
            values = polyring._MonomialValues(point)
            for _ in range(5):
                e = [rng.choice([0, 1, rng.randrange(LIMIT)]) for _ in range(8)]
                e[rng.randrange(8)] = LIMIT - 1
                (key,) = MPoly(8, {tuple(e): 1}).packed
                assert values[key] == math.prod(
                    pow(x, d, P) for x, d in zip(point, e)) % P
            assert len(values) <= 5 * 8 + 1
            for m, v in values.items():
                e = [m >> 16 * i & 0xFFFF for i in range(8)]
                assert v == math.prod(pow(x, d, P) for x, d in zip(point, e)) % P

    @pytest.mark.parametrize("system", ["a3", "e6", "e8"])
    def test_agrees_with_trial_division(self, request, system):
        rs = request.getfixturevalue(system)
        rng = random.Random(41)
        nroots = len(rs.positive_roots)
        cancels = kept = 0
        for trial in range(300):
            den = [rng.randrange(nroots) for _ in range(rng.randrange(1, 5))]
            num = random_poly(rng, rs.rank)
            if trial % 7 == 0:
                num = MPoly.const(rs.rank, rng.randrange(2, 5)) * num
            for k in rng.sample(den, rng.randrange(len(den) + 1)):
                num = num * root_linear_form(rs, rs.positive_roots[k])
            if num.is_zero():
                continue
            candidates = set(den)
            got = _cancel(rs, num, tuple(den), candidates)
            assert got == cancel_by_trial_division(rs, num, den, candidates)
            cancels += len(got.den) < len(den)
            kept += bool(got.den)
        assert cancels >= 50 and kept >= 50


    @pytest.mark.parametrize("system", ["a3", "e6", "e7", "e8"])
    def test_constant_has_no_root_factor(self, request, system, evaluations):
        rs = request.getfixturevalue(system)
        nroots = len(rs.positive_roots)
        rng = random.Random(47)
        for c in (1, -1, 2, -6, 720):
            num = MPoly.const(rs.rank, c)
            den = tuple(sorted(rng.sample(range(nroots), 3)))
            for candidates in (set(den), den[:1], range(nroots)):
                assert _cancel(rs, num, den, candidates) == RatFn(rs, num, den)
                assert _cancel(rs, num, den, candidates) == cancel_by_trial_division(
                    rs, num, den, candidates)
        assert not evaluations

    @pytest.mark.parametrize("system", ["a3", "e6", "e7", "e8"])
    def test_multiple_of_a_root_cancels_that_root_alone(self, request, system, evaluations):
        # E8's roots have coefficients up to 6, so a multiple's gcd is no coefficient
        rs = request.getfixturevalue(system)
        nroots = len(rs.positive_roots)
        for k, beta in enumerate(rs.positive_roots):
            form = root_linear_form(rs, beta)
            other = (k + 1) % nroots
            for c in (1, -1, 2, -2, 6, -6):
                num = MPoly.const(rs.rank, c) * form
                assert divide_by_linear(num, form) == (MPoly.const(rs.rank, c), MPoly.zero(rs.rank))
                assert _cancel(rs, num, (k,), (k,)) == RatFn(rs, MPoly.const(rs.rank, c), ())
                for den, candidates in (((k, k), (k,)), ((k, other), {k, other}),
                                        ((other,), (other,)), ((k,), ())):
                    assert _cancel(rs, num, den, candidates) == cancel_by_trial_division(
                        rs, num, den, candidates)
        assert not evaluations

    @pytest.mark.parametrize("system", ["a3", "e6", "e8"])
    def test_linear_form_off_the_roots_cancels_nothing(self, request, system, evaluations):
        rs = request.getfixturevalue(system)
        a1, a2 = MPoly.var(rs.rank, 1), MPoly.var(rs.rank, 2)
        one = MPoly.const(rs.rank, 1)
        two = MPoly.const(rs.rank, 2)
        every = tuple(range(len(rs.positive_roots)))
        for num in (a1 - a2, a1 + two * a2, two * a1 - two * a2, a1 + one, one - a2):
            assert _cancel(rs, num, every, every) == RatFn(rs, num, every)
            for k in every:
                form = root_linear_form(rs, rs.positive_roots[k])
                assert not divide_by_linear(num, form)[1].is_zero()
        assert not evaluations

    def test_quotient_of_degree_one_is_not_evaluated(self, e6, evaluations):
        # (a1 + a3) * a2 * 3 over both roots: the first division leaves a
        # linear form, which the keys settle
        k1, k2 = e6.index_of_b[(1, 0, 1, 0, 0, 0)], e6.index_of_b[(0, 1, 0, 0, 0, 0)]
        form1 = root_linear_form(e6, e6.positive_roots[k1])
        form2 = root_linear_form(e6, e6.positive_roots[k2])
        num = MPoly.const(6, 3) * form1 * form2
        for order in ((k1, k2), (k2, k1)):
            assert _cancel(e6, num, (k1, k2), order) == RatFn(e6, MPoly.const(6, 3), ())
        assert len(evaluations) == 2 and all(p.degree == 2 for p in evaluations)


class TestMerge:
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_counter_arithmetic(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            a = sorted(rng.randrange(8) for _ in range(rng.randrange(7)))
            b = sorted(rng.randrange(8) for _ in range(rng.randrange(7)))
            only_a, only_b, both, union = polyring._merge(tuple(a), tuple(b))
            ca, cb = Counter(a), Counter(b)
            assert only_a == sorted((ca - cb).elements())
            assert only_b == sorted((cb - ca).elements())
            assert both == sorted((ca & cb).elements())
            assert union == tuple(sorted((ca | cb).elements()))


class TestPackedMonomials:
    """Each monomial is one int with a 16-bit field per variable; every
    exponent is below LIMIT = 2^15."""

    @pytest.mark.parametrize("key", [(1,), (1, 2, 3), (-1, 0), (0, LIMIT), (2**16, 0)])
    def test_constructor_rejects_keys_it_cannot_pack(self, key):
        with pytest.raises(PolyError):
            MPoly(2, {key: 1})
        with pytest.raises(PolyError):
            MPoly(2, {key: 0})

    def test_largest_exponent_packs(self):
        p = MPoly(2, {(LIMIT - 1, 0): 3, (0, LIMIT - 1): -1})
        assert p.terms == {(LIMIT - 1, 0): 3, (0, LIMIT - 1): -1}
        assert p.degree == LIMIT - 1

    @pytest.mark.parametrize("n", [1, 6, 8, 12])
    def test_round_trip(self, n):
        rng = random.Random(n)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randrange(1, 12)):
                e = tuple(rng.choice([0, 1, rng.randrange(LIMIT), LIMIT - 1])
                          for _ in range(n))
                terms[e] = rng.choice([rng.randrange(1, 10**30), -7, -3 * 2**64])
            p = MPoly(n, terms)
            assert p.terms == terms
            assert all(p.coefficient(e) == c for e, c in terms.items())
            assert p.term_count() == len(terms)

    def test_product_reaching_the_limit_raises(self):
        x1, x2 = MPoly.var(2, 1), MPoly.var(2, 2)
        half = MPoly(2, {(LIMIT // 2, 0): 1})
        # one-term operand and merged products
        with pytest.raises(PolyError):
            half * half
        with pytest.raises(PolyError):
            (half + x2) * (half + x1)
        with pytest.raises(PolyError):
            MPoly(2, {(LIMIT - 1, 0): 1}) * (x1 + x2)
        top = MPoly(2, {(LIMIT // 2 - 1, 0): 1}) * (half + x2)
        assert top.terms == {(LIMIT - 1, 0): 1, (LIMIT // 2 - 1, 1): 1}

    def test_division_reaching_the_limit_raises(self):
        # a1 a2^(2^15 - 1) = a2^(2^15 - 1) (a1 + a2) - a2^(2^15)
        p = MPoly(2, {(1, LIMIT - 1): 1})
        with pytest.raises(PolyError):
            divide_by_linear(p, MPoly.var(2, 1) + MPoly.var(2, 2))
        q, r = divide_by_linear(MPoly(2, {(1, LIMIT - 2): 1}),
                                MPoly.var(2, 1) + MPoly.var(2, 2))
        assert q.terms == {(0, LIMIT - 2): 1} and r.terms == {(0, LIMIT - 1): -1}

    @pytest.mark.parametrize("key", [(1,), (1, 0, 0), (-1, 0), (LIMIT, 0), (0, 2**16)])
    def test_coefficient_of_a_monomial_it_cannot_pack_is_zero(self, key):
        p = MPoly(2, {(1, 0): 5, (0, 0): 2})
        assert p.coefficient(key) == 0
        assert p.coefficient((1, 0)) == 5

    def test_terms_is_a_new_dict_on_each_read(self):
        p = MPoly(3, {(1, 0, 2): 4})
        view = p.terms
        assert view is not p.terms
        view[(0, 0, 0)] = 1
        assert p.terms == {(1, 0, 2): 4}
        assert MPoly.__slots__ == ("n", "packed")


class TestEmbedded:
    """MPoly.embedded(n, offset) renames a_i to a_{offset+i} among n variables."""

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 3), (3, 8), (6, 12)])
    def test_matches_the_tuple_keyed_constructor(self, m, n):
        rng = random.Random(m * 100 + n)
        for offset in range(n - m + 1):   # offset 0 through the last variable
            for _ in range(10):
                p = random_poly(rng, m, nterms=rng.randrange(0, 8), maxdeg=LIMIT)
                expected = MPoly(n, {(0,) * offset + e + (0,) * (n - m - offset): c
                                     for e, c in p.terms.items()})
                assert p.embedded(n, offset) == expected

    @pytest.mark.parametrize("n, offset", [(3, 2), (3, -1), (1, 0), (4, 3)])
    def test_offset_that_does_not_fit_rejected(self, n, offset):
        with pytest.raises(PolyError):
            MPoly(2, {(1, 1): 1}).embedded(n, offset)


def tuple_key_division(p, L):
    """Division by a linear form by top-down elimination on exponent tuples,
    independent of the packed layout."""
    terms = L.terms
    j = min(k.index(1) for k in terms)
    c0 = terms[tuple(1 if i == j else 0 for i in range(L.n))]
    rest = [(k.index(1), c) for k, c in terms.items() if k.index(1) != j]
    buckets = {}
    for k, c in p.terms.items():
        buckets.setdefault(k[j], {})[k] = c
    q = {}
    for d in range(max(buckets, default=0), 0, -1):
        below = buckets.setdefault(d - 1, {})
        for k, c in buckets.get(d, {}).items():
            t = Fraction(c) / c0
            t = int(t) if t.denominator == 1 else t
            kq = k[:j] + (d - 1,) + k[j + 1:]
            q[kq] = t
            for i, ci in rest:
                k2 = list(kq)
                k2[i] += 1
                k2 = tuple(k2)
                below[k2] = below.get(k2, 0) - t * ci
    return ({k: c for k, c in q.items() if c},
            {k: c for k, c in buckets.get(0, {}).items() if c})


class TestDivisionOracle:
    """divide_by_linear against tuple_key_division, which divides over Q: the
    same (q, r) wherever the oracle's quotient is integral, and the same
    verdict on divisibility everywhere."""

    @pytest.mark.parametrize("system", ["e6", "e8"])
    def test_matches_tuple_key_division(self, request, system):
        rs = request.getfixturevalue(system)
        rng = random.Random(43)
        roots = rs.positive_roots
        exact = rational = 0
        for trial in range(120):
            L = root_linear_form(rs, rng.choice(roots))
            p = random_poly(rng, rs.rank, nterms=6, maxdeg=4)
            for _ in range(rng.randrange(4)):
                p = p * root_linear_form(rs, rng.choice(roots))
            if trial % 3 == 0:
                p = p * L
            if trial % 5 == 0:
                p = MPoly.const(rs.rank, rng.randrange(2, 6)) * p
            if trial % 4 == 0:
                p = p + random_poly(rng, rs.rank)
            q, r = divide_by_linear(p, L)
            oracle_q, oracle_r = tuple_key_division(p, L)
            assert r.is_zero() == (not oracle_r)
            if all(type(c) is int for c in oracle_q.values()):
                assert (q.terms, r.terms) == (oracle_q, oracle_r)
            else:
                rational += 1
            exact += r.is_zero()
        assert 20 <= exact <= 100
        assert (rational > 0) == (system == "e8")

    @pytest.mark.parametrize("system", ["e7", "e8"])
    def test_leading_coefficient_two(self, request, system):
        # the roots whose leading coefficient is 2: multiples divide exactly,
        # also with content 2, and a non-multiple may end the division early
        rs = request.getfixturevalue(system)
        n = rs.rank
        rng = random.Random(47)
        twos = [beta for beta in rs.positive_roots if next(c for c in beta.b if c) == 2]
        assert len(twos) == {"e7": 1, "e8": 14}[system]
        early = 0
        for beta in twos:
            L = root_linear_form(rs, beta)
            for _ in range(10):
                q = random_poly(rng, n)
                for c in (1, 2):
                    cq = MPoly.const(n, c) * q
                    assert divide_by_linear(cq * L, L) == (cq, MPoly.zero(n))
                    assert not tuple_key_division(cq * L, L)[1]
                # one monomial is no multiple of a form with two terms or more
                e = tuple(rng.randrange(3) for _ in range(n))
                p = q * L + MPoly(n, {e: rng.choice([-3, -1, 1, 3])})
                q2, r = divide_by_linear(p, L)
                assert not r.is_zero() and q2 * L + r == p
                assert tuple_key_division(p, L)[1]
                early += q2.is_zero() and r == p
        assert early > 0
