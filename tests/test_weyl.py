import inspect
import itertools
import random

import pytest

from kkweyl.rootsys import (
    Root, RootSystemError, SimpleOrder, build_e_system, lex_key, named_order,
)
from kkweyl import weyl
from kkweyl.nilhecke import NilHeckeEngine
from kkweyl.weyl import (
    WeylElt, WeylError, identity, simple_reflection, multiply, inverse,
    from_word, reduced_word, reflection, BruhatOrder, bruhat_interval_subword,
    parabolic_factorize, support, enumerate_involutions, enumerate_elements,
    multiply_simple, act_on_simple,
)


def left_descent_word(w):
    """Reference canonical word: strip the smallest left descent s_i, the
    smallest i with -alpha_i among the images w(beta), by generic products."""
    word = []
    while not w.is_identity():
        i = next(i for i, k in enumerate(w.rs.simple_index, 1)
                 if -(k + 1) in w.perm)
        word.append(i)
        w = multiply(simple_reflection(w.rs, i), w)
    return tuple(word)


def compose(a, b):
    """Reference product a*b, a(b(.)), entry by entry from the two perms."""
    return tuple(a.perm[x - 1] if x > 0 else -a.perm[-x - 1] for x in b.perm)


def recursive_leq(rs):
    """Reference Bruhat order: the lifting recursion on the first right
    descent of w, memoised on (v.perm, w.perm)."""
    memo = {}

    def leq(pv, lv, pw, lw):
        if lv == 0:
            return True
        if lv >= lw:
            return lv == lw and pv == pw
        key = (pv, pw)
        if key not in memo:
            j, get = next((j, get) for j, get in rs.right_steps if pw[j] < 0)
            ws = get(pw)
            ws = ws[:j] + (-ws[j],) + ws[j + 1:]
            if pv[j] < 0:
                vs = get(pv)
                vs = vs[:j] + (-vs[j],) + vs[j + 1:]
                memo[key] = leq(vs, lv - 1, ws, lw - 1)
            else:
                memo[key] = leq(pv, lv, ws, lw - 1)
        return memo[key]

    return lambda v, w: leq(v.perm, v.length, w.perm, w.length)


def random_element(rs, rng, n):
    """An element of length n, by n random right ascents from the identity."""
    w = identity(rs)
    while w.length < n:
        i = rng.randrange(1, rs.rank + 1)
        if act_on_simple(w, i) > 0:
            w = multiply_simple(w, i)
    return w


def subword_product(rs, word, rng):
    """The product of a random subword of word, by generic products."""
    v = identity(rs)
    for i in word:
        if rng.random() < 0.5:
            v = multiply(v, simple_reflection(rs, i))
    return v


def random_pairs(rs, rng, count, lo, hi):
    """count pairs (v, w) with l(w) in [lo, hi]; v is a random subword product
    of w for half of them, and a random element no longer than w otherwise."""
    for n in range(count):
        w = random_element(rs, rng, rng.randint(lo, hi))
        if n % 2:
            yield subword_product(rs, reduced_word(w), rng), w
        else:
            yield random_element(rs, rng, rng.randint(0, w.length)), w


def filter_involutions(rs, max_len):
    """Reference involution list: the group's BFS filtered by w*w = e."""
    return [w for w in enumerate_elements(rs, max_len)
            if multiply(w, w).is_identity()]


def dot_product_reflection(rs, beta):
    """Reference s_beta as a perm: C beta once (C the Cartan matrix), then
    each positive root's image r - <r, beta> beta from one dot product."""
    c_beta = [sum(a * b for a, b in zip(row, beta.b)) for row in rs.cartan]
    perm = []
    for j, r in enumerate(rs.positive_roots):
        c = sum(a * b for a, b in zip(r.b, c_beta))
        perm.append(rs.signed_index(tuple(g - c * bb for g, bb in zip(r.b, beta.b)))
                    if c else j + 1)
    return tuple(perm)


def listed_support(w, order):
    """Reference support: list every negated root, take the lex-maximal one
    and peel off its dot-product reflection, until the identity."""
    rs, out = w.rs, []
    while not w.is_identity():
        negated = [rs.positive_roots[k] for k, x in enumerate(w.perm) if x == -(k + 1)]
        beta = max(negated, key=lambda r: lex_key(order, r))
        out.append(beta)
        w = WeylElt(rs, compose(WeylElt(rs, dot_product_reflection(rs, beta)), w))
    return out


class TestElement:
    def test_slotted(self, e6):
        w = from_word(e6, (1, 3, 4))
        assert not hasattr(w, "__dict__")
        assert type(WeylElt.__dict__["length"]) is property
        assert repr(w) == f"WeylElt(perm={w.perm!r})"
        fresh = WeylElt(e6, w.perm)
        assert fresh == w and hash(fresh) == hash(w)
        assert fresh != w.perm

    def test_hash_is_that_of_the_perm(self, e6):
        # the hash is kept in a slot once taken; it stays hash(perm)
        elements = list(enumerate_elements(e6, 4)) + list(enumerate_involutions(e6, 6))
        rng = random.Random(26)
        elements += [multiply(rng.choice(elements), rng.choice(elements))
                     for _ in range(50)]
        elements.append(WeylElt(e6, identity(e6).perm))
        for w in elements:
            assert hash(w) == hash(w.perm) == hash(w)
            built = from_word(e6, reduced_word(w))
            assert built is not w and built == w and hash(built) == hash(w)

    @pytest.mark.parametrize("system, max_len", [("a3", 6), ("e6", 6)])
    def test_is_involution_is_w_squared(self, request, system, max_len):
        rs = request.getfixturevalue(system)
        flags = []
        for w in enumerate_elements(rs, max_len):
            fresh = WeylElt(rs, w.perm)
            flags.append(fresh.is_involution())
            assert flags[-1] == multiply(w, w).is_identity()
        assert any(flags) and not all(flags)

    def test_multiply_is_composition(self, a1, a3, e6):
        s = simple_reflection(a1, 1)
        assert multiply(s, s).perm == compose(s, s) == (1,)
        assert type(multiply(s, s).perm) is tuple
        elements = list(enumerate_elements(a3, 6))
        for a in elements:
            for b in elements:
                assert multiply(a, b).perm == compose(a, b)
        elements = list(enumerate_elements(e6, 8))
        rng = random.Random(14)
        lefts = rng.sample(elements, 100)
        for a in lefts + lefts:   # the second pass reads each kept table
            b = rng.choice(elements)
            assert multiply(a, b).perm == compose(a, b)


class TestGroupStructure:
    def test_simple_reflection_involutive(self, e6):
        for i in range(1, 7):
            s = simple_reflection(e6, i)
            assert multiply(s, s).is_identity()

    def test_e6_s1_s2_commute(self, e6):
        # Cartan entry (1,2) is zero, so the braid relation degenerates
        assert e6.cartan[0][1] == 0
        s1, s2 = simple_reflection(e6, 1), simple_reflection(e6, 2)
        assert multiply(s1, s2) == multiply(s2, s1)

    def test_inverse(self, a3):
        for w in enumerate_elements(a3, 6):
            assert multiply(w, inverse(w)).is_identity()

    @pytest.mark.parametrize("system, max_len", [("a1", 1), ("a3", 6), ("e6", 4)])
    def test_multiply_simple_is_multiply(self, request, system, max_len):
        # A1 has one positive root, where a one-index getter returns no tuple
        rs = request.getfixturevalue(system)
        for w in enumerate_elements(rs, max_len):
            for i in range(1, rs.rank + 1):
                step = weyl.multiply_simple(w, i)
                expected = multiply(w, simple_reflection(rs, i))
                assert step.perm == expected.perm
                assert step.length == expected.length

    def test_mixed_systems_rejected(self, a2, a3):
        with pytest.raises(WeylError):
            multiply(identity(a2), identity(a3))


class TestRightStep:
    """multiply_simple is the one way library code forms w s_i."""

    @pytest.mark.parametrize("system", ["a3", "e6"])
    def test_letter_out_of_range_rejected(self, request, system):
        rs = request.getfixturevalue(system)
        w = from_word(rs, (1, 2))
        for i in (0, -1, rs.rank + 1):
            with pytest.raises(WeylError):
                weyl.multiply_simple(w, i)
            with pytest.raises(WeylError):
                from_word(rs, (1, i))
            with pytest.raises(WeylError):
                NilHeckeEngine(rs).x_w((1, i))

    def test_builds_no_generic_product(self, e6, monkeypatch):
        def refuse(a, b):
            raise AssertionError("multiply called for a right step")

        monkeypatch.setattr(weyl, "multiply", refuse)
        word = (1, 3, 4, 2, 5, 4, 3, 1)
        w = from_word(e6, word)
        assert w.length == len(word)
        elements = list(enumerate_elements(e6, 4))
        assert len(elements) == 1 + 6 + 20 + 50 + 105
        for v in elements:
            fresh = WeylElt(e6, v.perm)
            assert len(reduced_word(fresh)) == v.length
            u, p = parabolic_factorize(fresh, {2, 3, 4, 5, 6})
            assert u.length + p.length == v.length
        assert len(NilHeckeEngine(e6).x_w(word).support()) > 1


class TestLengthAndWords:
    def test_identity_length(self, e6):
        assert identity(e6).length == 0

    def test_simple_length(self, e6):
        for i in range(1, 7):
            assert simple_reflection(e6, i).length == 1

    def test_is_involution_decided_once(self, e6):
        """The answer is kept in the element's slot: the second call reads
        no entry of the permutation."""
        reads = []

        class CountedPerm(tuple):
            def __iter__(self):
                reads.append(1)
                return super().__iter__()

            def __getitem__(self, k):
                reads.append(1)
                return super().__getitem__(k)

        for word, expected in (((1, 3, 1), True), ((1, 3), False)):
            w = from_word(e6, word)
            object.__setattr__(w, "perm", CountedPerm(w.perm))
            reads.clear()
            assert w.is_involution() is expected and reads
            reads.clear()
            assert w.is_involution() is expected and not reads

    def test_e6_eleven_letter_word(self, e6):
        w = from_word(e6, (2, 4, 3, 5, 6, 4, 5, 2, 4, 3, 1))
        assert w.length == 11

    @pytest.mark.parametrize("system, max_len", [("e6", 8), ("e7", 5), ("e8", 4)])
    def test_reduced_word_strips_smallest_left_descent(self, request, system,
                                                       max_len):
        rs = request.getfixturevalue(system)
        for w in enumerate_elements(rs, max_len):
            assert reduced_word(WeylElt(rs, w.perm)) == left_descent_word(w)

    def test_reduced_word_roundtrip(self, e6):
        for w in enumerate_elements(e6, 4):
            word = reduced_word(w)
            assert len(word) == w.length
            assert from_word(e6, word) == w

    def test_cached_length_counts_negative_entries(self, e6):
        def count(w):
            return sum(1 for x in w.perm if x < 0)
        elements = list(enumerate_elements(e6, 3))
        for w in elements:
            assert w.length == count(w)
            assert w.length == count(w)   # second read, from the cache
            winv = inverse(w)
            assert winv.length == count(winv) == w.length
            for v in elements[:20]:
                vw = multiply(v, w)
                assert vw.length == count(vw)

    def test_subadditivity_exhaustive_a3(self, a3):
        elements = list(enumerate_elements(a3, 6))
        assert len(elements) == 24
        for a in elements:
            for b in elements:
                ab = multiply(a, b)
                assert ab.length <= a.length + b.length
                word = reduced_word(a) + reduced_word(b)
                assert (ab.length == a.length + b.length) == \
                    (from_word(a3, word).length == len(word))


class TestBruhat:
    def test_identity_below_everything(self, e6):
        order = BruhatOrder(e6)
        for w in enumerate_elements(e6, 3):
            assert order.leq(identity(e6), w)

    def test_s1_below_s1s3(self, e6):
        order = BruhatOrder(e6)
        assert order.leq(simple_reflection(e6, 1), from_word(e6, (1, 3)))

    def test_agrees_with_subword_oracle_a3(self, a3):
        order = BruhatOrder(a3)
        elements = list(enumerate_elements(a3, 6))
        for w in elements:
            interval = bruhat_interval_subword(w)
            for v in elements:
                assert order.leq(v, w) == (v in interval)

    def test_agrees_with_subword_oracle_e6(self, e6):
        order = BruhatOrder(e6)
        elements = list(enumerate_elements(e6, 5))
        for w in elements:
            interval = bruhat_interval_subword(w)
            for v in elements:
                if v.length <= w.length:
                    assert order.leq(v, w) == (v in interval)

    def test_agrees_with_subword_oracle_e6_lengths_6_to_8(self, e6):
        order = BruhatOrder(e6)
        elements = list(enumerate_elements(e6, 8))
        targets = [w for w in elements if w.length >= 6]
        for w in random.Random(10).sample(targets, 12):
            interval = bruhat_interval_subword(w)
            for v in elements:
                if v.length <= w.length:
                    assert order.leq(v, w) == (v in interval)

    def test_agrees_with_subword_oracle_e7(self, e7):
        order = BruhatOrder(e7)
        elements = list(enumerate_elements(e7, 4))
        for w in elements:
            interval = bruhat_interval_subword(w)
            for v in elements:
                assert order.leq(v, w) == (v in interval)

    def test_invariant_under_inversion_a3(self, a3):
        order = BruhatOrder(a3)
        elements = list(enumerate_elements(a3, 6))
        for w in elements:
            for v in elements:
                assert order.leq(v, w) == order.leq(inverse(v), inverse(w))

    def test_builds_no_group_element(self, e6, monkeypatch):
        elements = list(enumerate_elements(e6, 4))
        for w in elements:
            w.length, reduced_word(w)   # kept in slots before the queries run

        def refuse(*args):
            raise AssertionError("group element built inside a Bruhat query")

        for name in ("multiply", "multiply_simple", "inverse"):
            monkeypatch.setattr(weyl, name, refuse)
        monkeypatch.setattr(WeylElt, "__init__", refuse)
        order = BruhatOrder(e6)
        below = sum(order.leq(v, w) for v in elements for w in elements)
        assert below > len(elements)

    def test_keeps_no_state(self, e6):
        order = BruhatOrder(e6)
        elements = list(enumerate_elements(e6, 5))
        held = {k: len(v) for k, v in vars(e6).items()
                if isinstance(v, (dict, list, tuple))}
        rng = random.Random(4)
        below = sum(order.leq(rng.choice(elements), rng.choice(elements))
                    for _ in range(10_000))
        assert 0 < below < 10_000
        assert set(vars(order)) == {"rs", "_steps"}
        assert order.rs is e6 and order._steps is e6.right_steps
        assert held == {k: len(v) for k, v in vars(e6).items()
                        if isinstance(v, (dict, list, tuple))}

    @pytest.mark.parametrize("system", ["e7", "e8"])
    def test_agrees_with_recursive_oracle_on_long_elements(self, request, system):
        rs = request.getfixturevalue(system)
        order, oracle = BruhatOrder(rs), recursive_leq(rs)
        pairs = list(random_pairs(rs, random.Random(20), 2000, 20, 60))
        flags = [order.leq(v, w) for v, w in pairs]
        assert flags == [oracle(v, w) for v, w in pairs]
        assert any(flags) and not all(flags)

    @pytest.mark.parametrize("system", ["e7", "e8"])
    def test_subword_products_are_below(self, request, system):
        rs = request.getfixturevalue(system)
        order, rng = BruhatOrder(rs), random.Random(30)
        for _ in range(4):
            w = random_element(rs, rng, rng.randint(30, 60))
            word = reduced_word(w)
            for _ in range(50):
                assert order.leq(subword_product(rs, word, rng), w)

    def test_invariant_under_inversion_e7(self, e7):
        order = BruhatOrder(e7)
        flags = []
        for v, w in random_pairs(e7, random.Random(40), 500, 1, 40):
            flags.append(order.leq(v, w))
            assert flags[-1] == order.leq(inverse(v), inverse(w))
        assert any(flags) and not all(flags)


class TestParabolic:
    def test_w_in_parabolic(self, e6):
        I = {2, 3, 4, 5, 6}
        w = from_word(e6, (2, 4, 3))
        u, v = parabolic_factorize(w, I)
        assert u.is_identity() and v == w

    def test_e6_table_row_101000(self, e6):
        beta = e6.positive_roots[e6.index_of_b[(1, 0, 1, 0, 0, 0)]]
        u, v = parabolic_factorize(reflection(e6, beta), {2, 3, 4, 5, 6})
        assert u == from_word(e6, (3, 1))

    def test_length_additivity_random(self, e6):
        rng = random.Random(11)
        I = {1, 2, 4, 6}
        for _ in range(1000):
            word = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(12)))
            w = from_word(e6, word)
            u, v = parabolic_factorize(w, I)
            assert multiply(u, v) == w
            assert u.length + v.length == w.length
            assert all(i in I for i in reduced_word(v))
            assert all(weyl.act_on_simple(u, i) > 0 for i in I)


class TestReflection:
    def test_simple_case(self, e6):
        for i in range(1, 7):
            assert reflection(e6, e6.simple_roots[i - 1]) == \
                simple_reflection(e6, i)

    def test_involutive(self, e6):
        for beta in e6.positive_roots:
            s = reflection(e6, beta)
            assert multiply(s, s).is_identity()

    def test_highest_root_length(self, e6):
        beta = e6.positive_roots[e6.index_of_b[(1, 2, 2, 3, 2, 1)]]
        assert reflection(e6, beta).length == 21

    def test_length_is_twice_height_minus_one(self, e6):
        for beta in e6.positive_roots:
            assert reflection(e6, beta).length == 2 * beta.height - 1

    @pytest.mark.parametrize("type_tag", ["E6", "E7", "E8"])
    def test_agrees_with_root_reflect(self, type_tag):
        # a fresh system, so the first call per root builds its permutation
        rs = build_e_system(type_tag)
        for beta in rs.positive_roots:
            s = reflection(rs, beta)
            assert reflection(rs, beta) == s   # second call, from the memo
        assert len(rs.reflection_memo) == len(rs.positive_roots)

    @pytest.mark.parametrize("type_tag", ["E6", "E7", "E8"])
    def test_agrees_with_dot_product_construction(self, type_tag):
        # a fresh system: the highest root first, so its conjugation chain
        # fills the memo down to a simple reflection
        rs = build_e_system(type_tag)
        for beta in reversed(rs.positive_roots):
            s = reflection(rs, beta)
            assert s.perm == dot_product_reflection(rs, beta)
            assert s.length == 2 * beta.height - 1
        for i, k in enumerate(rs.simple_index, 1):
            assert simple_reflection(rs, i) is rs.reflection_memo[k]
            assert simple_reflection(rs, i) is reflection(rs, rs.simple_roots[i - 1])

    def test_memo_returns_the_element_with_its_length(self):
        """Each call returns the memoised element itself, so its length is
        counted once: the second read visits no entry of the permutation."""
        rs = build_e_system("E6")
        beta = rs.positive_roots[rs.index_of_b[(1, 2, 2, 3, 2, 1)]]
        s = reflection(rs, beta)
        assert s.length == 21
        visits = []

        class CountedPerm(tuple):
            def __iter__(self):
                visits.append(1)
                return super().__iter__()

        object.__setattr__(s, "perm", CountedPerm(s.perm))
        t = reflection(rs, beta)
        assert t is s
        assert t.length == 21 and not visits

    def test_simple_reflection_is_the_memoised_element(self):
        # either call may fill the memo; both return that one element
        rs = build_e_system("E6")
        for i in (1, 2, 3):
            assert simple_reflection(rs, i) is reflection(rs, rs.simple_roots[i - 1])
        for i in (4, 5, 6):
            assert reflection(rs, rs.simple_roots[i - 1]) is simple_reflection(rs, i)
        assert len(rs.reflection_memo) == 6

    def test_negative_root_rejected(self, e6):
        with pytest.raises(WeylError):
            reflection(e6, Root(tuple(-x for x in e6.positive_roots[3].b), None))

    @pytest.mark.parametrize("b", [(0,) * 6, (1, 1, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0),
                                   (1, 0, -1, 0, 0, 0), (1, 0, 0, 0, 0)])
    def test_vector_that_is_no_root_rejected(self, e6, b):
        # alpha_1 + alpha_2 is no root: nodes 1 and 2 are not joined in E6
        with pytest.raises(RootSystemError):
            reflection(e6, Root(b, None))


class TestSupport:
    def test_identity_empty(self, e6, e6_natural):
        assert support(identity(e6), e6_natural) == []

    def test_single_reflection(self, e6, e6_natural):
        for beta in e6.positive_roots:
            assert support(reflection(e6, beta), e6_natural) == [beta]

    def test_commuting_pair(self, e6, e6_natural):
        roots = e6.positive_roots
        found = 0
        for beta, gamma in itertools.combinations(roots[:12], 2):
            if e6.inner(beta, gamma) == 0:
                w = multiply(reflection(e6, beta), reflection(e6, gamma))
                assert set(support(w, e6_natural)) == {beta, gamma}
                found += 1
        assert found > 0

    def test_reconstruction_and_orthogonality(self, e6, e6_natural):
        for w in enumerate_involutions(e6, 5):
            supp = support(w, e6_natural)
            for a, b in itertools.combinations(supp, 2):
                assert e6.inner(a, b) == 0
            for perm in itertools.islice(itertools.permutations(supp), 6):
                prod = identity(e6)
                for beta in perm:
                    prod = multiply(prod, reflection(e6, beta))
                assert prod == w

    def test_kept_per_order(self, e6, e6_natural, e6_alternate):
        w = from_word(e6, (1, 6))   # the two orders list its roots apart
        first = support(w, e6_natural)
        first.append(e6.positive_roots[0])   # the caller's list is its own
        assert support(w, e6_natural) == first[:-1]
        fresh = from_word(e6, (1, 6))
        for order in (e6_alternate, e6_natural, e6_alternate):
            assert support(w, order) == support(fresh, order)
        assert support(w, e6_natural) != support(w, e6_alternate)

    def test_non_involution_rejected(self, a3):
        with pytest.raises(WeylError):
            support(from_word(a3, (1, 2)), SimpleOrder((1, 2, 3), 1))

    def test_corrupted_involution_flag_rejected(self, a3):
        w = from_word(a3, (1, 2))
        w._is_involution = True
        with pytest.raises(WeylError, match="corrupted"):
            support(w, SimpleOrder((1, 2, 3), 1))

    def test_e6_agrees_with_listed_greedy(self, e6, e6_natural, e6_alternate):
        involutions = list(enumerate_involutions(e6, 36))
        assert len(involutions) == 892
        for w in involutions:
            for order in (e6_natural, e6_alternate):
                assert support(w, order) == listed_support(w, order)

    def test_e7_agrees_with_listed_greedy_to_length_12(self, e7):
        order = named_order("E7", "standard")
        for w in enumerate_involutions(e7, 12):
            assert support(w, order) == listed_support(w, order)

    def test_scan_order_kept_per_order(self):
        rs = build_e_system("E6")
        w = from_word(rs, (1, 6))
        for name in ("natural", "alternate", "natural"):
            support(w, named_order("E6", name))
        natural = named_order("E6", "natural")
        assert set(rs.lex_scans) == {natural.perm, named_order("E6", "alternate").perm}
        keys = [lex_key(natural, rs.positive_roots[k]) for k in rs.lex_scans[natural.perm]]
        assert keys == sorted(keys, reverse=True)


class TestEnumeration:
    def test_is_a_generator_function(self):
        # the benchmark tracer times the iteration, not the call
        assert inspect.isgeneratorfunction(weyl.enumerate_involutions)

    @pytest.mark.parametrize("system", ["a1", "a2", "a3"])
    def test_small_systems_match_filter(self, request, system):
        rs = request.getfixturevalue(system)
        for max_len in range(len(rs.positive_roots) + 2):
            assert list(enumerate_involutions(rs, max_len)) == \
                filter_involutions(rs, max_len)

    def test_e6_matches_filter_at_every_length(self, e6):
        brute = filter_involutions(e6, 36)
        assert len(brute) == 892
        for max_len in range(37):
            got = list(enumerate_involutions(e6, max_len))
            assert got == [w for w in brute if w.length <= max_len]
        for w in got:
            assert w.length == WeylElt(e6, w.perm).length

    def test_e7_matches_filter_to_length_12(self, e7):
        got = list(enumerate_involutions(e7, 12))
        assert got == filter_involutions(e7, 12)
        assert len(got) == 588
        for w in got:
            assert w.length == WeylElt(e7, w.perm).length

    def test_e7_whole_without_the_group(self, e7, monkeypatch):
        def refuse(rs, max_len):
            raise AssertionError("enumerate_elements called for involutions")

        monkeypatch.setattr(weyl, "enumerate_elements", refuse)
        got = list(enumerate_involutions(e7, 63))
        assert len(got) == 10208
        assert len({w.perm for w in got}) == len(got)
        for w in got:
            assert multiply(w, w).is_identity()

    @pytest.mark.parametrize("system, max_len", [("a4", 10), ("e6", 8)])
    def test_matches_is_involution_filter_in_order(self, request, system, max_len):
        rs = request.getfixturevalue(system)
        assert list(enumerate_involutions(rs, max_len)) == \
            [w for w in enumerate_elements(rs, max_len) if w.is_involution()]

    def test_preset_flag_agrees_with_perm_recheck_e7(self, e7):
        got = list(enumerate_involutions(e7, 63))
        assert len(got) == 10208 and got[0].is_identity()
        for w in got[1:]:   # every one reached by a twisted step carries the flag
            assert w._is_involution is True
            assert WeylElt(e7, w.perm).is_involution()

    def test_max_len_zero(self, e6):
        assert list(enumerate_involutions(e6, 0)) == [identity(e6)]

    def test_max_len_one(self, e6):
        got = set(enumerate_involutions(e6, 1))
        expect = {identity(e6)} | {simple_reflection(e6, i) for i in range(1, 7)}
        assert got == expect

    def test_a3_matches_brute_filter(self, a3):
        got = list(enumerate_involutions(a3, 6))
        brute = [w for w in enumerate_elements(a3, 6) if w.is_involution()]
        assert got == brute
        assert len(set(w.perm for w in got)) == len(got)

    def test_elements_unique_and_ordered(self, a3):
        elements = list(enumerate_elements(a3, 6))
        assert len(set(w.perm for w in elements)) == 24
        lengths = [w.length for w in elements]
        assert lengths == sorted(lengths)
