import re

import pytest

from kkweyl.rootsys import build_e_system, default_order_name, first_column, named_order
from kkweyl import weyl
from kkweyl.weyl import (
    BruhatOrder, identity, simple_reflection, multiply, from_word, reflection,
    enumerate_involutions, bruhat_interval_subword,
)
from kkweyl.nilhecke import FactoredPoly, NilHeckeEngine
from kkweyl.analysis import (
    AnalysisError, NotAGoodPair, GoodPairCertificate, GoodPairClauses,
    prop35_factor, gen_table, is_good_pair, certify_distinct, scan_good_pairs,
)
from kkweyl.cli import cert_to_json, record_checker


@pytest.fixture(scope="module")
def e6_engine(e6):
    return NilHeckeEngine(e6)


@pytest.fixture(scope="module")
def kk_cache():
    # shared across tests: d_w expansions are expensive and reused heavily
    return {}


class TestProp35Factor:
    def test_alpha1_row(self, e6, e6_natural):
        row = prop35_factor(e6, e6_natural, e6.simple_roots[0])
        assert row.u == simple_reflection(e6, 1)
        assert row.u_word == (1,)
        assert row.premise_ok

    def test_non_first_column_rejected(self, e6, e6_natural):
        with pytest.raises(AnalysisError):
            prop35_factor(e6, e6_natural, e6.simple_roots[1])

    def test_row_invariants_both_e6_orders(self, e6, e6_natural, e6_alternate):
        for order in (e6_natural, e6_alternate):
            c = order.distinguished
            for row in gen_table(e6, order):
                s_beta = reflection(e6, row.beta)
                v = from_word(e6, row.v_word)
                u = row.u
                assert multiply(u, v) == s_beta
                assert u.length + v.length == s_beta.length
                assert u.length == len(row.u_word)
                assert all(i != c for i in row.v_word)
                assert row.premise_ok
                assert u == multiply(weyl.inverse(v), simple_reflection(e6, c))
                assert u.length == v.length + 1
                # u has minimal length in its coset: no right descent inside I
                for i in range(1, 7):
                    if i != c:
                        assert weyl.act_on_simple(u, i) > 0

    def test_u_length_equals_height(self, e6, e6_natural):
        # l(u) = l(v)+1 and l(u)+l(v) = 2*height-1 force l(u) = height
        for row in gen_table(e6, e6_natural):
            assert len(row.u_word) == row.beta.height


class TestGenTable:
    def test_e6_sixteen_rows(self, e6, e6_natural, e6_alternate):
        for order in (e6_natural, e6_alternate):
            rows = gen_table(e6, order)
            assert len(rows) == 16
            betas = [r.beta for r in rows]
            assert betas == first_column(e6, order)

    def test_deterministic(self, e6, e6_natural):
        a = gen_table(e6, e6_natural)
        b = gen_table(e6, e6_natural)
        assert [(r.beta, r.u_word, r.v_word, r.premise_ok) for r in a] == \
            [(r.beta, r.u_word, r.v_word, r.premise_ok) for r in b]


class TestIsGoodPair:
    def test_equal_pair_rejected(self, e6, e6_natural):
        w = simple_reflection(e6, 1)
        with pytest.raises(NotAGoodPair):
            is_good_pair(w, w, e6, e6_natural)

    def test_reflection_pair_accepted(self, e6, e6_natural):
        col = first_column(e6, e6_natural)
        w1 = reflection(e6, col[0])   # alpha_1
        w2 = reflection(e6, col[2])   # height-3 root: s_{beta} not below s_{alpha_1}
        cert = is_good_pair(w1, w2, e6, e6_natural)
        assert {cert.beta1, cert.beta2} == {col[0], col[2]}
        assert cert.side1 or cert.side2

    def test_support_meets_c1_twice_rejected(self, e6, e6_natural):
        col = first_column(e6, e6_natural)
        pair = None
        for a in col:
            for b in col:
                if a != b and e6.inner(a, b) == 0:
                    pair = (a, b)
                    break
            if pair:
                break
        w = multiply(reflection(e6, pair[0]), reflection(e6, pair[1]))
        w2 = reflection(e6, col[0])
        with pytest.raises(NotAGoodPair, match="meets C1 in 2"):
            is_good_pair(w, w2, e6, e6_natural)

    def test_both_sides_below_rejected(self, e6, e6_natural):
        # s_beta <= w0 for every root beta, so the pair (w0, w0) fails the
        # Bruhat clause for any two distinct C1 roots
        w0 = identity(e6)
        while (i := next((i for i in range(1, 7) if weyl.act_on_simple(w0, i) > 0),
                         None)) is not None:
            w0 = weyl.multiply_simple(w0, i)
        assert w0.length == 36
        col = first_column(e6, e6_natural)
        with pytest.raises(NotAGoodPair,
                           match=re.escape("both s_{beta1} <= w2 and s_{beta2} <= w1")):
            GoodPairClauses(e6, e6_natural).clauses(w0, col[0], w0, col[1])

    def test_non_involution_rejected(self, e6, e6_natural):
        w = from_word(e6, (1, 3))
        assert not w.is_involution()
        with pytest.raises(AnalysisError):
            is_good_pair(w, w, e6, e6_natural)

    def test_e8_top_of_c1_excluded(self, e8):
        order = named_order("E8", "standard")
        theta = max(e8.positive_roots, key=lambda r: r.height)
        assert GoodPairClauses(e8, order).top == theta == first_column(e8, order)[-1]
        s_theta, s8 = reflection(e8, theta), simple_reflection(e8, 8)
        assert s_theta.length == 57 and weyl.support(s_theta, order) == [theta]
        # every other clause holds: alpha_8 is in C1 and s_8 is below s_theta
        for w1, w2 in ((s_theta, s8), (s8, s_theta)):
            with pytest.raises(NotAGoodPair,
                               match=r"^a beta is maximal in C1 \(excluded for E8\)$"):
                is_good_pair(w1, w2, e8, order)


class TestCertify:
    def test_computed_certificate(self, e6, e6_natural, e6_engine, kk_cache):
        col = first_column(e6, e6_natural)
        cert = is_good_pair(reflection(e6, col[0]), reflection(e6, col[2]),
                            e6, e6_natural)
        full = certify_distinct(cert, e6_engine, max_compute_len=8,
                                kk_cache=kk_cache)
        assert full.computed
        assert full.direct_inequality is True
        assert full.divides_evidence is not None

    def test_over_cap_stays_symbolic(self, e6, e6_natural, e6_engine, kk_cache):
        col = first_column(e6, e6_natural)
        cert = is_good_pair(reflection(e6, col[0]), reflection(e6, col[2]),
                            e6, e6_natural)
        sym = certify_distinct(cert, e6_engine, max_compute_len=2)
        assert not sym.computed
        assert sym.direct_inequality is None
        assert sym.divides_evidence is not None

    def test_equality_check_respects_budget(self, e6, e6_natural):
        # Both x_w folds stay within 624 terms, but comparing the two d_w
        # expands 865 terms of unshared factors.
        w1 = from_word(e6, (3, 1, 4, 5, 6, 5, 4, 3))
        w2 = from_word(e6, (1, 2, 4, 3, 1, 5, 4, 2))
        cert = is_good_pair(w1, w2, e6, e6_natural)
        for budget in (624, 744, 864):
            sym = certify_distinct(cert, NilHeckeEngine(e6, term_budget=budget))
            assert not sym.computed and sym.direct_inequality is None
            assert sym.divides_evidence is not None
        full = certify_distinct(cert, NilHeckeEngine(e6, term_budget=865))
        assert full.computed and full.direct_inequality is True


class TestScan:
    def test_max_len_one_empty(self, e6, e6_natural, e6_engine):
        # only alpha_1 among the simple roots lies in C1, so no pairs exist
        certs = list(scan_good_pairs(e6, e6_natural, 1, e6_engine))
        assert certs == []

    def test_max_len_three_nonempty_and_rechecks(self, e6, e6_natural,
                                                 e6_engine, kk_cache):
        certs = list(scan_good_pairs(e6, e6_natural, 3, e6_engine,
                                     kk_cache=kk_cache))
        assert certs
        seen = set()
        check = record_checker(e6, e6_natural, e6_engine)
        for cert in certs:
            key = frozenset((cert.w1.perm, cert.w2.perm))
            assert key not in seen   # emitted once, not also reversed
            seen.add(key)
            assert check(cert_to_json(cert))


    # E6 at length 8 holds the first involution whose support meets C1 twice
    @pytest.mark.parametrize("type_tag,order_name,max_len,pairs", [
        ("E6", "natural", 4, 55), ("E7", "standard", 4, 108),
        ("E6", "natural", 8, 1328), ("E6", "natural", 10, 3763),
        ("E7", "standard", 6, 900)])
    def test_matches_is_good_pair_on_every_pair(self, type_tag, order_name,
                                                max_len, pairs):
        # oracle: the public clause check on every pair of non-identity
        # involutions, in enumeration order, each with a fresh Bruhat order
        rs, order = build_e_system(type_tag), named_order(type_tag, order_name)
        invols = [w for w in enumerate_involutions(rs, max_len)
                  if not w.is_identity()]
        expected = []
        for a, w1 in enumerate(invols):
            for w2 in invols[a + 1:]:
                try:
                    expected.append(is_good_pair(w1, w2, rs, order))
                except NotAGoodPair:
                    pass
        assert len(expected) == pairs
        assert list(scan_good_pairs(rs, order, max_len, certify=False)) == expected


@pytest.mark.parametrize("type_tag,max_len,pairs", [("E6", 6, 327), ("E7", 5, 350)])
def test_scan_matches_an_independent_clause_check(type_tag, max_len, pairs):
    # oracle independent of GoodPairClauses: C1 from first_column, each meet
    # from weyl.support, each Bruhat side as membership in the subword
    # interval below w
    rs = build_e_system(type_tag)
    order = named_order(type_tag, default_order_name(type_tag))
    c1 = {r.b for r in first_column(rs, order)}
    candidates = []
    for w in enumerate_involutions(rs, max_len):
        meet = [r for r in weyl.support(w, order) if r.b in c1]
        if len(meet) == 1:
            candidates.append((w, meet[0], bruhat_interval_subword(w)))
    expected = []
    for a, (w1, beta1, lower1) in enumerate(candidates):
        for w2, beta2, lower2 in candidates[a + 1:]:
            side1 = reflection(rs, beta1) not in lower2
            side2 = reflection(rs, beta2) not in lower1
            if beta1 != beta2 and (side1 or side2):
                expected.append(GoodPairCertificate(w1, w2, beta1, beta2, side1, side2))
    assert len(expected) == pairs
    assert list(scan_good_pairs(rs, order, max_len, certify=False)) == expected


def test_scan_decides_each_bruhat_side_once(e7, monkeypatch):
    order = named_order("E7", "standard")
    c1 = {r.b for r in first_column(e7, order)}
    candidates = []
    for w in enumerate_involutions(e7, 6):
        meet = [r for r in weyl.support(w, order) if r.b in c1]
        if len(meet) == 1:
            candidates.append((w, meet[0]))
    # the sides the clauses read: s_beta1 <= w2 and s_beta2 <= w1 for every
    # candidate pair with beta1 != beta2 (E7 excludes no top root)
    asked = set()
    for a, (w1, beta1) in enumerate(candidates):
        for w2, beta2 in candidates[a + 1:]:
            if beta1 != beta2:
                asked |= {(beta1.b, w2.perm), (beta2.b, w1.perm)}
    calls = []
    leq = BruhatOrder.leq

    def counted(self, v, w):
        calls.append((v.perm, w.perm))
        return leq(self, v, w)

    monkeypatch.setattr(BruhatOrder, "leq", counted)
    assert len(list(scan_good_pairs(e7, order, 6, certify=False))) == 900
    assert len(calls) == len(set(calls)) == len(asked) == 114
    assert len(asked) <= len(candidates) * len(c1)


@pytest.mark.parametrize("type_tag,candidates", [("E6", 416), ("E7", 4212)])
def test_bruhat_set_is_that_of_the_c1_reflection(type_tag, candidates):
    # B(w) = {gamma in C1 : s_gamma <= w} equals B(s_beta) for every candidate
    # w, the involution whose support meets C1 in the one root beta: checked
    # here over every candidate, not assumed by any code path
    rs = build_e_system(type_tag)
    order = named_order(type_tag, default_order_name(type_tag))
    col = first_column(rs, order)
    good = GoodPairClauses(rs, order)
    seen = 0
    for w in enumerate_involutions(rs, len(rs.positive_roots)):
        meet = good.meet(w)
        if w.is_identity() or len(meet) != 1:
            continue
        seen += 1
        s_beta = reflection(rs, meet[0])
        assert [good.below(g, w) for g in col] == [good.below(g, s_beta) for g in col]
    assert seen == candidates


def test_clauses_decide_each_meet_once(e6, e6_natural, monkeypatch):
    # the C1 meet of an involution is kept by the clauses object, per element:
    # equal elements built apart share it
    calls = []
    support = weyl.support

    def counted(w, order):
        calls.append(w.perm)
        return support(w, order)

    monkeypatch.setattr(weyl, "support", counted)
    col = first_column(e6, e6_natural)
    good = GoodPairClauses(e6, e6_natural)
    w1, w2 = reflection(e6, col[0]), reflection(e6, col[2])
    assert good.meet(w1) == (col[0],)
    cert = good.check(w1, w2)
    for _ in range(2):
        v1 = from_word(e6, weyl.reduced_word(w1))
        v2 = from_word(e6, weyl.reduced_word(w2))
        assert v1 is not w1 and v2 is not w2
        assert good.check(v1, v2) == cert
        assert good.meet(v2) == (col[2],)
    assert sorted(calls) == sorted([w1.perm, w2.perm])


def test_certification_never_expands(e6, e6_natural, monkeypatch):
    def refuse(self, budget=None):
        raise AssertionError("certification expanded a polynomial")
    monkeypatch.setattr(FactoredPoly, "expand", refuse)
    engine = NilHeckeEngine(e6)
    certs = list(scan_good_pairs(e6, e6_natural, 3, engine, certify=True))
    assert certs
    check = record_checker(e6, e6_natural, NilHeckeEngine(e6))
    for cert in certs:
        assert cert.computed and cert.direct_inequality is True
        assert check(cert_to_json(cert))
