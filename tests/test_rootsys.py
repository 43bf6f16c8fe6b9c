import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from kkweyl import rootsys
from kkweyl.rootsys import (
    Root, RootSystemError, SimpleOrder,
    build_e_system, build_from_cartan, direct_sum,
    lex_key, first_column, named_order,
)

H = Fraction(1, 2)
# The E8 simple roots in epsilon-coordinates (Bourbaki, Plate VII); E6 and E7
# take the first six and seven.
E8_SIMPLE = [
    (H, -H, -H, -H, -H, -H, -H, H),
    (1, 1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0),
    (0, 0, 0, 0, 0, -1, 1, 0),
]

# The E8 Cartan matrix in Bourbaki's numbering: the chain 1-3-4-5-6-7-8 with
# 2 joined to 4.  E6 and E7 are its leading 6x6 and 7x7 blocks.
E8_CARTAN = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def oracle_eps(b, simple):
    """A root's epsilon-coordinates by Fraction accumulation of its simple-root
    coefficients over the simple vectors: the reference for Root.eps."""
    acc = [Fraction(0)] * len(simple[0])
    for coef, vec in zip(b, simple):
        if coef:
            for j, x in enumerate(vec):
                acc[j] += coef * Fraction(x)
    return tuple(acc)


class TestEpsOracle:
    @pytest.mark.parametrize("type_tag", ["E6", "E7", "E8", "E6+E6"])
    def test_eps_equals_fraction_accumulation(self, type_tag):
        if type_tag == "E6+E6":
            e6 = build_e_system("E6")
            rs = direct_sum(e6, e6)
            zero = (0,) * 8
            simple = ([v + zero for v in E8_SIMPLE[:6]]
                      + [zero + v for v in E8_SIMPLE[:6]])
        else:
            rs = build_e_system(type_tag)
            simple = E8_SIMPLE[:rs.rank]
        assert len(rs.positive_roots) == {"E6": 36, "E7": 63, "E8": 120,
                                          "E6+E6": 72}[type_tag]
        for r in rs.positive_roots:
            assert r.eps == oracle_eps(r.b, simple)
            assert all(type(x) is Fraction for x in r.eps)

    @pytest.mark.parametrize("type_tag", ["E6", "E7", "E8"])
    def test_cartan_matrix(self, type_tag):
        n = int(type_tag[1])
        expected = tuple(row[:n] for row in E8_CARTAN[:n])
        assert build_e_system(type_tag).cartan == expected

    def test_wrong_length_simple_vectors_rejected(self, monkeypatch):
        # every simple vector doubled: the Cartan matrix and the root count
        # stay those of E6, but no root has squared length 2
        doubled = [tuple(2 * Fraction(x) for x in v) for v in E8_SIMPLE]
        monkeypatch.setattr(rootsys, "_e8_simple_eps", lambda: doubled)
        with pytest.raises(RootSystemError, match="squared length"):
            build_e_system("E6")

    def test_non_integral_cartan_rejected(self, monkeypatch):
        # alpha_2 replaced by a vector of squared length 3: 2(a1, v)/(v, v) = -1/3
        forged = [tuple(Fraction(x) for x in v) for v in E8_SIMPLE]
        forged[1] = tuple(Fraction(x) for x in (1, 1, 1, 0, 0, 0, 0, 0))
        monkeypatch.setattr(rootsys, "_e8_simple_eps", lambda: forged)
        with pytest.raises(RootSystemError, match="non-integral Cartan entry"):
            build_e_system("E6")

    def test_e8_build_does_no_fraction_arithmetic(self, monkeypatch):
        calls = Counter()
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            def counted(self, other, op=getattr(Fraction, name), name=name):
                calls[name] += 1
                return op(self, other)
            monkeypatch.setattr(Fraction, name, counted)
        build_e_system("E8")
        assert calls == Counter()
        # the counters see Fraction arithmetic when there is some
        assert 1 + H * 2 == 2 and calls == Counter({"__mul__": 1, "__radd__": 1})


class TestBuildESystem:
    def test_e6_alpha2_eps(self, e6):
        alpha2 = e6.simple_roots[1]
        assert alpha2.eps == tuple(Fraction(x) for x in (1, 1, 0, 0, 0, 0, 0, 0))

    def test_positive_root_counts(self, e6, e7, e8):
        assert len(e6.positive_roots) == 36
        assert len(e7.positive_roots) == 63
        assert len(e8.positive_roots) == 120

    def test_e8_named_root(self, e8):
        r = e8.positive_roots[e8.index_of_b[(2, 3, 4, 6, 5, 4, 3, 1)]]
        assert r.eps == tuple(Fraction(x) for x in (0, 0, 0, 0, 0, 1, 0, 1))

    def test_all_roots_squared_length_two(self, e6, e7, e8):
        for rs in (e6, e7, e8):
            for r in rs.positive_roots:
                assert sum(x * x for x in r.eps) == 2
                assert rs.inner(r, r) == 2

    def test_b_nonnegative_and_eps_bijective(self, e8):
        seen = set()
        for r in e8.positive_roots:
            assert all(x >= 0 for x in r.b)
            assert r.eps not in seen
            seen.add(r.eps)

    def test_unknown_type_rejected(self):
        with pytest.raises(RootSystemError):
            build_e_system("E9")


class TestRootTables:
    # sha256 of repr((positive roots' b in index order, simple_index,
    # reflection_table)): the index order every signed permutation is read in
    PINS = {
        "A1": "fc3b444bbb6bef23e1b854d981addac764db460eedde0b1796122a2d5b7276f7",
        "A2": "870e1f9b9cdb467326bb636fc1dd35e753867e8dcf60daeffb73d2a46aa1b65d",
        "A3": "4a894a2a96bfe916164af49f76f4e4d71ea09223d0fcc65ca296837cc2fcd4ab",
        "A4": "d3fadd17a43d2ac3c4955c81ad5cb1150ed12cde554e5276dde419bff832e3c9",
        "A5": "5c9cbc73f194690b5743feb53ce4a2ecb29327d399c451d99940b8f2c7bb6a9d",
        "A6": "7a1eaa0d85fe077c00345a60692e41bd798159e023e4e351d82ea6faf11993ae",
        "A7": "a3e87b326ef4fd968c1b864b8a1ff625655403d213553362c0bc5c4ada8106d5",
        "E6": "1239d5d8f5dd3271eda3b9a56ba887b16c948d0a665982ab930b06f3a109fe73",
        "E7": "7e95506da25a03e99598c166535cfa252225063ab16813388c1fc27f198751d4",
        "E8": "36288ef5f2ce9af5072d4b5f8bbd03095dd1b80b13a1f1c3fece459cb7be2a61",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_tables_pinned(self, name):
        if name[0] == "E":
            rs = build_e_system(name)
        else:
            n = int(name[1:])
            rs = build_from_cartan(
                [[2 if i == j else -1 if abs(i - j) == 1 else 0
                  for j in range(n)] for i in range(n)])
        data = repr((tuple(r.b for r in rs.positive_roots), rs.simple_index,
                     rs.reflection_table))
        assert hashlib.sha256(data.encode()).hexdigest() == self.PINS[name]

    def test_each_simple_reflection_computed_once(self, monkeypatch):
        # the closure keeps each root's images, and reflection_table reads them
        calls = Counter()
        reflect_simple = rootsys._reflect_simple

        def counted(cartan, i, b):
            calls[i, b] += 1
            return reflect_simple(cartan, i, b)

        monkeypatch.setattr(rootsys, "_reflect_simple", counted)
        build_e_system("E8")
        assert sum(calls.values()) == len(calls) == 120 * 8


class TestBuildFromCartan:
    def test_a2_roots(self, a2):
        assert {r.b for r in a2.positive_roots} == {(1, 0), (0, 1), (1, 1)}

    def test_a1_single_root(self, a1):
        assert len(a1.positive_roots) == 1

    def test_a3_count(self, a3):
        assert len(a3.positive_roots) == 6

    def test_invalid_cartan_rejected(self):
        with pytest.raises(RootSystemError):
            build_from_cartan([[2, -2], [-1, 2]])
        with pytest.raises(RootSystemError):
            build_from_cartan([[1]])


class TestDirectSum:
    def test_a1_plus_a1(self, a1):
        rs = direct_sum(a1, a1)
        assert len(rs.positive_roots) == 2
        assert rs.cartan == ((2, 0), (0, 2))

    def test_a2_plus_a1(self, a2, a1):
        rs = direct_sum(a2, a1)
        assert len(rs.positive_roots) == 4
        assert rs.rank == a2.rank + a1.rank


class TestLexCompare:
    def test_e6_natural_example(self, e6, e6_natural):
        a = e6.positive_roots[e6.index_of_b[(1, 0, 0, 0, 0, 0)]]
        b = e6.positive_roots[e6.index_of_b[(1, 0, 1, 0, 0, 0)]]
        assert lex_key(e6_natural, a) < lex_key(e6_natural, b)

    def test_total_order_e6(self, e6, e6_natural):
        # lex_key is injective, so it orders the roots totally
        keys = [lex_key(e6_natural, r) for r in e6.positive_roots]
        assert len(set(keys)) == len(keys)


class TestFirstColumn:
    def test_e6_natural_sixteen(self, e6, e6_natural):
        col = first_column(e6, e6_natural)
        assert len(col) == 16
        assert all(r.b[0] != 0 for r in col)

    def test_e7_rows_end_in_one(self, e7):
        col = first_column(e7, named_order("E7", "standard"))
        assert col
        assert all(r.b[6] != 0 for r in col)

    def test_alpha_c_is_lex_minimum(self, e6, e6_natural, e6_alternate):
        for order in (e6_natural, e6_alternate):
            col = first_column(e6, order)
            alpha_c = e6.simple_roots[order.distinguished - 1]
            assert alpha_c in col
            assert min(col, key=lambda r: lex_key(order, r)) == alpha_c

    def test_e6_orders_same_cardinality(self, e6, e6_natural, e6_alternate):
        assert len(first_column(e6, e6_natural)) == \
            len(first_column(e6, e6_alternate))

    def test_sorted_by_height_then_lex(self, e6, e6_natural):
        col = first_column(e6, e6_natural)
        keys = [(r.height, lex_key(e6_natural, r)) for r in col]
        assert keys == sorted(keys)


class TestRootIdentity:
    """A root is its coefficient vector: eps takes no part in == and hash,
    and the sign is read off b."""

    @pytest.mark.parametrize("type_tag", ["E6", "E7", "E8"])
    def test_value_and_sign_are_read_off_b(self, type_tag):
        rs = build_e_system(type_tag)
        for root in rs.positive_roots:
            negated = Root(tuple(-x for x in root.b), None)
            assert root != negated
            for r, sign in ((root, 1), (negated, -1)):
                assert (max(r.b) > 0) == (sign > 0)
                assert all(x * sign >= 0 for x in r.b)
                bare = Root(r.b, None)
                assert bare == r and hash(bare) == hash(r)
                assert (max(bare.b) > 0) == (max(r.b) > 0)


class TestSimpleOrder:
    def test_invalid_orders_rejected(self):
        with pytest.raises(RootSystemError):
            SimpleOrder((1, 2, 2), 1)
        with pytest.raises(RootSystemError):
            SimpleOrder((1, 2, 3), 4)

    def test_unknown_named_order(self):
        with pytest.raises(RootSystemError):
            named_order("E6", "bogus")
