"""Root systems of type E (and small simply-laced test systems) in exact arithmetic.

All coordinates are exact: epsilon-coordinates are tuples of Fractions, simple-root
coefficient vectors are tuples of ints.  Each eps is built with no Fraction
arithmetic: it is summed in ints as a multiple of the lcm D of the simple vectors'
denominators, and each coordinate m is read from one Fraction(m, D) per system.  A
RootSystem is immutable after construction; the only state it gains later is in three
memos, each filled lazily.  Two are keyed by positive-root index: `reflection_memo`,
which `weyl.reflection` and `weyl.simple_reflection` fill with the group element
s_beta itself (so its cached length and table are kept), and `root_memo`, which
`polyring` fills with the root's linear form and a dict from each packed monomial met
so far to its value, modulo a prime, at a point on the root's hyperplane.  `lex_scans`, keyed
by a SimpleOrder's perm, holds the positive-root indices in the descending lex order
that `weyl.support` scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Optional, Sequence


class RootSystemError(ValueError):
    """Invalid construction input or corrupted root data."""


@dataclass(frozen=True, eq=False)
class Root:
    """A root, stored as integer coefficients over the simple roots.

    A root is its coefficient vector: equality and hash read `b` alone.
    `eps` carries the ambient epsilon-coordinates when the system has an
    explicit embedding (the E types); it is None for Cartan-matrix test systems.
    """
    b: tuple[int, ...]
    eps: Optional[tuple[Fraction, ...]]

    # not generated: the dataclass pair would build the tuple (b,) on every call
    def __eq__(self, other):
        return isinstance(other, Root) and self.b == other.b

    def __hash__(self):
        return hash(self.b)

    @property
    def height(self) -> int:
        return sum(self.b)


@dataclass(frozen=True)
class SimpleOrder:
    """A comparison order on the simple roots plus the distinguished column node.

    `perm` lists the 1-based simple-root indices in the order their coefficients
    are read by the lexicographic comparison; `distinguished` is the index c of
    the simple root whose coefficient defines first-column membership.
    """
    perm: tuple[int, ...]
    distinguished: int

    def __post_init__(self):
        if self.distinguished not in self.perm:
            raise RootSystemError("distinguished index must appear in the order")
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise RootSystemError("order must be a permutation of 1..n")


# The allowed simple-root orders, keyed by (type, name).
NAMED_ORDERS: dict[tuple[str, str], SimpleOrder] = {
    ("E6", "natural"): SimpleOrder((1, 2, 3, 4, 5, 6), 1),
    ("E6", "alternate"): SimpleOrder((2, 6, 3, 5, 4, 1), 6),
    ("E7", "standard"): SimpleOrder((3, 7, 4, 6, 5, 2, 1), 7),
    ("E8", "standard"): SimpleOrder((4, 8, 5, 7, 6, 3, 2, 1), 8),
}


def named_order(type_tag: str, name: str) -> SimpleOrder:
    try:
        return NAMED_ORDERS[(type_tag, name)]
    except KeyError:
        raise RootSystemError(f"no order {name!r} for type {type_tag}") from None


def default_order_name(type_tag: str) -> str:
    return "natural" if type_tag == "E6" else "standard"


def _e8_simple_eps() -> list[tuple[Fraction, ...]]:
    h = Fraction(1, 2)
    alpha1 = (h, -h, -h, -h, -h, -h, -h, h)
    out = [alpha1, (1, 1, 0, 0, 0, 0, 0, 0)]
    for i in range(6):
        v = [0] * 8
        v[i] = -1
        v[i + 1] = 1
        out.append(tuple(v))
    return [tuple(Fraction(x) for x in v) for v in out]


def _tuple_getter(indices: list[int]):
    if len(indices) == 1:
        k = indices[0]
        return lambda p: (p[k],)
    return itemgetter(*indices)


class RootSystem:
    """Simply-laced root system with an indexed, ordered set of positive roots."""

    def __init__(self, type_tag: str, cartan: tuple[tuple[int, ...], ...],
                 simple_eps: Optional[list[tuple[Fraction, ...]]]):
        self.type_tag = type_tag
        self.cartan = cartan
        self.rank = len(cartan)
        self._simple_eps = simple_eps
        images = _close_positive(cartan)
        pos_b = sorted(images, key=lambda b: (sum(b), b))
        self.positive_roots: tuple[Root, ...] = tuple(
            Root(b, eps) for b, eps in zip(pos_b, _root_eps(simple_eps, pos_b))
        )
        self.index_of_b: dict[tuple[int, ...], int] = {
            r.b: k for k, r in enumerate(self.positive_roots)
        }
        # simple_index[i] = positive-root index of alpha_{i+1}
        self.simple_index: tuple[int, ...] = tuple(
            self.index_of_b[_unit(self.rank, i)] for i in range(self.rank)
        )
        self.simple_roots: tuple[Root, ...] = tuple(
            self.positive_roots[k] for k in self.simple_index
        )
        # reflection_table[i][k] = signed 1-based index of s_{alpha_{i+1}}(pos_k)
        self.reflection_table: tuple[tuple[int, ...], ...] = tuple(
            tuple(self.signed_index(images[r.b][i]) for r in self.positive_roots)
            for i in range(self.rank)
        )
        # right_steps[i] = (slot of alpha_{i+1}, getter reading a signed
        # permutation w in the order of s_{i+1} on the positive roots): the
        # reading, with the slot negated, is w s_{i+1}.  A getter always
        # returns a tuple; itemgetter of one index returns a bare entry.
        self.right_steps = tuple(
            (j, _tuple_getter([abs(t) - 1 for t in row]))
            for j, row in zip(self.simple_index, self.reflection_table))
        self.reflection_memo: dict = {}  # root index -> weyl.WeylElt s_beta
        # SimpleOrder.perm -> positive-root indices in descending lex order
        self.lex_scans: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.root_memo: dict[int, tuple] = {}

    # -- coordinate helpers -------------------------------------------------

    def inner(self, a: Root, b: Root) -> int:
        """Inner product, normalized so every root has squared length 2."""
        total = 0
        for i, ai in enumerate(a.b):
            if ai:
                row = self.cartan[i]
                total += ai * sum(row[j] * bj for j, bj in enumerate(b.b) if bj)
        return total

    def signed_index(self, b: tuple[int, ...]) -> int:
        """k + 1 when b is positive root k, -(k + 1) when b is its negation."""
        k = self.index_of_b.get(b)
        if k is not None:
            return k + 1
        k = self.index_of_b.get(tuple(-x for x in b))
        if k is not None:
            return -(k + 1)
        raise RootSystemError(f"vector {b} is not a root")


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _reflect_simple(cartan, i: int, b: tuple[int, ...]) -> tuple[int, ...]:
    """s_{i+1}(b) for a vector b of simple-root coefficients (i 0-based)."""
    c = sum(cartan[i][j] * bj for j, bj in enumerate(b) if bj)
    if not c:
        return b
    out = list(b)
    out[i] -= c
    return tuple(out)


def _close_positive(cartan) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Positive roots, the closure of the simple roots under simple reflections,
    each mapped to its images under s_1, ..., s_n."""
    n = len(cartan)
    images = {}
    frontier = {_unit(n, i) for i in range(n)}
    while frontier:
        for b in frontier:
            images[b] = tuple(_reflect_simple(cartan, i, b) for i in range(n))
        frontier = {r for b in frontier for r in images[b]
                    if r not in images and all(x >= 0 for x in r)}
        if len(images) > 20000:
            raise RootSystemError("root closure does not terminate; not a finite Cartan matrix")
    return images


_E_COUNTS = {"E6": 36, "E7": 63, "E8": 120}


def build_e_system(type_tag: str) -> RootSystem:
    """Construct E6, E7 or E8 with its standard epsilon-coordinates in R^8."""
    if type_tag not in _E_COUNTS:
        raise RootSystemError(f"unknown E type {type_tag!r}")
    n = int(type_tag[1])
    eps = _e8_simple_eps()[:n]
    _, simple = _scaled(eps)
    cartan = tuple(tuple(_cartan_entry(a, b) for b in simple) for a in simple)
    rs = RootSystem(type_tag, cartan, eps)
    if len(rs.positive_roots) != _E_COUNTS[type_tag]:
        raise RootSystemError("positive-root count mismatch")
    d, roots = _scaled([r.eps for r in rs.positive_roots])
    if any(sum(x * x for x in v) != 2 * d * d for v in roots):
        raise RootSystemError("root of squared length != 2")
    return rs


def _scaled(vectors) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm D of the coordinates' denominators and each vector times D, in
    ints read from numerator and denominator (no Fraction arithmetic)."""
    d = math.lcm(*(x.denominator for v in vectors for x in v))
    return d, [tuple(x.numerator * (d // x.denominator) for x in v) for v in vectors]


def _root_eps(simple_eps, pos_b) -> list[Optional[tuple[Fraction, ...]]]:
    """Each root's eps, or None for every root of a system without them."""
    if simple_eps is None:
        return [None] * len(pos_b)
    d, simple = _scaled(simple_eps)
    cols = list(zip(*simple))
    ints = [tuple(sum(c * x for c, x in zip(b, col) if c) for col in cols) for b in pos_b]
    frac = {m: Fraction(m, d) for m in set().union(*ints)}
    return [tuple(map(frac.__getitem__, v)) for v in ints]


def _cartan_entry(a, b) -> int:
    """2(a, b)/(b, b) for two scaled simple vectors (the scale cancels)."""
    v, rem = divmod(2 * sum(map(mul, a, b)), sum(map(mul, b, b)))
    if rem:
        raise RootSystemError("non-integral Cartan entry")
    return v


def build_from_cartan(matrix: Sequence[Sequence[int]]) -> RootSystem:
    """Simply-laced root system from a Cartan matrix (test systems A1, A2, ...)."""
    n = len(matrix)
    cartan = tuple(tuple(int(x) for x in row) for row in matrix)
    for i in range(n):
        if len(cartan[i]) != n:
            raise RootSystemError("Cartan matrix must be square")
        if cartan[i][i] != 2:
            raise RootSystemError("Cartan diagonal must be 2")
        for j in range(n):
            if i != j and (cartan[i][j] not in (0, -1) or cartan[i][j] != cartan[j][i]):
                raise RootSystemError("only symmetric simply-laced Cartan matrices are supported")
    return RootSystem(f"cartan{n}", cartan, None)


def direct_sum(rs1: RootSystem, rs2: RootSystem) -> RootSystem:
    """Orthogonal direct sum; block-diagonal Cartan matrix."""
    n1, n2 = rs1.rank, rs2.rank
    cartan = tuple(
        tuple(rs1.cartan[i]) + (0,) * n2 for i in range(n1)
    ) + tuple(
        (0,) * n1 + tuple(rs2.cartan[i]) for i in range(n2)
    )
    eps = None
    if rs1._simple_eps is not None and rs2._simple_eps is not None:
        d1 = len(rs1._simple_eps[0])
        d2 = len(rs2._simple_eps[0])
        zero1 = (Fraction(0),) * d1
        zero2 = (Fraction(0),) * d2
        eps = [v + zero2 for v in rs1._simple_eps] + [zero1 + v for v in rs2._simple_eps]
    return RootSystem(f"{rs1.type_tag}+{rs2.type_tag}", cartan, eps)


def lex_key(order: SimpleOrder, root: Root) -> tuple[int, ...]:
    return tuple(root.b[i - 1] for i in order.perm)


def first_column(rs: RootSystem, order: SimpleOrder) -> list[Root]:
    """Positive roots whose coefficient on the distinguished simple root is nonzero,
    sorted ascending by (height, lex)."""
    c = order.distinguished - 1
    rows = [r for r in rs.positive_roots if r.b[c] != 0]
    rows.sort(key=lambda r: (r.height, lex_key(order, r)))
    return rows

