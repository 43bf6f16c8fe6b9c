"""Exact Weyl group elements as signed permutations of the positive roots.

An element stores, for each positive root index k (0-based), the signed
1-based index of its image.  Multiplication is table composition; the length
of an element is its number of inversions.

`WeylElt` has `__slots__`: `rs`, `perm`, one slot per answer it keeps once
computed (length, canonical word, involution test, hash) and its signed
table `(0,) + perm + (negated perm, reversed)`, built when it is first the
left operand of `multiply`.  The table maps a signed index x to a(x) (a
negative x reads from the end), so a*b is one `itemgetter` read of a's table
through b.perm.
"""

from __future__ import annotations

from typing import Iterator

from .rootsys import Root, RootSystem, SimpleOrder, _tuple_getter, lex_key

Word = tuple[int, ...]


class WeylError(ValueError):
    pass


class WeylElt:
    __slots__ = ("rs", "perm", "_length", "_word", "_is_involution", "_table", "_hash")

    def __init__(self, rs: RootSystem, perm: tuple[int, ...],
                 length: int | None = None):
        self.rs = rs
        self.perm = perm
        self._length = length
        self._word = self._is_involution = self._table = self._hash = None

    def __hash__(self):
        # hash(perm), taken once and kept in its slot as `length` is
        h = self._hash
        if h is None:
            h = self._hash = hash(self.perm)
        return h

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.perm == other.perm

    def __repr__(self):
        return f"WeylElt(perm={self.perm!r})"

    @property
    def length(self) -> int:
        # Counted once per element and kept in its slot; equality, hash and
        # repr stay on perm.
        n = self._length
        if n is None:
            n = self._length = sum(1 for x in self.perm if x < 0)
        return n

    def is_identity(self) -> bool:
        return self.length == 0

    def is_involution(self) -> bool:
        # w(w(beta_k)) = beta_k for every positive root, read off the perm and
        # decided once, as `length` is.
        answer = self._is_involution
        if answer is None:
            p = self.perm
            answer = self._is_involution = all(
                p[x - 1] == k if x > 0 else p[-x - 1] == -k
                for k, x in enumerate(p, 1))
        return answer


def identity(rs: RootSystem) -> WeylElt:
    return WeylElt(rs, tuple(range(1, len(rs.positive_roots) + 1)))


def simple_reflection(rs: RootSystem, i: int) -> WeylElt:
    """The reflection s_i in the simple root alpha_i (1-based): the element
    that `reflection` memoises for alpha_i."""
    if not 1 <= i <= rs.rank:
        raise WeylError(f"simple index {i} out of range")
    return _reflection(rs, rs.simple_index[i - 1])


def multiply(a: WeylElt, b: WeylElt) -> WeylElt:
    """Composition a*b, acting as a(b(.)): b.perm read through a's signed
    table, which a keeps from its first use as a left operand."""
    if a.rs is not b.rs:
        raise WeylError("elements from different root systems")
    table = a._table
    if table is None:
        p = a.perm
        table = a._table = (0,) + p + tuple(-x for x in reversed(p))
    return WeylElt(a.rs, _tuple_getter(b.perm)(table))


def multiply_simple(w: WeylElt, i: int) -> WeylElt:
    """w s_i (i 1-based) from one read of w.perm through rs.right_steps, with
    its length set: l(w) + 1 when w(alpha_i) is positive, l(w) - 1 when not.
    Every right step w s_i of the library goes through here; the subword and
    brute-force oracles keep the generic multiply."""
    if not 1 <= i <= w.rs.rank:
        raise WeylError(f"simple index {i} out of range")
    j, get = w.rs.right_steps[i - 1]
    p = get(w.perm)
    x = p[j]
    return WeylElt(w.rs, p[:j] + (-x,) + p[j + 1:],
                   w.length + (1 if x > 0 else -1))


def inverse(a: WeylElt) -> WeylElt:
    out = [0] * len(a.perm)
    for k, x in enumerate(a.perm):
        if x > 0:
            out[x - 1] = k + 1
        else:
            out[-x - 1] = -(k + 1)
    return WeylElt(a.rs, tuple(out))


def act_on_simple(w: WeylElt, i: int) -> int:
    """Signed positive-root index of w(alpha_i), i 1-based."""
    return w.perm[w.rs.simple_index[i - 1]]


def from_word(rs: RootSystem, word: Word) -> WeylElt:
    w = identity(rs)
    for i in word:
        w = multiply_simple(w, i)
    return w


def reduced_word(w: WeylElt) -> Word:
    """Canonical reduced word: repeatedly strip the smallest left descent.
    A left descent s_i of w is a right descent of u = w^{-1}, read off as
    u(alpha_i) < 0, and s_i w = (u s_i)^{-1}, so the walk steps u to the right.
    Computed once per element and kept in its slot, like length."""
    word = w._word
    if word is None:
        out = []
        u = inverse(w)
        simple = w.rs.simple_index
        while u.length:
            i = next(i for i, k in enumerate(simple, 1) if u.perm[k] < 0)
            out.append(i)
            u = multiply_simple(u, i)
        word = w._word = tuple(out)
    return word


def reflection(rs: RootSystem, beta: Root) -> WeylElt:
    """The reflection s_beta for a positive root beta: the element memoised
    on rs, so what it caches, its length among them, is computed once per
    system.  WeylError for a negative root, RootSystemError for no root."""
    x = rs.signed_index(beta.b)
    if x < 0:
        raise WeylError("reflection expects a positive root")
    return _reflection(rs, x - 1)


def _reflection(rs: RootSystem, k: int) -> WeylElt:
    """s_beta for the positive root of index k, built on first use and
    memoised on rs by k.  A simple root's is its row of rs.reflection_table.
    Any other beta has a simple root alpha_i whose table entry gamma = s_i(beta)
    is positive and one height lower, so of a smaller index, and
    s_beta = s_i s_gamma s_i (w s_gamma w^-1 = s_{w(gamma)}): two table reads."""
    s = rs.reflection_memo.get(k)
    if s is None:
        table = rs.reflection_table
        i = next((i for i, row in enumerate(table) if 0 < row[k] <= k), None)
        if i is None:
            s = WeylElt(rs, table[rs.simple_index.index(k)])
        else:
            s = multiply(_reflection(rs, rs.simple_index[i]),
                         multiply_simple(_reflection(rs, table[i][k] - 1), i + 1))
        rs.reflection_memo[k] = s
    return s


# -- Bruhat order ------------------------------------------------------------

class BruhatOrder:
    """Bruhat comparison by one greedy pass along a reduced word of w.

    If s_i is a right descent of w, then v <= w exactly when v s_i <= w s_i
    if s_i is also a right descent of v, and v <= w s_i if not (the lifting
    property, Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 2.2.7,
    moved to the right by inversion, which preserves Bruhat order).  The last
    letter of a reduced word of w is a right descent, so the recursion never
    branches: read the word from the right, strip each letter that is a right
    descent of the current v, and v <= w exactly when v ends at the identity
    (the subword property, Thm. 2.2.2; Deodhar, Invent. Math. 39, 1977).
    A query reads at most l(w) entries of v and l(v) tables of
    rs.right_steps, which multiply_simple reads too.  Nothing is memoised,
    and once w keeps its reduced word no WeylElt is built.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._steps = rs.right_steps

    def leq(self, v: WeylElt, w: WeylElt) -> bool:
        if v.rs is not self.rs or w.rs is not self.rs:
            raise WeylError("elements from a different root system")
        lv, left = v.length, w.length
        if lv >= left:   # equal lengths and v <= w force v = w
            return lv == left and v.perm == w.perm
        if lv == 0:
            return True
        pv, steps = v.perm, self._steps
        for i in reversed(w._word or reduced_word(w)):
            j, get = steps[i - 1]
            if pv[j] < 0:
                if lv == 1:
                    return True
                pv = get(pv)
                pv = pv[:j] + (-pv[j],) + pv[j + 1:]
                lv -= 1
            left -= 1
            if lv > left:
                return False
        return False


def bruhat_interval_subword(w: WeylElt) -> set[WeylElt]:
    """Brute-force lower Bruhat interval: all products of subwords of a reduced
    word of w.  Test oracle only; exponential in l(w)."""
    rs = w.rs
    word = reduced_word(w)
    out: set[WeylElt] = set()

    def go(pos: int, cur: WeylElt):
        if pos == len(word):
            out.add(cur)
            return
        go(pos + 1, cur)
        go(pos + 1, multiply(cur, simple_reflection(rs, word[pos])))

    go(0, identity(rs))
    return out


# -- parabolic decomposition --------------------------------------------------

def parabolic_factorize(w: WeylElt, I: frozenset[int] | set[int]) -> tuple[WeylElt, WeylElt]:
    """Unique w = u*v with u of minimal length in its coset and v in W_I.

    l(u s_i) > l(u) for every i in I, and l(w) = l(u) + l(v).
    """
    u = w
    v_word: list[int] = []
    while True:
        for i in sorted(I):
            if act_on_simple(u, i) < 0:
                u = multiply_simple(u, i)
                v_word.insert(0, i)
                break
        else:
            break
    return u, from_word(w.rs, tuple(v_word))


# -- involutions ---------------------------------------------------------------

def support(w: WeylElt, order: SimpleOrder) -> list[Root]:
    """Orthogonal support of an involution: greedily extract the lex-maximal
    negated positive root and peel its reflection off, until the identity.

    The positive roots are scanned once, in descending lex order (kept on rs
    per order).  Peeling s_beta off leaves the involution whose -1 eigenspace
    is that of the current one orthogonal to beta, so every root negated
    later is negated now and lies after beta in the scan."""
    rs = w.rs
    if not w.is_involution():
        raise WeylError("support is defined for involutions only")
    scan = rs.lex_scans.get(order.perm)
    if scan is None:
        roots = rs.positive_roots
        scan = rs.lex_scans[order.perm] = tuple(sorted(
            range(len(roots)), key=lambda k: lex_key(order, roots[k]), reverse=True))
    e = tuple(range(1, len(w.perm) + 1))
    out: list[Root] = []
    cur = w
    if cur.perm != e:
        for k in scan:
            if cur.perm[k] == -(k + 1):
                out.append(rs.positive_roots[k])
                cur = multiply(_reflection(rs, k), cur)
                if cur.perm == e:
                    break
        else:
            raise WeylError("involution with no negated root; corrupted element")
    return out


def enumerate_involutions(rs: RootSystem, max_len: int) -> Iterator[WeylElt]:
    """All involutions of length <= max_len, by twisted ascents from the
    identity; layer by layer in length, each layer sorted by perm (the order
    in which `enumerate_elements` meets them).

    For an involution w and a right ascent s_i (w(alpha_i) > 0) the twisted
    action gives w s_i of length l(w) + 1 when s_i w s_i = w, that is when
    w s_i is itself an involution, and s_i w s_i of length l(w) + 2 when not
    (the lifting property, Bjorner-Brenti Prop. 2.2.7).  Every involution but
    the identity has a descent whose twisted action lowers its length
    (Richardson-Springer, The Bruhat order on symmetric varieties, Geom.
    Dedicata 35, 1990), so each is reached through involutions no longer
    than itself: the walk visits only involutions and stops at the cap.
    """
    simple = rs.simple_index
    e = identity(rs)
    pending = {0: {e.perm: e}}
    n = 0
    while pending:
        found = pending.pop(n, {})
        layer = [found[k] for k in sorted(found)]
        yield from layer
        for w in layer:
            p = w.perm
            for i, k in enumerate(simple, 1):
                if p[k] < 0:
                    continue
                u = multiply_simple(w, i)
                if p[k] != k + 1:   # w s_i is an involution iff w(alpha_i) = alpha_i
                    u = multiply(simple_reflection(rs, i), u)
                    u._length = n + 2
                u._is_involution = True
                if u._length <= max_len:
                    pending.setdefault(u._length, {}).setdefault(u.perm, u)
        n += 1


def enumerate_elements(rs: RootSystem, max_len: int) -> Iterator[WeylElt]:
    """All elements of length <= max_len, in deterministic BFS order."""
    layer = [identity(rs)]
    yield layer[0]
    for _ in range(max_len):
        nxt = {}
        for w in layer:
            for i in range(1, rs.rank + 1):
                if act_on_simple(w, i) > 0:
                    ws = multiply_simple(w, i)
                    nxt.setdefault(ws.perm, ws)
        layer = [nxt[k] for k in sorted(nxt)]
        yield from layer
        if not layer:
            break
