"""The benchmark workloads.

A workload has a set-up (root system, a fresh engine with cold memos, and the
inputs), one unit of timed work driven through kkweyl's public functions, the
number of operations in a unit, and a check of the unit's output.  Every unit
gets a fresh set-up because a command-line user pays for cold memos on every
invocation.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from kkweyl import analysis, cli, nilhecke, verify, weyl

import checks


def longest_element(rs):
    w = weyl.identity(rs)
    while True:
        ascent = next((i for i in range(1, rs.rank + 1)
                       if weyl.act_on_simple(w, i) > 0), None)
        if ascent is None:
            return w
        w = weyl.multiply(w, weyl.simple_reflection(rs, ascent))


def _system(type_tag):
    rs = cli.build_system(type_tag)
    order = cli.resolve_order(rs, type_tag, None)
    return rs, order, nilhecke.NilHeckeEngine(rs)


class Fold:
    """x_w and factored d_w along the prefixes of the canonical reduced word
    of the longest element: the nil-Hecke fold and the normalisation of many
    small rational functions, with no large polynomial."""

    def __init__(self, type_tag: str, prefix: int):
        self.type_tag, self.prefix = type_tag, prefix
        self.ops = prefix  # one x_w and one kk_poly per prefix

    def setup(self):
        rs, _, engine = _system(self.type_tag)
        word = weyl.reduced_word(longest_element(rs))[:self.prefix]
        return SimpleNamespace(rs=rs, engine=engine, word=word)

    def run(self, ctx):
        xs, kks = [], []
        for p in range(1, len(ctx.word) + 1):
            xs.append(ctx.engine.x_w(ctx.word[:p]))
            w = weyl.from_word(ctx.rs, ctx.word[:p])
            kks.append(ctx.engine.kk_poly(w, expand=False))
        return xs, kks

    def check(self, ctx, out, rng):
        xs, kks = out
        problems = checks.check_fold(ctx.rs, ctx.word, xs, kks, rng)
        if len(xs) != self.prefix:
            problems.append(f"fold: {len(xs)} prefixes folded, expected {self.prefix}")
        return problems


class Certify:
    """certify_distinct on fixed good pairs: d_w expansion through MPoly
    multiplication, then trial division by a linear form."""

    def __init__(self, type_tag: str, pairs):
        self.type_tag, self.pairs = type_tag, pairs
        self.ops = len(pairs)

    def setup(self):
        rs, order, engine = _system(self.type_tag)
        certs = [analysis.is_good_pair(weyl.from_word(rs, a), weyl.from_word(rs, b),
                                       rs, order, engine.bruhat)
                 for a, b in self.pairs]
        return SimpleNamespace(rs=rs, order=order, engine=engine, certs=certs)

    def run(self, ctx):
        cache = {}
        out = [analysis.certify_distinct(c, ctx.engine, kk_cache=cache)
               for c in ctx.certs]
        return out, cache

    def check(self, ctx, out, rng):
        certs, cache = out
        problems = checks.check_certify(ctx.rs, ctx.order, certs, cache, rng)
        if len(certs) != len(self.pairs):
            problems.append(f"certify: {len(certs)} certificates for {len(self.pairs)} pairs")
        return problems


class Scan:
    """The uncertified good-pair scan, serialised as the CLI writes it: Weyl
    group and Bruhat work only, no polynomial."""

    ops = 1

    def __init__(self, type_tag: str, max_len: int):
        self.type_tag, self.max_len = type_tag, max_len

    def setup(self):
        rs, order, engine = _system(self.type_tag)
        return SimpleNamespace(rs=rs, order=order, engine=engine)

    def run(self, ctx):
        return [json.dumps(cli.cert_to_json(cert))
                for cert in analysis.scan_good_pairs(ctx.rs, ctx.order, self.max_len,
                                                     ctx.engine, certify=False)]

    def check(self, ctx, out, rng):
        return checks.check_scan(ctx.rs, ctx.order, self.max_len, out)


class Verify:
    """The property suite as `kkweyl verify` runs it."""

    ops = len(checks.VERIFY_NAMES)

    def __init__(self, type_tag: str, max_len: int, exponents):
        self.type_tag, self.max_len, self.exponents = type_tag, max_len, exponents

    def setup(self):
        rs, order, engine = _system(self.type_tag)
        return SimpleNamespace(rs=rs, order=order, engine=engine)

    def run(self, ctx):
        return verify.run_suite(ctx.rs, ctx.order, self.max_len, ctx.engine)

    def check(self, ctx, out, rng):
        return checks.check_verify(out, self.exponents, self.max_len,
                                   ctx.engine.brute_cap)


# Both members of the pair have length 4; each d_w expands to 234,713 terms.
CERTIFY_PAIR = ((1, 2, 3, 1), (1, 2, 4, 2))

WORKLOADS = {
    "fold-e6": Fold("E6", 18),
    "certify-e6": Certify("E6", [CERTIFY_PAIR]),
    "scan-e7": Scan("E7", 6),
    "verify-e6": Verify("E6", 5, (1, 4, 5, 7, 8, 11)),
}
