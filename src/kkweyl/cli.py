"""Command-line front end: factorization tables, Kostant-Kumar polynomials,
good-pair certificates, and the verification suite.

Exit codes: 0 success, 1 I/O failure, 2 premise-failure table rows,
3 property or certificate failure, 64 usage error, 65 non-reduced word,
69 term budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Optional

from .rootsys import (
    NAMED_ORDERS, RootSystem, RootSystemError, SimpleOrder,
    build_e_system, build_from_cartan, named_order, default_order_name,
)
from . import weyl
from .nilhecke import NilHeckeEngine, BudgetExceeded, DEFAULT_TERM_BUDGET
from .analysis import (
    FactorRow, GoodPairCertificate, GoodPairClauses, gen_table, implied_evidence,
    certify_distinct, scan_good_pairs, AnalysisError, DEFAULT_MAX_COMPUTE_LEN,
)
from . import verify as verify_mod

EX_OK = 0
EX_IO = 1
EX_PREMISE = 2
EX_PROPERTY = 3
EX_USAGE = 64
EX_NONREDUCED = 65
EX_BUDGET = 69

# A failed --recheck record is echoed up to this many characters.
ECHO_CHARS = 200


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_system(type_tag: str) -> RootSystem:
    if type_tag in ("E6", "E7", "E8"):
        return build_e_system(type_tag)
    if len(type_tag) == 2 and type_tag[0] == "A" and type_tag[1].isdigit():
        n = int(type_tag[1])
        if 1 <= n <= 7:
            cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                       for j in range(n)] for i in range(n)]
            return build_from_cartan(cartan)
    raise UsageError(f"unsupported type {type_tag!r} (use A1..A7, E6, E7, E8)")


def resolve_order(rs: RootSystem, type_tag: str, name: Optional[str]) -> SimpleOrder:
    if type_tag in ("E6", "E7", "E8"):
        if name is None:
            name = default_order_name(type_tag)
        try:
            return named_order(type_tag, name)
        except RootSystemError as exc:
            raise UsageError(str(exc)) from None
    if name is not None:
        raise UsageError(f"type {type_tag} has no named orders")
    return SimpleOrder(tuple(range(1, rs.rank + 1)), 1)


def count_arg(text: str) -> int:
    """argparse type for a non-negative integer: a length cap or a budget."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# -- gen-tables -----------------------------------------------------------------

def row_record(row: FactorRow) -> dict:
    eps = [] if row.beta.eps is None else [_frac_str(x) for x in row.beta.eps]
    return {
        "eps": eps,
        "b": list(row.beta.b),
        "u_word": list(row.u_word),
        "u_len": len(row.u_word),
        "premise_ok": row.premise_ok,
    }


def render_table(rows: list[FactorRow], fmt: str) -> str:
    records = [row_record(r) for r in rows]
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["b", "eps", "u_word", "u_len", "premise_ok"])
        for rec in records:
            writer.writerow([
                "".join(str(x) for x in rec["b"]),
                " ".join(rec["eps"]),
                " ".join(str(i) for i in rec["u_word"]),
                rec["u_len"],
                rec["premise_ok"],
            ])
        return buf.getvalue()
    lines = []
    for rec in records:
        b = "".join(str(x) for x in rec["b"])
        word = " ".join(str(i) for i in rec["u_word"])
        flag = "" if rec["premise_ok"] else "   [premise fails]"
        lines.append(f"{b}  l(u)={rec['u_len']:2d}  u = {word}{flag}")
    return "\n".join(lines) + "\n"


def cmd_gen_tables(args) -> int:
    type_tag = args.type
    if type_tag not in ("E6", "E7", "E8"):
        raise UsageError("gen-tables supports types E6, E7, E8")
    names = ([args.order] if args.order
             else sorted(n for t, n in NAMED_ORDERS if t == type_tag))
    rs = build_system(type_tag)
    exit_code = EX_OK
    ext = {"json": "json", "csv": "csv", "text": "txt"}[args.format]
    for name in names:
        order = resolve_order(rs, type_tag, name)
        rows = gen_table(rs, order)
        if any(not r.premise_ok for r in rows):
            exit_code = EX_PREMISE
        text = render_table(rows, args.format)
        path = os.path.join(args.output_dir, f"table_{type_tag}_{name}.{ext}")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path} ({len(rows)} rows)")
    return exit_code


# -- kk -------------------------------------------------------------------------

def parse_word(text: str, rank: int) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        word = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise UsageError(f"word must be whitespace-separated integers: {text!r}")
    for i in word:
        if not 1 <= i <= rank:
            raise UsageError(f"letter {i} out of range 1..{rank}")
    return word


def cmd_kk(args) -> int:
    rs = build_system(args.type)
    word = parse_word(args.word, rs.rank)
    cur = weyl.identity(rs)
    for pos, i in enumerate(word):
        nxt = weyl.multiply_simple(cur, i)
        if nxt.length != cur.length + 1:
            prefix = " ".join(str(j) for j in word[:pos + 1])
            print(f"error: word is not reduced at prefix '{prefix}'",
                  file=sys.stderr)
            return EX_NONREDUCED
        cur = nxt
    engine = NilHeckeEngine(rs, term_budget=args.term_budget)
    result = engine.kk_poly(cur, expand=True)
    print(f"w = {' '.join(str(i) for i in word) or 'id'}")
    print(f"l(w) = {cur.length}")
    print(f"c_w = {result.c_w.render()}")
    print(f"d_w = {result.d_w.render()}")
    return EX_OK


# -- good pairs -------------------------------------------------------------------

def cert_to_json(cert: GoodPairCertificate) -> dict:
    out = {
        "w1": list(weyl.reduced_word(cert.w1)),
        "w2": list(weyl.reduced_word(cert.w2)),
        "beta1_b": list(cert.beta1.b),
        "beta2_b": list(cert.beta2.b),
        "side1": cert.side1,
        "side2": cert.side2,
        "computed": cert.computed,
        "direct_inequality": cert.direct_inequality,
    }
    if cert.divides_evidence is not None:
        ev = cert.divides_evidence
        out["divides_evidence"] = {
            "root_b": list(ev.root.b),
            "divides": ev.divides,
            "not_divides": ev.not_divides,
        }
    return out


def record_checker(rs: RootSystem, order: SimpleOrder,
                   engine: NilHeckeEngine) -> Callable[[object], bool]:
    """A check of one parsed JSON record: true iff the record is, key for key
    and type for type, one that the scan writes for its two involutions.

    A computed record must be the certificate certify_distinct re-derives; a
    symbolic one the bare good pair, or the pair with the evidence its Bruhat
    sides imply, the latter built only when the former does not match.  One
    GoodPairClauses object decides every record, so C1 is built once and
    each C1 meet and each Bruhat side decided once; each distinct word is
    mapped to its element once, which keeps the reduced word cert_to_json
    reads, and each d_w computed once, across all records checked.  A
    malformed record raises ValueError, KeyError or TypeError; a computed
    record whose re-derivation exceeds the engine's term budget raises
    BudgetExceeded, as the check cannot decide it."""
    element = functools.cache(lambda word: weyl.from_word(rs, word))
    good = GoodPairClauses(rs, order, engine.bruhat)
    kk_cache = {}

    def check(rec) -> bool:
        w1, w2 = element(tuple(rec["w1"])), element(tuple(rec["w2"]))
        fresh = good.check(w1, w2)
        text = json.dumps(rec, sort_keys=True)
        if rec["computed"] is True:
            cert = certify_distinct(fresh, engine, max(w1.length, w2.length), kk_cache)
            if not cert.computed:
                raise BudgetExceeded(
                    f"re-deriving a computed record exceeds budget {engine.term_budget}")
            return _writes(cert, text)
        return _writes(fresh, text) or _writes(
            replace(fresh, divides_evidence=implied_evidence(fresh)), text)
    return check


def _writes(cert: GoodPairCertificate, text: str) -> bool:
    """Whether `text`, a record dumped with sorted keys, is the one written
    for `cert`: key for key and type for type, so 1 never passes for true."""
    return json.dumps(cert_to_json(cert), sort_keys=True) == text


def _clip(text: str) -> str:
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


def cmd_good_pairs(args) -> int:
    rs = build_system(args.type)
    order = resolve_order(rs, args.type, args.order)
    engine = NilHeckeEngine(rs, term_budget=args.term_budget)
    if args.recheck:
        bad = count = 0
        check = record_checker(rs, order, engine)
        with open(args.recheck, "rb") as fh:
            for n, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                count += 1
                try:
                    ok = check(json.loads(line.decode()))
                except BudgetExceeded as exc:
                    # undecided rather than false: main exits EX_BUDGET
                    raise BudgetExceeded(f"line {n}: {exc}") from None
                except (ValueError, KeyError, TypeError, RecursionError):
                    # lines that are not UTF-8, unreadable or too deeply nested
                    # JSON, missing keys, bad letters, and AnalysisError /
                    # NilHeckeError from the recheck itself
                    ok = False
                if not ok:
                    bad += 1
                    text = line.decode(errors="replace").strip()
                    print(f"FAIL line {n}: {_clip(text)}", file=sys.stderr)
        print(f"rechecked {count} certificates, {bad} failures")
        return EX_OK if bad == 0 else EX_PROPERTY
    count = 0
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        try:
            for cert in scan_good_pairs(rs, order, args.max_len, engine,
                                        max_compute_len=args.max_compute_len,
                                        certify=not args.no_certify):
                out.write(json.dumps(cert_to_json(cert)) + "\n")
                count += 1
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EX_PROPERTY
    print(f"{count} good pairs", file=sys.stderr)
    return EX_OK


# -- verify -----------------------------------------------------------------------

def cmd_verify(args) -> int:
    rs = build_system(args.type)
    order = resolve_order(rs, args.type, args.order)
    engine = NilHeckeEngine(rs, term_budget=args.term_budget)
    results = verify_mod.run_suite(rs, order, args.max_len, engine,
                                   sample=args.sample)
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{status} {res.name}: {res.passed} passed, {res.failed} failed")
        if not res.ok:
            print(f"  counterexample: {json.dumps(res.counterexample)}")
    return EX_OK if all(res.ok for res in results) else EX_PROPERTY


# -- entry point ---------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kkweyl",
                     description="Exact Kostant-Kumar computations for Weyl groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=True, budget=True):
        p.add_argument("--type", required=True,
                       help="root system type (A1..A7, E6, E7, E8)")
        if order:
            p.add_argument("--order", default=None,
                           help="named simple-root order")
        if budget:
            p.add_argument("--term-budget", type=count_arg, default=DEFAULT_TERM_BUDGET)

    p = sub.add_parser("gen-tables", help="first-column factorization tables")
    common(p, budget=False)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_gen_tables)

    p = sub.add_parser("kk", help="c_w and d_w for a reduced word")
    common(p, order=False)
    p.add_argument("--word", default="",
                   help="whitespace-separated simple indices, empty for id")
    p.set_defaults(func=cmd_kk)

    p = sub.add_parser("good-pairs", help="scan and certify good pairs")
    common(p)
    p.add_argument("--max-len", type=count_arg, default=3)
    p.add_argument("--max-compute-len", type=count_arg, default=DEFAULT_MAX_COMPUTE_LEN)
    p.add_argument("--no-certify", action="store_true")
    p.add_argument("--output", default=None)
    p.add_argument("--recheck", default=None, metavar="FILE",
                   help="re-validate certificates from FILE instead of scanning")
    p.set_defaults(func=cmd_good_pairs)

    p = sub.add_parser("verify", help="run the property suite")
    common(p)
    p.add_argument("--max-len", type=count_arg, default=None)
    p.add_argument("--sample", type=count_arg, default=verify_mod.DEFAULT_SAMPLE)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except BudgetExceeded as exc:
        print(f"error: term budget exceeded: {exc}", file=sys.stderr)
        return EX_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_IO


if __name__ == "__main__":
    sys.exit(main())
