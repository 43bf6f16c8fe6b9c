"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each workload's checker runs on a small real result, which must pass, and on
the same result with one deliberate corruption, which must be rejected.  The
test also confirms that BENCHMARK.json names exactly the workloads and metrics
the runner produces.  Exits 0 when every case holds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def perturb_coefficient(ctx, out):
    """One term of one coefficient of x_w at the last prefix is doubled."""
    xs, kks = out
    last = xs[-1]
    k = len(last.coeffs) // 2
    v, f = last.coeffs[k]
    terms = dict(f.num.terms)
    key = next(iter(terms))
    terms[key] *= 2
    bad = dataclasses.replace(f, num=type(f.num)(f.num.n, terms))
    coeffs = last.coeffs[:k] + ((v, bad),) + last.coeffs[k + 1:]
    return xs[:-1] + [dataclasses.replace(last, coeffs=coeffs)], kks


def drop_term(ctx, out):
    """One term of the expanded d_w1 is dropped."""
    certs, cache = out
    w1 = certs[0].w1
    r = cache[w1]
    terms = dict(r.d_w.terms)
    terms.pop(next(iter(terms)))
    bad = dict(cache)
    bad[w1] = dataclasses.replace(r, d_w=type(r.d_w)(r.d_w.n, terms))
    return certs, bad


def flip_side1(ctx, out):
    """The side1 flag of the first certificate is flipped."""
    rec = json.loads(out[0])
    rec["side1"] = not rec["side1"]
    return [json.dumps(rec)] + out[1:]


def drop_case(ctx, out):
    """The support law reports one case fewer."""
    k = next(i for i, r in enumerate(out) if r.name == "support_law")
    return out[:k] + [dataclasses.replace(out[k], passed=out[k].passed - 1)] + out[k + 1:]


def run_case(name, wl, corrupt) -> bool:
    ctx = wl.setup()
    out = wl.run(ctx)
    clean = wl.check(ctx, out, random.Random(0))
    bad = wl.check(ctx, corrupt(ctx, out), random.Random(0))
    ok = not clean and bool(bad)
    detail = clean[:1] if clean else bad[:1]
    print(f"{'ok  ' if ok else 'FAIL'} {name}: clean result {len(clean)} problems, "
          f"corrupted ({corrupt.__doc__.strip()}) {len(bad)} problems {detail}")
    return ok


def benchmark_json_matches() -> bool:
    import tracing
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = {
        "workloads": set(workloads.WORKLOADS),
        "end_to_end": {(n, u) for n, u in run.END_TO_END.items()},
        "per_layer": {(n, u) for n, u in tracing.PER_LAYER.items()} | {("trace.overhead_s", "s")},
    }
    have = {
        "workloads": {w["name"] for w in spec["workloads"]},
        "end_to_end": {(m["name"], m["unit"]) for m in spec["end_to_end"]},
        "per_layer": {(m["name"], m["unit"]) for m in spec["per_layer"]},
    }
    ok = True
    for key in want:
        if want[key] != have[key]:
            ok = False
            print(f"FAIL BENCHMARK.json {key}: missing {sorted(want[key] - have[key])}, "
                  f"extra {sorted(have[key] - want[key])}")
    if ok:
        print("ok   BENCHMARK.json names the runner's workloads and metrics")
    return ok


def main() -> int:
    error = run.import_engine()
    if error:
        print(error, file=sys.stderr)
        return 2
    import checks
    import workloads

    results = [
        run_case("fold (E6, prefix 10)", workloads.Fold("E6", 10), perturb_coefficient),
        run_case("certify (A4, one pair)",
                 workloads.Certify("A4", [((1,), (1, 2, 1))]), drop_term),
        run_case("scan (E6, length <= 4)", workloads.Scan("E6", 4), flip_side1),
        run_case("verify (A3, length <= 3)", workloads.Verify("A3", 3, (1, 2, 3)), drop_case),
        benchmark_json_matches(),
    ]
    e6_count = checks.poincare_count((1, 4, 5, 7, 8, 11), 5)
    results.append(e6_count == 377)
    print(f"{'ok  ' if e6_count == 377 else 'FAIL'} E6 elements of length <= 5: {e6_count}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
