"""kkweyl benchmark runner.

    python3 bench/run.py --workload fold-e6 --seed 1 --seconds 18 --trace 0

Runs whole units of one workload until `--seconds` have passed, checks every
unit's output, and prints one JSON object as the last line of standard output:
correctness, operations attempted and failed, and the metrics.  With
`--trace 0` these are the end-to-end metrics (medians over the units); with
`--trace 1` each round runs one untraced and one traced unit and reports the
per-layer counters and timers plus the tracing overhead.  The line before it
holds the raw per-unit times and the reference-loop times.

The speed of the shared machine drifts by tens of percent within seconds to
minutes, so times are reported at a fixed machine speed, measured with a
fixed pure-Python reference loop.  While a unit runs, a timer signal times a
short run of the loop every PROBE_INTERVAL seconds; the unit's time, less the
time spent in those probes, is scaled by REF_S over the median probe time
(per REF_ITERS iterations).  Set-up samples are scaled by the reference time
taken right before them.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Extra set-ups before every unit, so that setup_s is a median of many
# samples spread over the run rather than taken in one burst.
SETUP_REPS = 8
# Reported times are those of a machine on which ref_loop() takes REF_S
# seconds; a reference time between units is the median of REF_REPS loops.
REF_S = 0.1
REF_ITERS = 1_000_000
REF_REPS = 5
# During a unit, a probe of PROBE_ITERS iterations (about 5 ms) runs every
# PROBE_INTERVAL seconds, 2-3 % of the unit's time.
PROBE_ITERS = 50_000
PROBE_INTERVAL = 0.2


def import_engine() -> str | None:
    """Import kkweyl from this checkout's sources; an error message on failure."""
    sys.path.insert(0, str(SRC))
    try:
        import kkweyl
    except ImportError as exc:
        return f"cannot import kkweyl from {SRC}: {exc}"
    if Path(kkweyl.__file__).resolve().parent.parent != SRC.resolve():
        return f"kkweyl was imported from {kkweyl.__file__}, not from {SRC}"
    return None


def ref_loop(iterations: int = REF_ITERS) -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


class SpeedProbe:
    """Times a short reference loop on a timer signal while a unit runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _probe(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(ref_loop(PROBE_ITERS) * REF_ITERS / PROBE_ITERS)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_mb = 0.0
        self.refs: list[float] = []
        self.probes: list[float] = []
        self.raw_walls: list[float] = []

    def ref(self) -> float:
        self.refs.append(statistics.median(ref_loop() for _ in range(REF_REPS)))
        return self.refs[-1]


def time_setup(wl) -> float:
    gc.collect()
    t0 = perf_counter()
    wl.setup()
    return perf_counter() - t0


def run_unit(wl, tally: Tally, tracer=None):
    """Set up and run one unit: (context, output, raw set-up seconds, wall
    seconds at the reference speed), or None if it raised."""
    tally.attempted += wl.ops
    if tracer is not None:
        tracer.install()
    try:
        gc.collect()
        t0 = perf_counter()
        ctx = wl.setup()
        setup = perf_counter() - t0
        gc.collect()
        with SpeedProbe() as probe:
            t0 = perf_counter()
            out = wl.run(ctx)
            raw = perf_counter() - t0
    except Exception:
        traceback.print_exc()
        tally.failed += wl.ops
        return None
    finally:
        if tracer is not None:
            tracer.remove()
    tally.peak_mb = peak_rss_mb()
    wall = raw - probe.spent
    tally.raw_walls.append(wall)
    speed = statistics.median(probe.samples) if probe.samples else tally.refs[-1]
    tally.probes.append(speed)
    return ctx, out, setup, wall * REF_S / speed


def measure(wl, rng, seconds: float, tally: Tally):
    walls, setups = [], []
    start = perf_counter()
    while True:
        ref = tally.ref()
        batch = [time_setup(wl) for _ in range(SETUP_REPS)]
        unit = run_unit(wl, tally)
        if unit is not None:
            ctx, out, setup, wall = unit
            walls.append(wall)
            setups += [t * REF_S / ref for t in batch + [setup]]
            tally.problems += wl.check(ctx, out, rng)
            # free this unit's memory before the next one runs
            del unit, ctx, out
        if perf_counter() - start >= seconds:
            break
    if not walls:
        return {}, walls
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": tally.peak_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, walls


def measure_traced(wl, rng, seconds: float, tally: Tally):
    import tracing

    plain, traced, layers = [], [], []
    tally.ref()
    start = perf_counter()
    while True:
        walls = []
        tracer = tracing.Tracer()
        for t in (None, tracer):
            unit = run_unit(wl, tally, t)
            if unit is not None:
                ctx, out, _, wall = unit
                walls.append(wall)
                tally.problems += wl.check(ctx, out, rng)
                del unit, ctx, out
        if len(walls) == 2:
            plain.append(walls[0])
            traced.append(walls[1])
            layers.append(tracer.metrics())
        if perf_counter() - start >= seconds:
            break
    if not layers:
        return {}, traced
    metrics = {name: (statistics.median(m[name] for m in layers), unit)
               for name, unit in tracing.PER_LAYER.items()}
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_engine()
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    tally = Tally()
    measure_fn = measure_traced if args.trace else measure
    metrics, walls = measure_fn(wl, rng, args.seconds, tally)

    correct = bool(metrics) and not tally.problems
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "unit_wall_s": walls, "raw_unit_wall_s": tally.raw_walls,
        "probe_ref_s": tally.probes, "ref_loop_s": tally.refs,
        "problems": tally.problems,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
