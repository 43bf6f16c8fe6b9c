"""The benchmark reads kkweyl by name: the tracer wraps functions by owner and
attribute, and the workloads and checks read engine and result fields.  A
refactor that renames or removes one would break `bench/run.py`."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def test_tracing_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, owner, attr, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert not missing


def test_bench_selftest_passes():
    """bench/selftest.py runs every workload checker on a small real result and
    on a corrupted copy, importing kkweyl from this checkout's sources; it
    exits 0 when every case holds."""
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_scan_e7_run():
    """One traced scan-e7 run wraps every tracer target on a real unit, among
    them weyl.reduced_word and cli.cert_to_json, and checks its output."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"),
                           "--workload", "scan-e7", "--seed", "1",
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert result["attempted"] > 0 and result["failed"] == 0


def test_traced_fold_e6_run():
    """One traced fold-e6 run: the fold makes only trial divisions that
    succeed, builds each of E6's 36 root linear forms at most once, and
    makes no more MPoly products than one per missing root of a sum."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"),
                           "--workload", "fold-e6", "--seed", "1",
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert result["attempted"] > 0 and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert (metrics["polyring.divide_by_linear.calls"]
            == metrics["polyring.divide_by_linear.exact"])
    assert metrics["polyring.root_linear_form.calls"] <= 36
    assert metrics["polyring.mpoly_mul.calls"] <= 5260
