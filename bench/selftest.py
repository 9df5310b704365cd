"""Self-test of the benchmark harness.  Run from the root of a checkout:

    python3 bench/selftest.py

Runs every workload once at reduced size (50 segments, one seeded tqd call;
`repro fig1b` has no size flag and runs in full), in both trace modes, and
asserts that every metric of BENCHMARK.json is printed with its unit.  It
then feeds the checks wrong references and asserts that the failures show up
in ``failed``, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys

import run  # sets the BLAS thread variables before numpy loads
from workloads import WORKLOADS, Refs, failed_ops

SEED = 3


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def metric_units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def recheck(workload, refs: Refs) -> int:
    """Failed operations of pass0 of the last run, checked against ``refs``."""
    out = run.OUT / workload.name / "pass0"
    return sum(failed_ops(c, 0, out / c.name, refs) for c in workload.calls(SEED, True))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sys.path.insert(0, str(run.SRC))

    for name, workload in WORKLOADS.items():
        traced = run.run(workload, SEED, seconds=1, trace=True, small=True)
        expect(metric_units(traced) == per_layer, f"{name}: traced run prints every per-layer metric with its unit")
        plain = run.run(workload, SEED, seconds=1, trace=False, small=True)
        expect(metric_units(plain) == end_to_end, f"{name}: run prints every end-to-end metric with its unit")
        expect(plain["attempted"] >= 1 and all(m["value"] > 0 for m in plain["metrics"].values()),
               f"{name}: operations attempted and end-to-end metrics nonzero")
        if name != "series-joint":  # its continuous-time bound check fails on some seeds
            expect(plain["correct"] and plain["failed"] == 0, f"{name}: no operation failed")
        base = recheck(workload, Refs())
        if name == "shortcut-cli":
            wrong = Refs(anchors={"symmetric": 0.5, "nonsymmetric": 0.9991}, ceiling=0.5)
            expect(recheck(workload, wrong) == base + 3, f"{name}: wrong anchor and ceiling fail 3 operations")
            expect(traced["metrics"]["optimize.adjoint_gradient.calls"]["value"] == 0, f"{name}: optimizer idle")
        elif name == "bangbang-sweep":
            wrong = Refs(cell_min={0.0: 1.5, -0.11: 0.999})
            expect(recheck(workload, wrong) == base + 1, f"{name}: wrong delta = 0 floor fails its cell")
        else:
            wrong = Refs(series_min=1.5)
            expect(recheck(workload, wrong) == 1, f"{name}: wrong fidelity floor fails the optimization")

    # a directory holding only BENCHMARK.json and the benchmark must be refused
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "shortcut-cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and "correct" not in proc.stdout, "refuses to run without the sources")
    shutil.rmtree(bare)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
