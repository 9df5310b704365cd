"""isingbell benchmark: regenerate datasets through the public CLI and time them.

Run from the root of a checkout:

    python3 bench/run.py --workload shortcut-cli --seed 1 --seconds 55 --trace 0

The workloads (see ``workloads.py``) call ``isingbell.cli.main(argv)``
in-process, one call after another, the way users regenerate datasets.  A
run imports the sources under ``src/``, makes one untimed warm-up call per
workload shape, then:

* ``--trace 0`` repeats timed passes of the workload while another pass
  still fits in ``--seconds`` (at least one) and reports the median
  ``wall_s``, ``peak_rss_mb`` (self plus waited-for children), and
  ``setup_s``: the median over fresh interpreters that import
  ``isingbell.cli`` and complete ``isingbell limit``;
* ``--trace 1`` makes one traced pass and reports the per-layer metrics
  of ``spans.py``.

Every pass's artifacts are checked afterwards, outside the timed region; an
exception, a nonzero exit or a failed check counts as a failed operation.
The last line of stdout is the JSON result.  Artifacts, the CLI log and the
spans stay under ``.bench_out/<workload>/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, so that the only
# parallelism measured is the program's own.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Refs, Workload, failed_ops  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_RUNS = 5
SETUP_CODE = "import sys, isingbell.cli; sys.exit(isingbell.cli.main(['limit']))"
SETUP_TIMEOUT_S = 60


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: Workload, argvs: list) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "workload": workload.name,
        "why": workload.why,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "argv": argvs,
    }


def run_pass(argvs: list, out: Path, log) -> tuple[float, list]:
    """Call the CLI once per (name, argv), artifacts under ``out/<name>``.
    Wall time runs from the first call to the return of the last one."""
    from isingbell import cli

    codes = []
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        for name, argv in argvs:
            try:
                codes.append(cli.main([*argv, "--out", str(out / name)]))
            except Exception:  # a crashing call is a failed operation; the run goes on
                traceback.print_exc(file=log)
                codes.append(None)
        wall = time.perf_counter() - start
    return wall, codes


def setup_times(refs: Refs) -> tuple[list[float], int]:
    """Wall times of fresh interpreters importing ``isingbell.cli`` and
    completing ``isingbell limit``, and how many of them failed."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    times, failed = [], 0
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            ok = proc.returncode == 0 and round(float(proc.stdout), 4) == refs.ceiling
        except (subprocess.TimeoutExpired, ValueError):
            ok = False
        times.append(time.perf_counter() - start)
        failed += not ok
    return times, failed


def _cpu_s() -> float:
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(workload: Workload, seed: int, seconds: float, trace: bool, small: bool = False,
        refs: Refs = Refs()) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    calls = workload.calls(seed, small)
    argvs = [(c.name, c.argv) for c in calls]
    prov = provenance(workload, [list(a) for _, a in argvs])
    (out / "provenance.json").write_text(json.dumps(prov, indent=2) + "\n")
    print("provenance: " + json.dumps(prov))

    walls, passes = [], []
    with open(out / "cli.log", "w") as log:

        def timed_pass():
            wall, codes = run_pass(argvs, out / f"pass{len(walls)}", log)
            walls.append(wall)
            passes.append(codes)

        run_pass([(f"warmup{i}", argv) for i, argv in enumerate(workload.warmup)], out / "warmup", log)
        if trace:
            tracer = spans.Tracer()
            cpu_start = _cpu_s()
            try:
                tracer.install()
                timed_pass()
            finally:
                tracer.uninstall()
            cpu = _cpu_s() - cpu_start
        else:
            timed_pass()
            while sum(walls) + walls[-1] <= seconds:
                timed_pass()

    attempted = len(passes) * sum(c.ops for c in calls)
    failed = sum(failed_ops(c, code, out / f"pass{i}" / c.name, refs)
                 for i, codes in enumerate(passes) for c, code in zip(calls, codes))
    if trace:
        tracer.write(out / "spans.jsonl")
        values = spans.layer_metrics(tracer.spans, walls[0])
        values.update({
            "cli.artifacts.bytes": _bytes(out / "pass0"),
            "run.cpu_s": cpu,
            "run.cpu_util": cpu / walls[0],
            "trace.overhead_frac": spans.span_cost_s() * len(tracer.spans) / walls[0],
        })
        units = spans.LAYER_METRICS
        print("note: spans cover calls in this process only; calls inside worker processes "
              "are not traced, but run.cpu_s counts the CPU time of waited-for children")
        print("absent: " + (", ".join(tracer.absent) or "none"))
    else:
        # read before the set-up interpreters run, which are children too
        peak_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
        setup, setup_failed = setup_times(refs)
        attempted += SETUP_RUNS
        failed += setup_failed
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup), "peak_rss_mb": peak_mib}
        units = END_TO_END
        print(f"passes: {len(walls)}  wall_s each: {', '.join(f'{w:.3f}' for w in walls)}")
        print(f"setup_s each: {', '.join(f'{s:.3f}' for s in setup)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"ops: {attempted}")
    print(f"ops_failed: {failed}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time isingbell CLI workloads end to end or layer by layer.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isingbell" / "cli.py").is_file():
        print(f"error: no isingbell sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
