"""Check that two revisions give the same outputs, byte for byte.

Clones both revisions (``bench_record.checkout``) and runs every argv as
``python -m isingbell <argv> --out o`` in a fresh directory per side, with
BLAS pinned to one thread as ``bench/run.py`` pins it:

    python3 scripts/same_outputs.py --parent HEAD~1 --change HEAD

The argvs are the seed-1 calls of the workloads that ``BENCHMARK.json``
lists, read from the parent clone's ``bench/workloads.py`` (the
``bangbang-sweep`` call is a 14-cell ``sweep-detuning``), then ``ARGVS``.
Each side's exit code, stdout, stderr and every file it wrote are compared;
one line per argv reads ``same`` or ``differs: <paths>``, and the exit
code is 1 when any argv differs, 2 when a revision names no commit.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import RUN_TIMEOUT_S, SIDES, checkout

BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
#: both routes of ``simulate`` on one piece, RK4 at a strong detuning and at
#: a duration that is no short binary fraction, piecewise optima, a duration
#: sweep, the table1 series and one shortcut trajectory; then the warm
#: starts: series fed forward over harmonic counts (fig4c, about 5 s a side)
#: and idled waveforms fed forward over durations (about 2 s); then a run
#: whose search grid ships in place of its polished arcs, and four
#: piecewise reports; last the far corners of the CF4 route: the fig1b
#: curves at e = 10, whose step counts double nine times, and the table1
#: series read in the per-duration convention
ARGVS = (
    ("simulate", "--method", "rk4"),
    ("simulate", "--method", "piecewise-exponential"),
    ("simulate", "--delta", "30", "--T", "10"),
    ("simulate", "--omega", "3", "--T", "7.3", "--delta", "-0.4"),
    ("optimize", "--segments", "60"),
    ("optimize", "--segments", "250"),
    ("sweep-duration",),
    ("repro", "table1"),
    ("tqd", "--T", "10"),
    ("repro", "fig4c", "--segments", "250", "--restarts", "0"),
    ("sweep-duration", "--delta", "-0.11", "--segments", "100"),
    ("optimize", "--T", "3.4", "--delta", "-0.11", "--segments", "500", "--restarts", "0"),
    ("repro", "fig2", "--segments", "60", "--restarts", "0"),
    ("repro", "fig1b", "--e", "10"),
    ("evaluate-series", "--convention", "per-duration"),
)


def workload_argvs(root: Path) -> list[tuple[str, ...]]:
    """The seed-1 argvs of the workloads listed in ``root``'s
    ``BENCHMARK.json``, from ``root``'s own ``bench/workloads.py``."""
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    listed = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    return [call.argv for name in listed for call in module.WORKLOADS[name].calls(1, False)]


def run(root: Path, argv: tuple[str, ...], where: Path) -> None:
    """``python -m isingbell <argv> --out o`` from ``root``'s sources in the
    new directory ``where``, with its exit code, stdout and stderr written
    next to ``o``."""
    where.mkdir(parents=True)
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "isingbell", *argv, "--out", "o"], cwd=where, env=env,
                          capture_output=True, timeout=RUN_TIMEOUT_S)
    (where / "exit_code").write_text(f"{proc.returncode}\n")
    (where / "stdout").write_bytes(proc.stdout)
    (where / "stderr").write_bytes(proc.stderr)


def tree_differences(a: Path, b: Path) -> list[str]:
    """Sorted paths, relative to the roots, of the files under ``a`` and
    ``b`` that exist on one side only or differ in a byte."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return sorted(
        path for path in files[0] | files[1]
        if not (path in files[0] and path in files[1]) or (a / path).read_bytes() != (b / path).read_bytes()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        roots = {s: Path(tmp) / s for s in SIDES}
        for s in SIDES:
            checkout(getattr(args, s), roots[s])
        differs = 0
        for k, call in enumerate([*workload_argvs(roots["parent"]), *ARGVS]):
            runs = {s: Path(tmp) / "runs" / str(k) / s for s in SIDES}
            for s in SIDES:
                run(roots[s], call, runs[s])
            paths = tree_differences(runs["parent"], runs["change"])
            differs += bool(paths)
            print(" ".join(call) + ": " + ("differs: " + ", ".join(paths) if paths else "same"), flush=True)
    return int(differs > 0)


if __name__ == "__main__":
    sys.exit(main())
