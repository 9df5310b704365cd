"""Record a before/after benchmark comparison as ``BENCH_<pr>.json``.

Clones two revisions of this repository into fresh directories and runs the
unmodified ``bench/run.py`` of each clone from its own root, one pair of
runs per seed, alternating which side runs first:

    python3 scripts/bench_record.py --parent HEAD~1 --change HEAD --pr N

For every listed workload and each of the ten seeds it stores both sides'
end-to-end metrics (``--trace 0``), then per metric each side's median and
quartiles over the seeds, the parent's inter-quartile spread, how many
pairs the change won, and a verdict on each end-to-end metric of
``BENCHMARK.json`` against its bound, printed one line per workload.  One
per-layer run (``--trace 1``) per side on the first seed covers every
workload, the unlisted ``series-joint`` too, and the tier-1 test suite is
timed in each clone.  Each side records its git
sha, ``src/`` line count, and the python, numpy and scipy versions, and
the module count and a sha256 of the sorted module names that ``python -X
importtime -c "import isingbell.cli"`` reports, the import graph behind
``setup_s``; whether the two graphs match is printed.  Runs are
sequential: two at once would share the cores they are timing.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900
#: one parent/change pair per seed; a gain is claimed only when the change
#: wins at least nine pairs in ten and the medians differ by more than the
#: parent's inter-quartile spread
SEEDS = tuple(range(1, 11))
TRACED = ("bangbang-sweep", "series-joint", "shortcut-cli")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> dict:
    """Clone this repository at ``rev`` into ``dest``; return its provenance.
    A revision that names no commit prints one line and exits 2."""
    try:
        sha = _git("rev-parse", "--verify", "--quiet", rev + "^{commit}")
    except subprocess.CalledProcessError:
        print(f"unknown revision {rev!r}: it names no commit of {ROOT}", file=sys.stderr)
        raise SystemExit(2) from None
    _git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest))
    _git("checkout", "--quiet", "--detach", sha, cwd=dest)
    src_lines = sum(len(p.read_text().splitlines()) for p in (dest / "src").rglob("*.py"))
    return {"rev": rev, "git_sha": sha, "src_lines": src_lines}


def import_graph(stderr: str) -> list[str]:
    """Sorted names of the modules listed in ``python -X importtime``'s
    stderr, whose lines read "import time: self | cumulative | name"."""
    names = {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
             if line.startswith("import time:") and line.count("|") == 2}
    return sorted(names - {"imported package"})


def import_modules(root: Path) -> list[str]:
    """The modules a fresh interpreter loads for ``import isingbell.cli``
    from ``root``'s sources."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-X", "importtime", "-c", "import isingbell.cli"]
    return import_graph(subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True).stderr)


def import_change(parent: list[str], change: list[str]) -> str:
    added, removed = len(set(change) - set(parent)), len(set(parent) - set(change))
    return "identical" if not (added or removed) else f"changed (+{added}/-{removed} modules)"


def bench(root: Path, workload: str, seed: int, trace: bool) -> dict:
    """One ``bench/run.py`` run in ``root``: its result object (last stdout
    line) plus the per-pass wall times and absent spans it printed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(correct=result["correct"], ops=result["attempted"], ops_failed=result["failed"])
    for line in lines:
        if line.startswith("passes: "):
            row["wall_s_each"] = [float(w) for w in line.split("wall_s each: ")[1].split(", ")]
        elif line.startswith("absent: "):
            row["absent"] = line[len("absent: "):]
    return row


def tier1(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in ("src", os.environ.get("PYTHONPATH")) if p)}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(wall, 1), "exit_code": proc.returncode, "summary": summary}


def compare(by_seed: dict) -> dict:
    """Per side and metric the quartiles over seeds, the parent's
    inter-quartile spread, and the pairs in which the change read lower."""
    out = {}
    seeds = list(by_seed)
    for name in by_seed[seeds[0]]["parent"]:
        values = {s: [by_seed[k][s][name] for k in seeds] for s in SIDES}
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values["parent"]):
            continue
        q = {s: statistics.quantiles(values[s], n=4) for s in SIDES}
        out[name] = {
            **{f"{s}_quartiles": q[s] for s in SIDES},
            "parent_iqr": q["parent"][2] - q["parent"][0],
            "median_change_minus_parent": q["change"][1] - q["parent"][1],
            "change_over_parent": q["change"][1] / q["parent"][1] if q["parent"][1] else None,
            "change_lower_in": f"{sum(c < p for p, c in zip(values['parent'], values['change']))} of {len(seeds)}",
        }
    return out


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """Verdict on one end-to-end metric from each side's runs: "worse beyond
    bound" when the change's median is worse than the parent's by more than
    ``bound`` times the parent's median; "unresolved" when the parent's
    inter-quartile spread exceeds that, unless every change run beats every
    parent run; "within bound" otherwise.  ``better`` is "lower" or
    "higher"."""
    sign = {"lower": 1.0, "higher": -1.0}[better]
    q = statistics.quantiles(parent, n=4)
    limit = bound * abs(q[1])
    if sign * (statistics.median(change) - q[1]) > limit:
        return "worse beyond bound"
    if q[2] - q[0] > limit and not max(sign * c for c in change) < min(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--workdir", help="where the clones go (default: a temporary directory)")
    parser.add_argument("--what", default="", help="one-line description of the change")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench_record_"))
    workdir.mkdir(parents=True, exist_ok=True)
    roots = {s: workdir / s for s in SIDES}
    record = {
        "what": args.what,
        "harness": "python3 bench/run.py --workload W --seed S --trace T, unmodified, from a fresh clone of "
        "each revision; the side that runs first alternates from one run to the next, parent first on the first",
        "machine": {"cpu_count": os.cpu_count(), "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        **{s: checkout(getattr(args, s), roots[s]) for s in SIDES},
        "workloads": {},
    }
    modules = {s: import_modules(roots[s]) for s in SIDES}
    for s in SIDES:
        digest = hashlib.sha256("\n".join(modules[s]).encode()).hexdigest()
        record[s].update(import_modules=len(modules[s]), import_sha256=digest)
    print("import graph: " + import_change(modules["parent"], modules["change"]), flush=True)
    turn = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        by_seed = {}
        for seed in SEEDS:
            order = SIDES if turn % 2 == 0 else SIDES[::-1]
            turn += 1
            by_seed[seed] = {s: bench(roots[s], workload, seed, trace=False) for s in order}
            print(f"{workload} seed {seed}: " + ", ".join(f"{s} {by_seed[seed][s]['wall_s']:.3f} s" for s in SIDES),
                  flush=True)
        verdicts = {
            m["name"]: verdict(*([by_seed[k][s][m["name"]] for k in SEEDS] for s in SIDES), m["better"], m["bound"])
            for m in benchmark["end_to_end"]
        }
        record["workloads"][workload] = {
            "trace0_by_seed": by_seed, "trace0_over_seeds": compare(by_seed), "verdicts": verdicts
        }
        print(f"{workload}: " + ", ".join(f"{name} {v}" for name, v in verdicts.items()), flush=True)
    for workload in TRACED:
        order = SIDES if turn % 2 == 0 else SIDES[::-1]
        turn += 1
        traced = {s: bench(roots[s], workload, SEEDS[0], trace=True) for s in order}
        record["workloads"].setdefault(workload, {})[f"trace1_seed{SEEDS[0]}"] = traced
        print(f"{workload} traced seed {SEEDS[0]}: done", flush=True)
    record["tier1"] = {s: tier1(roots[s]) for s in SIDES}
    print("tier-1: " + ", ".join(f"{s} {record['tier1'][s]['wall_s']} s" for s in SIDES), flush=True)

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
