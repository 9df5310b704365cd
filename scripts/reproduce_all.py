#!/usr/bin/env python3
"""Regenerate every benchmark dataset in one go.

Each dataset is produced by the corresponding ``isingbell repro`` command and
lands in its own subdirectory of --out:

    fig1b   shortcut fidelity vs duration (both schedule kinds)
    fig2    bang-bang optima at T = 2, 2.5, 3, 3.6
    fig3a   fidelity vs constant detuning at T = 2.5
    fig3b   fidelity vs duration at delta = 0 and delta = -0.11
    fig4c   joint series optima over harmonic counts p = 1, 2, 3, 5
    table1  reference series coefficients under both time conventions

With stock settings (restarts 8 for fig2, 2 elsewhere) the optimizer-backed
datasets dominate the runtime; expect tens of minutes on a laptop.  Use
--restarts 1 for a quick pass that still lands within a few 1e-3 of the
benchmark fidelities.
"""

import argparse
import sys
import time
from pathlib import Path

from isingbell.cli import REPRO_DATASETS, main as isingbell


def run(argv: list[str]) -> None:
    print("$ isingbell " + " ".join(argv))
    rc = isingbell(argv)
    if rc != 0:
        sys.exit(rc)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="repro_out", help="root output directory")
    parser.add_argument("--only", default=None,
                        help=f"comma-separated subset of {','.join(REPRO_DATASETS)}")
    parser.add_argument("--restarts", type=int, default=None,
                        help="override optimizer restarts for the heavy datasets")
    parser.add_argument("--segments", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    ids = args.only.split(",") if args.only else list(REPRO_DATASETS)
    unknown = sorted(set(ids) - set(REPRO_DATASETS))
    if unknown:
        sys.exit(f"unknown dataset ids: {', '.join(unknown)}")

    out_root = Path(args.out)
    for dataset in ids:
        argv = ["repro", dataset, "--out", str(out_root / dataset)]
        _, params = REPRO_DATASETS[dataset]
        for flag in ("restarts", "segments", "seed"):
            value = getattr(args, flag)
            if value is not None and flag in params:
                argv += [f"--{flag}", str(value)]
        t0 = time.perf_counter()
        run(argv)
        print(f"[{dataset}] done in {time.perf_counter() - t0:.1f} s\n")

    print(f"all datasets under {out_root.resolve()}")


if __name__ == "__main__":
    main()
