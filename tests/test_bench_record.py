"""``scripts/bench_record.py``: its end-to-end verdict, its import-graph
reading, and an unknown revision, in it and in ``scripts/same_outputs.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_SPEC = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

STEADY = [0.170, 0.172, 0.171, 0.173, 0.169, 0.170, 0.172, 0.171, 0.170, 0.173]
#: inter-quartile spread about half the median, wider than a 0.25 bound
NOISY = [1.0, 1.6, 0.7, 1.3, 0.8, 1.5, 0.9, 1.2, 0.6, 1.4]


@pytest.mark.parametrize("parent, change, better, expected", [
    (STEADY, STEADY, "lower", "within bound"),
    # a setup_s median about 30% worse, 0.171 -> 0.221 s
    (STEADY, [x + 0.05 for x in STEADY], "lower", "worse beyond bound"),
    (STEADY, [x + 0.03 for x in STEADY], "lower", "within bound"),
    # worse and higher are the same reading of a lower-is-better metric
    (STEADY, [x - 0.05 for x in STEADY], "higher", "worse beyond bound"),
    (NOISY, NOISY[::-1], "lower", "unresolved"),
    # every change run beats every parent run, so the spread cannot hide it
    (NOISY, [x * 0.3 for x in NOISY], "lower", "within bound"),
    (NOISY, [x * 3.0 for x in NOISY], "higher", "within bound"),
    (NOISY, [x * 3.0 for x in NOISY], "lower", "worse beyond bound"),
])
def test_verdict(parent, change, better, expected):
    assert bench_record.verdict(parent, change, better, 0.25) == expected


#: ``python -X importtime`` stderr: a header, nested imports indented
IMPORTTIME_STDERR = """\
import time: self [us] | cumulative | imported package
import time:       144 |        144 |   _io
import time:       306 |        803 | _frozen_importlib_external
import time:        95 |         95 |       numpy._utils
import time:      1203 |      40211 | isingbell.cli
a warning line
"""


def test_import_graph_reads_module_names():
    assert bench_record.import_graph(IMPORTTIME_STDERR) == [
        "_frozen_importlib_external", "_io", "isingbell.cli", "numpy._utils"
    ]


@pytest.mark.parametrize("change, expected", [
    (["a", "b", "c"], "identical"),
    (["a", "b", "c", "d", "e"], "changed (+2/-0 modules)"),
    (["a", "d"], "changed (+1/-2 modules)"),
])
def test_import_change(change, expected):
    assert bench_record.import_change(["a", "b", "c"], change) == expected


@pytest.mark.parametrize("script, extra", [
    ("bench_record.py", ["--pr", "0", "--workdir", "work"]),
    ("same_outputs.py", []),
])
def test_an_unknown_revision_exits_2_with_one_line(tmp_path, script, extra):
    # rev-parse refuses the revision before anything is cloned
    argv = [sys.executable, str(SCRIPTS / script), "--parent", "nosuchrev", "--change", "HEAD", *extra]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "unknown revision 'nosuchrev'" in proc.stderr
