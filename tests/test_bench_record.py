"""The end-to-end verdict of ``scripts/bench_record.py``."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
)
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
