"""The output comparison of ``scripts/same_outputs.py``, on small trees."""

import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import same_outputs  # noqa: E402


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_identical_trees_have_no_differences(tmp_path):
    files = {"exit_code": b"0\n", "stdout": b"fidelity: 0.5\n", "o/summary.json": b"{}\n"}
    assert same_outputs.tree_differences(_tree(tmp_path / "a", files), _tree(tmp_path / "b", files)) == []


def test_differing_and_one_sided_files_are_listed(tmp_path):
    a = _tree(tmp_path / "a", {"stdout": b"x\n", "o/t.csv": b"1,2\n", "o/only_a.json": b"{}", "stderr": b""})
    b = _tree(tmp_path / "b", {"stdout": b"x\n", "o/t.csv": b"1,3\n", "o/deep/only_b.csv": b"", "stderr": b""})
    assert same_outputs.tree_differences(a, b) == ["o/deep/only_b.csv", "o/only_a.json", "o/t.csv"]


def test_an_empty_file_differs_from_a_missing_one(tmp_path):
    a = _tree(tmp_path / "a", {"stderr": b""})
    (tmp_path / "b").mkdir()
    assert same_outputs.tree_differences(a, tmp_path / "b") == ["stderr"]
