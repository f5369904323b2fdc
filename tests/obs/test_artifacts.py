"""BENCH_<name>.json artifact writer."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from repro.obs.artifacts import git_rev, jsonable, write_bench_artifact


def test_jsonable_coerces_numpy():
    doc = jsonable({
        "scalar": np.float64(1.5),
        "int": np.int64(3),
        "arr": np.arange(3),
        "nested": [{"x": np.float32(0.5)}],
        7: "int-key",
    })
    assert doc == {"scalar": 1.5, "int": 3, "arr": [0, 1, 2],
                   "nested": [{"x": 0.5}], "7": "int-key"}
    json.dumps(doc)


def test_write_bench_artifact(tmp_path):
    path = write_bench_artifact(tmp_path, "demo",
                                {"tokens_per_s": np.float64(12.5)}, seed=3)
    assert path == tmp_path / "BENCH_demo.json"
    doc = json.loads(path.read_text())
    assert doc["bench"] == "demo"
    assert doc["seed"] == 3
    assert doc["summary"] == {"tokens_per_s": 12.5}
    assert isinstance(doc["git_rev"], str) and doc["git_rev"]


def test_git_rev_unknown_outside_repo(tmp_path):
    assert git_rev(tmp_path) == "unknown"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_rev_marks_a_dirty_tree(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "f.txt").write_text("a\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "init")
    clean = git_rev(tmp_path)
    assert clean != "unknown" and not clean.endswith("-dirty")
    (tmp_path / "untracked.txt").write_text("x\n")
    assert git_rev(tmp_path) == clean
    (tmp_path / "f.txt").write_text("b\n")
    assert git_rev(tmp_path) == f"{clean}-dirty"
