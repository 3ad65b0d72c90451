"""bench/same_output.py: the byte gate lists every config whose exit code,
stdout or stderr differs between two trees, and refuses a tree that does not
hold the package instead of importing another copy."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))  # same_output imports ab by name
import same_output  # noqa: E402

OK = [0, "a" * 64, "e" * 64]
BEFORE = {"solve.I/0": OK, "limit.II/3": OK, "verify.III/7": OK}


def fake_git(*args, cwd):
    return str(ROOT) if args[1] == "--show-toplevel" else "0" * 40


def run_main(monkeypatch, after):
    monkeypatch.setattr(same_output, "git", fake_git)
    monkeypatch.setattr(same_output, "export", lambda commit, dest, root: dest.mkdir())
    monkeypatch.setattr(
        same_output, "outcomes", lambda tree, jobs: BEFORE if tree.name == "base" else after
    )
    return same_output.main(["--base", "HEAD"])


def test_identical_trees_pass(monkeypatch, capsys):
    assert run_main(monkeypatch, dict(BEFORE)) == 0
    assert capsys.readouterr().out == "3 configs against 000000000000: 0 differ\n"


def test_each_changed_field_is_listed(monkeypatch, capsys):
    after = {
        "solve.I/0": [0, "b" * 64, "e" * 64],  # stdout changed
        "limit.II/3": [0, "a" * 64, "f" * 64],  # stderr changed
        "verify.III/7": [None, "a" * 64, "f" * 64],  # a traceback
    }
    assert run_main(monkeypatch, after) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: solve.I/0: stdout (exit 0 -> 0)",
        "differs: limit.II/3: stderr (exit 0 -> 0)",
        "differs: verify.III/7: exit, stderr (exit 0 -> None)",
        "3 configs against 000000000000: 3 differ",
    ]


def test_tree_without_the_package_fails(tmp_path, monkeypatch):
    # chapgas is importable from elsewhere, as an installed copy would be; a
    # tree whose src/ lacks it must not run that copy
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(json.dumps(["solve.x", ["solve", "--config", "missing.json"]]) + "\n")
    with pytest.raises(subprocess.CalledProcessError) as err:
        same_output.outcomes(tree, jobs)
    assert "imported chapgas from" in err.value.stderr
    assert str(ROOT / "src" / "chapgas") in err.value.stderr
