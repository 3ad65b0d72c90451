"""bench/ab.py: pairs that a failed run belongs to are not compared, a
traced run without per-layer metrics fails the script, the per-layer
figures are medians of several alternating traced runs, and the in-process
passes load both trees side by side and check their outputs."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "bench" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRIC = {"name": "cmds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def run(value, seed=1, exit=0, correct=True, failed=0):
    return {"seed": seed, "exit": exit, "correct": correct, "failed": failed,
            "metrics": {"cmds_per_s": {"value": value, "unit": "1/s"}}}


def test_faults_name_each_reason():
    assert ab.faults(run(1.0)) == []
    assert ab.faults(run(1.0, correct=False, failed=2)) == ["correct is not true", "failed 2"]
    assert ab.faults({"seed": 1, "exit": 1, "error": "boom"}) == ["exit 1", "correct is not true"]


def test_failed_runs_cannot_win_pairs():
    parent = [run(100.0, 1), run(100.0, 2), run(100.0, 3), run(100.0, 4)]
    change = [run(200.0, 1, correct=False, failed=3), run(90.0, 2),
              run(200.0, 3, failed=1), {"seed": 4, "exit": 1, "error": "crashed"}]
    got = ab.compare(METRIC, parent, change)
    assert (got["wins"], got["of"]) == (0, 4)
    assert got["change"]["runs"] == [90.0] and got["parent"]["runs"] == [100.0]
    assert got["gain"] is False


def test_excluded_pairs_count_against_the_gain():
    # Nine of ten pairs fail on the change's side; it wins the one left.
    parent = [run(100.0, s) for s in range(10)]
    change = [run(200.0, s, failed=1) for s in range(9)] + [run(150.0, 9)]
    got = ab.compare(METRIC, parent, change)
    assert (got["wins"], got["of"]) == (1, 10)
    assert got["gain"] is False


def test_change_may_not_fail_more_than_parent():
    # Nine clean wins of ten still read as no gain when the tenth pair
    # failed on the change's side only.
    parent = [run(100.0 + s, s) for s in range(10)]
    change = [run(200.0, s) for s in range(9)] + [run(200.0, 9, correct=False)]
    got = ab.compare(METRIC, parent, change)
    assert (got["wins"], got["of"]) == (9, 10)
    assert got["gain"] is False
    # The same pair failing on the parent's side leaves the gain standing.
    parent[9], change[9] = run(100.0, 9, exit=1), run(200.0, 9)
    assert ab.compare(METRIC, parent, change)["gain"] is True


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}


def fake_git(*args, cwd):
    if args[0] == "status":
        return ""
    return str(ROOT) if args[1] == "--show-toplevel" else "0" * 40


def test_traced_run_without_metrics_fails_the_script(tmp_path, monkeypatch, capsys):
    # The change's traced runs crash: their exit codes and stderr land under
    # errors/traced, and the script exits 1 after writing the file.

    def bench_run(checkout, workload, seed, seconds, trace):
        if trace and checkout == ROOT:  # the change side runs in the repository root
            return {"seed": seed, "exit": 1, "error": "ImportError: boom"}
        layers = {"cli.self_ms": {"value": 0.5, "unit": "ms"}}
        return {"seed": seed, "exit": 0, "correct": True, "failed": 0,
                "metrics": layers if trace else END_TO_END}

    monkeypatch.setattr(ab, "bench_run", bench_run)
    monkeypatch.setattr(ab, "export", lambda commit, dest, root: dest.mkdir())
    monkeypatch.setattr(ab, "git", fake_git)
    monkeypatch.setattr(ab, "in_process", lambda *args: {})
    out = tmp_path / "bench.json"
    assert ab.main(["--out", str(out), "--pairs", "1", "--workloads", "solve_limit"]) == 1
    got = json.loads(out.read_text(encoding="utf-8"))["workloads"]["solve_limit"]
    crash = {"exit": 1, "stderr": "ImportError: boom"}
    assert got["errors"]["traced"] == {"change": [crash] * ab.TRACED_RUNS}
    assert got["per_layer"] == {"parent": {"cli.self_ms": 0.5}, "change": {}}
    assert "no per-layer metrics for solve_limit (change)" in capsys.readouterr().err


def test_per_layer_figures_are_medians_of_alternating_traced_runs(tmp_path, monkeypatch):
    # Each traced run reports a different figure; the record keeps every run
    # and each side's median, and the first side of each traced pair alternates.
    assert ab.TRACED_RUNS == 3
    order = []
    figures = {"parent": iter([20.0, 25.0, 19.0]), "change": iter([30.0, 18.0, 21.0])}

    def bench_run(checkout, workload, seed, seconds, trace):
        if not trace:
            return {"seed": seed, "exit": 0, "correct": True, "failed": 0, "metrics": END_TO_END}
        side = "change" if checkout == ROOT else "parent"
        order.append(side)
        layers = {"fv.run.ms": {"value": next(figures[side]), "unit": "ms"}}
        if side == "change" and len(order) == 2:
            # a metric only one run reports is the median of that one run
            layers["fv.step.calls"] = {"value": 7.0, "unit": "count"}
        return {"seed": seed, "exit": 0, "correct": True, "failed": 0, "metrics": layers}

    monkeypatch.setattr(ab, "bench_run", bench_run)
    monkeypatch.setattr(ab, "export", lambda commit, dest, root: dest.mkdir())
    monkeypatch.setattr(ab, "git", fake_git)
    monkeypatch.setattr(ab, "in_process", lambda *args: {})
    out = tmp_path / "bench.json"
    assert ab.main(["--out", str(out), "--pairs", "1", "--workloads", "oracle_fv"]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))["workloads"]["oracle_fv"]
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert got["per_layer_runs"] == {
        "parent": [{"fv.run.ms": 20.0}, {"fv.run.ms": 25.0}, {"fv.run.ms": 19.0}],
        "change": [{"fv.run.ms": 30.0, "fv.step.calls": 7.0}, {"fv.run.ms": 18.0},
                   {"fv.run.ms": 21.0}],
    }
    assert got["per_layer"] == {"parent": {"fv.run.ms": 20.0},
                                "change": {"fv.run.ms": 21.0, "fv.step.calls": 7.0}}
    assert got["errors"]["traced"] == {}


def test_in_process_passes_load_both_trees(tmp_path, monkeypatch):
    # The parent's tree is a copy of this one whose _fmt writes 6 digits in
    # place of 17: each copy runs under its own package name, and the checker
    # counts the parent's wrong outputs and none of the change's.
    def export(commit, dest, root):
        shutil.copytree(ROOT / "src", dest / "src")
        cli = dest / "src" / "chapgas" / "cli.py"
        cli.write_text(cli.read_text().replace('"%.17g" % float(v)', '"%.6g" % float(v)'))

    def bench_run(checkout, workload, seed, seconds, trace):
        metrics = {"cli.self_ms": {"value": 0.5, "unit": "ms"}} if trace else END_TO_END
        return {"seed": seed, "exit": 0, "correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(ab, "bench_run", bench_run)
    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "git", fake_git)
    modules = set(sys.modules)
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--pairs", "1", "--seconds", "0", "--workloads", "sample_dense"]
    assert ab.main(argv) == 0
    got = json.loads(out.read_text(encoding="utf-8"))["workloads"]["sample_dense"]["in_process"]
    # one round per side, so each side runs once in each position
    assert got["rounds"] == got["of"] == len(ab.IN_PROCESS_SIDES) == 3
    assert got["seed"] == 201
    sides = got["sides"]
    assert set(sides) == set(ab.IN_PROCESS_SIDES)
    for side in sides.values():
        assert len(side["pass_ms"]["runs"]) == len(side["cmds_per_s"]["runs"]) == 3
        assert side["pass_ms"]["q1"] <= side["pass_ms"]["median"] <= side["pass_ms"]["q3"]
        assert 0 < side["cmd_p50_ms"] <= side["cmd_p90_ms"]
        # warm-up, then every command of three passes
        assert side["attempted"] > 3 * got["commands_per_pass"]
    assert sides["change"]["failed"] == 0
    for side in ("parent", "parent_again"):
        assert sides[side]["failed"] > 0 and "differs from reference" in sides[side]["errors"][0]
    assert len(got["ab_ratio"]["runs"]) == len(got["aa_ratio"]["runs"]) == 3
    assert 0 <= got["wins"] <= 3
    # the three packages are gone from sys.modules afterwards
    assert not {m for m in set(sys.modules) - modules if m.startswith("ab_")}
