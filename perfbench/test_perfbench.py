"""Self-tests of the benchmark. From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import checker  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return bench.load_cli()


def _first_per_command(workload):
    seen = {}
    for entries in inputs.load_corpus(workload).values():
        for e in entries:
            seen.setdefault((e["command"], e["exit"], e["sabotage"]), e)
    return list(seen.values())


def test_same_seed_gives_byte_identical_configs(tmp_path):
    for workload in inputs.WORKLOADS:
        a = inputs.write_configs(inputs.make_pool(workload, 7), tmp_path / workload / "a")
        b = inputs.write_configs(inputs.make_pool(workload, 7), tmp_path / workload / "b")
        assert [Path(x[2]).read_bytes() for x in a] == [Path(y[2]).read_bytes() for y in b]


def test_other_seed_gives_other_configs_with_same_mix():
    for workload in inputs.WORKLOADS:
        a = inputs.make_pool(workload, 1)
        b = inputs.make_pool(workload, 2)
        assert [e["id"] for e in a] != [e["id"] for e in b]
        assert {e["id"] for e in a} != {e["id"] for e in b}
        assert Counter(e["variant"] for e in a) == Counter(e["variant"] for e in b)
        assert Counter(e["stratum"] for e in a) == Counter(e["stratum"] for e in b)
        assert Counter(e["exit"] for e in a) == Counter(e["exit"] for e in b)
        assert len(a) >= 100  # one pass alone has ten samples beyond p90


def _session(cli, tmp_path, pool):
    session = bench.Session(cli, pool, inputs.write_configs(pool, tmp_path / "cfg"))
    session.warm_up()
    return session


def _mixed_pool():
    pool = []
    for workload in inputs.WORKLOADS:
        corpus = inputs.load_corpus(workload)
        cheapest = {}
        for entries in corpus.values():
            for e in entries:
                key = e["command"]
                if key not in cheapest or e["cost_ms"] < cheapest[key]["cost_ms"]:
                    cheapest[key] = e
        pool.extend(cheapest.values())
    return pool


def test_traced_run_restores_every_binding(cli, tmp_path):
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for _, module, attr, _ in tracer.BINDINGS
    }
    session = _session(cli, tmp_path, _mixed_pool())
    values, missing = bench.traced_passes(session, 0.0, tmp_path / "spans.tsv")
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn, f"{module}.{attr}"
    assert missing == []
    assert session.failed == 0
    assert values["fv.step.calls"] > 0 and values["waves.evaluate.calls"] > 0
    assert values["limits.solve.calls"] > 0 and values["weakform.weak_residual.calls"] > 0
    spans = (tmp_path / "spans.tsv").read_text().splitlines()
    assert spans[0].split("\t") == ["name", "start_ns", "end_ns", "parent", "command", "work"]
    assert len(spans) > 1


def test_timed_loop_counts_every_sample(cli, tmp_path):
    pool = [e for e in _mixed_pool() if e["command"] in ("solve", "limit")]
    session = _session(cli, tmp_path, pool)
    loop = bench.timed_loop(session, 0.0)
    assert loop["passes"] == 3 and loop["samples"] == 3 * len(pool)
    assert loop["cmd_p50_ms"] <= loop["cmd_p90_ms"]
    assert loop["setup_s"] > 0.0
    assert session.failed == 0


def test_traced_counts_repeat_for_a_seed(cli, tmp_path):
    pool = _mixed_pool()
    first, _ = bench.traced_passes(_session(cli, tmp_path / "a", pool), 0.0, tmp_path / "a.tsv")
    again, _ = bench.traced_passes(_session(cli, tmp_path / "b", pool), 0.0, tmp_path / "b.tsv")
    counts = [m for m in first if tracer.unit(m) == "count"]
    assert counts and all(first[m] == again[m] for m in counts)


def test_removed_function_is_a_missing_metric(cli, tmp_path, monkeypatch):
    import chapgas.verify

    monkeypatch.delattr(chapgas.verify, "residual_battery")
    pool = [e for e in _mixed_pool() if e["command"] in ("sample", "solve")]
    values, missing = bench.traced_passes(_session(cli, tmp_path, pool), 0.0, tmp_path / "s.tsv")
    assert missing == ["weakform.residual_battery.us"]
    assert "weakform.residual_battery.us" not in values
    assert values["waves.evaluate.calls"] > 0


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        for key, val in node.items():
            if key in checker.UNCHECKED_KEYS or (key == "value" and "tol" in node):
                continue
            yield from _numeric_leaves(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _numeric_leaves(val, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _sample_leaves(runs):
    for i, run in enumerate(runs):
        for j in (1, 2, 4, 5):
            if run[j] is not None:
                yield (i, j)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_checker_flags_reference_perturbed_by_1e6(cli, tmp_path, workload):
    for entry in _first_per_command(workload):
        code, out, err, _ = bench.run_command(cli, inputs.write_configs([entry], tmp_path)[0])
        assert checker.check(entry, code, out, err) == []
        scale = checker.problem_scale(entry["config"])
        leaves = (
            _sample_leaves(entry["output"])
            if entry["command"] == "sample"
            else _numeric_leaves(entry["output"])
        )
        tested = 0
        for path in leaves:
            bad = copy.deepcopy(entry)
            node = bad["output"]
            for key in path[:-1]:
                node = node[key]
            if abs(node[path[-1]]) < 1e-3 * scale:
                continue  # below the absolute floor, where round-off rules
            node[path[-1]] *= 1.0 + 1e-6
            assert checker.check(bad, code, out, err), f"{entry['id']} {path}"
            tested += 1
        assert tested > 0


def test_checker_allows_added_keys_and_flags_exit_codes(cli, tmp_path):
    entry = next(e for e in _first_per_command("verify_battery") if e["sabotage"])
    code, out, err, _ = bench.run_command(cli, inputs.write_configs([entry], tmp_path)[0])
    got = json.loads(out)
    got["worst_margin"] = 0.5
    got["checks"][0]["margin"] = 1.0
    scale = checker.problem_scale(entry["config"])
    assert checker.compare_json(entry["output"], got, scale) == []
    assert checker.check(entry, 0, out, err) == ["sabotaged verify exited 0"]
    assert checker.check(entry, None, "", "Traceback\nZeroDivisionError: x")[0].startswith(
        "traceback"
    )
    genuine = dict(entry, sabotage=False, exit=0)
    assert checker.check(genuine, 2, "", "error: bad")[0].startswith("exit 2")


def test_reported_metrics_match_benchmark_json(cli, tmp_path):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(bench.REPORTED) == [m["name"] for m in spec["end_to_end"]]
    assert all(bench.UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    values, _ = bench.traced_passes(_session(cli, tmp_path, _mixed_pool()[:2]), 0.0, tmp_path / "s")
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    assert all(tracer.unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
