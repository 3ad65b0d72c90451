"""A/B benchmark of the working tree against a parent commit.

Run from the repository root:

    python3 bench/ab.py --out BENCH_12.json --pairs 10 --seconds 30

The files of the parent commit (``--base``; ``HEAD`` compares uncommitted
changes with their commit, ``HEAD~1`` the last commit with its parent) are
exported with ``git archive`` to a scratch directory, which is removed
afterwards. For every workload in BENCHMARK.json (or those named by
``--workloads``), N pairs of ``perfbench/run.py`` runs follow, one seed per
pair from ``--seed`` upwards, with the side that runs first alternating, and
one more pair on the held-out seed ``HELD_OUT_SEED``, which is fixed here so
that it cannot be picked to suit a claim. Then each side has ``TRACED_RUNS``
traced runs on ``--seed``, in pairs whose first side alternates as well, since
one traced run can move by a quarter on code that did not change. The output
file holds, per workload and end-to-end metric, each side's runs, median and
quartiles, the change's wins out of the pairs (ties count for neither),
whether the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json, whether the gain rule holds (wins in at
least nine tenths of all pairs run, a median gap wider than the parent's
interquartile range, and no more failed runs on the change's side than on the
parent's), the same comparison for the held-out pair, and the traced
per-layer metrics: each traced run's under ``per_layer_runs`` and, under
``per_layer``, each metric's median over the runs that report it; also the
host, Python and NumPy versions that the runs report. A traced run that
reports no per-layer metrics has its exit code and stderr tail recorded
under ``errors``/``traced``, and the script then exits 1 after writing the
file.

A pair in which either side exited nonzero, reported ``correct: false`` or
counted failed commands is left out of the medians, quartiles and wins, and
listed under ``excluded`` with the reasons; ``of`` still counts every pair
run, so excluded pairs can only lose the gain rule, never win it.

Separate processes drift with the host: identical code on both sides can
read several percent apart. So each workload also runs ``in_process``: both
trees' ``src/chapgas`` are imported into this interpreter under two package
names, with the parent's tree a second time under a third name, and whole
passes of the ``--seed`` pool (``perfbench/inputs.make_pool``) run through
each copy's ``cli.main`` in turn. The first side moves on by one each round,
so over every three rounds each side runs once in each position; rounds go
on for ``--seconds`` and at least ``--pairs`` rounds, to a whole number of
such cycles. Every first output of each copy is checked with
``perfbench/checker.py`` (through ``perfbench/bench.py``'s session, which
holds a repeat to its first output). Per side it records the pass time in ms
and the pass's cmds/s (median and quartiles), p50 and p90 over every command
run, and the failed count; per round, the change's and the parent's second
copy's cmds/s over the parent's, whose median and quartiles give the A/B
ratio and the A/A ratio, and the change's wins. ``peak_rss_mb`` comes from
the separate processes alone.

``setup_s`` from separate runs compares medians taken minutes apart, which
host drift can swamp. So each workload also has ``setup_pairs``:
``SETUP_PAIRS`` pairs of fresh interpreters, one per tree, each timed from
spawn to exit on perfbench's ``SETUP_CODE`` with the ``--seed`` pool's first
command, the side that runs first alternating pair by pair. A pair whose two
sides differ in exit code or stdout is left out of the medians, ratios and
wins and listed under ``differing``; ``of`` counts every pair. Per side it
records the seconds (median and quartiles), per pair the change's time over
the parent's, and the change's wins.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HELD_OUT_SEED = 2718
TRACED_RUNS = 3
SETUP_PAIRS = 30
# in-process sides, in the order of the first round: the parent's tree is
# loaded twice, so that its two copies give the A/A ratio
IN_PROCESS_SIDES = ("parent", "change", "parent_again")


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its result line, env line and exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    out = {"seed": seed, "exit": proc.returncode}
    if proc.returncode != 0 or not lines:
        out["error"] = proc.stderr[-2000:]
        return out
    out.update(json.loads(lines[-1]))
    if not out.get("metrics"):
        out["error"] = proc.stderr[-2000:]
    env = [ln for ln in lines if ln.startswith("env: ")]
    if env:
        out["env"] = json.loads(env[0][len("env: "):])
    return out


def faults(run: dict) -> list[str]:
    """Why a run cannot be compared; empty when it can."""
    out = []
    if run["exit"] != 0 or "metrics" not in run:
        out.append(f"exit {run['exit']}")
    if run.get("correct") is not True:
        out.append("correct is not true")
    if run.get("failed"):
        out.append(f"failed {run['failed']}")
    return out


def traced_failures(traced: dict) -> dict:
    """{side: [{"exit": code, "stderr": tail}, ...]} for each side with traced
    runs that reported no per-layer metrics."""
    out = {side: [{"exit": run["exit"], "stderr": run.get("error", "")}
                  for run in runs if not run.get("metrics")]
           for side, runs in traced.items()}
    return {side: fails for side, fails in out.items() if fails}


def layer_values(run: dict) -> dict:
    """{metric: value} of one traced run's per-layer metrics."""
    return {k: v["value"] for k, v in run.get("metrics", {}).items()}


def layer_medians(runs: list[dict]) -> dict:
    """Each per-layer metric's median over the traced runs that report it."""
    values: dict = {}
    for run in runs:
        for k, v in layer_values(run).items():
            values.setdefault(k, []).append(v)
    return {k: statistics.median(vs) for k, vs in sorted(values.items())}


def export(commit: str, dest: Path, root: Path) -> None:
    """Write the files of commit to dest, as git archive has them."""
    dest.mkdir()
    tar = subprocess.run(["git", "archive", commit], cwd=root, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def summary(values: list[float]) -> dict:
    if not values:
        return {"runs": [], "median": None, "q1": None, "q3": None}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def unload(name: str) -> None:
    """Drop the package `name` and its modules from sys.modules."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


def load_cli(src: Path, name: str):
    """The cli module of the chapgas package under src, imported as the
    package `name`; its modules import one another relatively, so several
    trees load side by side. A package already loaded under `name` is
    dropped first."""
    unload(name)
    pkg = src / "chapgas"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def perfbench(root: Path):
    """perfbench's bench and inputs modules from the tree at root."""
    path = str(root / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import bench
    import inputs

    return bench, inputs


def in_process(parent: Path, root: Path, workload: str, seed: int, seconds: float,
               min_rounds: int, scratch: Path) -> dict:
    """Whole pool passes of each side's cli.main in this interpreter, the
    parent's checkout against the change's at root; see the module
    docstring."""
    bench, inputs = perfbench(root)
    trees = {"parent": parent, "change": root, "parent_again": parent}
    pool = inputs.make_pool(workload, seed)
    argvs = inputs.write_configs(pool, scratch / f"configs-{workload}")
    sessions = {}
    try:
        for side in IN_PROCESS_SIDES:
            cli = load_cli(trees[side] / "src", f"ab_{side}_chapgas")
            sessions[side] = bench.Session(cli, pool, argvs)
            sessions[side].warm_up()
        passes = {side: [] for side in IN_PROCESS_SIDES}
        samples = {side: [] for side in IN_PROCESS_SIDES}
        cycle = len(IN_PROCESS_SIDES)
        rounds, start = 0, time.perf_counter()
        while rounds < min_rounds or rounds % cycle or time.perf_counter() - start < seconds:
            for k in range(cycle):
                side = IN_PROCESS_SIDES[(rounds + k) % cycle]
                ns = [sessions[side].run(i) for i in range(len(pool))]
                samples[side] += ns
                passes[side].append(sum(ns) / 1e6)
            rounds += 1
    finally:
        for side in IN_PROCESS_SIDES:
            unload(f"ab_{side}_chapgas")
    rate = {side: [len(pool) / (ms / 1e3) for ms in runs] for side, runs in passes.items()}
    sides = {
        side: {
            "pass_ms": summary(passes[side]),
            "cmds_per_s": summary(rate[side]),
            "cmd_p50_ms": statistics.median(samples[side]) / 1e6,
            "cmd_p90_ms": statistics.quantiles(samples[side], n=10)[8] / 1e6,
            "attempted": sessions[side].attempted,
            "failed": sessions[side].failed,
            "errors": sessions[side].errors,
        }
        for side in IN_PROCESS_SIDES
    }
    base = rate["parent"]
    out = {
        "seed": seed, "rounds": rounds, "commands_per_pass": len(pool), "sides": sides,
        "ab_ratio": summary([c / p for c, p in zip(rate["change"], base)]),
        "aa_ratio": summary([a / p for a, p in zip(rate["parent_again"], base)]),
        "wins": sum(c > p for c, p in zip(rate["change"], base)), "of": rounds,
    }
    print(f"{workload} in-process: {rounds} rounds, A/B {out['ab_ratio']['median']:.4f}"
          f" ({out['wins']} of {rounds} won), A/A {out['aa_ratio']['median']:.4f}, failed "
          + json.dumps({side: s["failed"] for side, s in sides.items()}), flush=True)
    return out


def setup_run(checkout: Path, code: str, argv: list[str]) -> tuple[float, int, str]:
    """(seconds from spawn to exit, exit code, stdout) of one fresh
    interpreter running code on the chapgas sources of checkout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(checkout / "src"), *argv],
                          cwd=checkout, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def setup_pairs(parent: Path, root: Path, workload: str, seed: int, count: int,
                scratch: Path) -> dict:
    """count fresh-interpreter pairs of the parent's tree against the change's
    at root, on the seed pool's first command; see the module docstring."""
    bench, inputs = perfbench(root)
    argv = inputs.write_configs(inputs.make_pool(workload, seed)[:1], scratch / f"setup-{workload}")[0]
    trees = {"parent": parent, "change": root}
    times = {"parent": [], "change": []}
    differing = []
    for i in range(count):
        runs = {side: setup_run(trees[side], bench.SETUP_CODE, argv)
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))}
        if runs["parent"][1:] != runs["change"][1:]:
            differing.append(i)
            continue
        for side, (seconds, _, _) in runs.items():
            times[side].append(seconds)
    out = {
        "seed": seed, "command": argv[0], "parent": summary(times["parent"]),
        "change": summary(times["change"]),
        "ratio": summary([c / p for c, p in zip(times["change"], times["parent"])]),
        "wins": sum(c < p for c, p in zip(times["change"], times["parent"])), "of": count,
        "differing": differing,
    }
    print(f"{workload} setup pairs: {out['parent']['median']} -> {out['change']['median']} s"
          f" ({out['wins']} of {count} won, {len(differing)} differing)", flush=True)
    return out


def compare(metric: dict, parent_runs: list[dict], change_runs: list[dict]) -> dict:
    """Both sides of one end-to-end metric; pairs with a failed side are not compared."""
    name, higher = metric["name"], metric["better"] == "higher"
    pairs = [(p, c) for p, c in zip(parent_runs, change_runs) if not faults(p) and not faults(c)]
    par = [p["metrics"][name]["value"] for p, _ in pairs]
    chg = [c["metrics"][name]["value"] for _, c in pairs]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
           "parent": summary(par), "change": summary(chg), "wins": wins, "of": len(parent_runs)}
    if pairs:
        pm, cm = out["parent"]["median"], out["change"]["median"]
        limit = pm * (1.0 - metric["bound"]) if higher else pm * (1.0 + metric["bound"])
        out["worse_than_bound"] = cm < limit if higher else cm > limit
        gap = (cm - pm) if higher else (pm - cm)
        iqr = out["parent"]["q3"] - out["parent"]["q1"]
        failed = {side: sum(1 for r in rs if faults(r))
                  for side, rs in (("parent", parent_runs), ("change", change_runs))}
        out["gain"] = (wins >= 0.9 * len(parent_runs) and gap > iqr
                       and failed["change"] <= failed["parent"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output file, e.g. BENCH_12.json")
    ap.add_argument("--base", default="HEAD", help="parent commit (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=201)
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    args = ap.parse_args(argv)

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    base = git("rev-parse", args.base, cwd=root)
    change = git("rev-parse", "HEAD", cwd=root)
    if git("status", "--porcelain", "--untracked-files=no", cwd=root):
        change += "+uncommitted"

    record = {"base": base, "change": change, "pairs": args.pairs, "seconds": args.seconds,
              "seeds": list(range(args.seed, args.seed + args.pairs)),
              "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    missing_layers: list[str] = []
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    parent = scratch / "parent"
    try:
        export(base, parent, root)
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(record["seeds"] + [HELD_OUT_SEED]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = bench_run(parent if side == "parent" else root, workload, seed, args.seconds, 0)
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: "
                          + json.dumps(run.get("metrics", run.get("error"))), flush=True)
            held = {side: [rs.pop()] for side, rs in runs.items()}
            traced = {"parent": [], "change": []}
            for i in range(TRACED_RUNS):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    traced[side].append(bench_run(parent if side == "parent" else root,
                                                  workload, args.seed, args.seconds, 1))
            untraced = traced_failures(traced)
            for side, fails in untraced.items():
                for why in fails:
                    print(f"{workload} traced {side}: no per-layer metrics, exit {why['exit']}\n"
                          f"{why['stderr']}", file=sys.stderr, flush=True)
                missing_layers.append(f"{workload} ({side})")
            record["workloads"][workload] = {
                "end_to_end": {m["name"]: compare(m, runs["parent"], runs["change"])
                               for m in spec["end_to_end"]},
                "held_out": {m["name"]: compare(m, held["parent"], held["change"])
                             for m in spec["end_to_end"]},
                "excluded": [{"seed": p["seed"], "parent": faults(p), "change": faults(c)}
                             for p, c in zip(runs["parent"] + held["parent"],
                                             runs["change"] + held["change"])
                             if faults(p) or faults(c)],
                "failed": {side: [r.get("failed") for r in rs] for side, rs in runs.items()},
                "errors": {**{side: [r["error"] for r in rs if "error" in r]
                                 for side, rs in runs.items()},
                           "traced": untraced},
                "per_layer": {side: layer_medians(rs) for side, rs in traced.items()},
                "per_layer_runs": {side: [layer_values(r) for r in rs]
                                   for side, rs in traced.items()},
                "in_process": in_process(parent, root, workload, args.seed, args.seconds,
                                         args.pairs, scratch),
                "setup_pairs": setup_pairs(parent, root, workload, args.seed, SETUP_PAIRS,
                                           scratch),
            }
            envs = [r["env"] for rs in runs.values() for r in rs if "env" in r]
            if envs:
                record["env"] = envs[0]
    finally:
        shutil.rmtree(scratch)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if missing_layers:
        print(f"{args.out}: no per-layer metrics for {', '.join(missing_layers)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    # the in-process passes run NumPy in this interpreter: pin its pools to
    # one thread before anything imports it, as perfbench/run.py does
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from run import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
