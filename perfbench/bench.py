"""One benchmark run of the chapgas CLI; started through run.py.

The run writes the seed's configs, then drives ``chapgas.cli.main`` in this
process as a closed loop with one client: each command starts when the
previous one has returned. A warm-up runs one command of every stratum. The
timed loop then runs the pool round and round until ``--seconds`` have
elapsed; every command it runs is a latency sample. The first output of
each command is checked against the reference recorded at the seed commit; a
repeat must reproduce it byte for byte, or it is checked against the
reference again.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates whole
untraced and traced pool passes and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Configs, results and spans go to ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checker
import inputs
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 9

UNITS = {
    "cmds_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "error_rate": "ratio",
    "gate_pass_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# error_rate is 0 on a healthy run, so the final JSON carries it as
# failed/attempted and only the summary lines print it
REPORTED = ("cmds_per_s", "cmd_p50_ms", "cmd_p90_ms", "gate_pass_frac", "setup_s", "peak_rss_mb")

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from chapgas.cli import main; sys.exit(main(sys.argv[2:]))"
)


def load_cli():
    """chapgas.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "chapgas" / "cli.py").is_file():
        raise SystemExit(f"error: no chapgas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chapgas.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "chapgas").resolve():
        raise SystemExit(f"error: imported chapgas from {cli.__file__}, not {SRC}")
    return cli


def run_command(cli, argv):
    """(exit code or None on a traceback, stdout, stderr, wall ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Session:
    """The pool of one run, the first output of each command and the error
    tally."""

    def __init__(self, cli, pool, argvs):
        self.cli = cli
        self.pool = pool
        self.argvs = argvs
        self.baseline: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _tally(self, i, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{self.pool[i]['id']}: {problems[0]}")
        return not problems

    def warm_up(self) -> None:
        """Run the first command of every stratum, so each code path has
        been imported and exercised before timing starts."""
        firsts = {}
        for i, entry in enumerate(self.pool):
            firsts.setdefault(entry["stratum"], i)
        for i in firsts.values():
            self.run(i)

    def run(self, i) -> int:
        """Run command i and check it; returns its wall time in ns. The first
        output is checked against the reference, a repeat against the first."""
        code, out, err, ns = run_command(self.cli, self.argvs[i])
        if i not in self.baseline:
            ok = self._tally(i, checker.check(self.pool[i], code, out, err))
            self.baseline[i] = (code, out, ok)
            return ns
        base_code, base_out, base_ok = self.baseline[i]
        if code == base_code and out == base_out:
            self._tally(i, [] if base_ok else ["same output as its failed first run"])
        else:
            self._tally(i, checker.check(self.pool[i], code, out, err))
        return ns

    def gate_pass_frac(self) -> float:
        """Share of genuine verify/oracle commands that passed; 1.0 when the
        workload has none, since no gate failed."""
        gated = [
            self.baseline[i][0] == 0
            for i, entry in enumerate(self.pool)
            if entry["command"] in inputs.GATED and not entry.get("sabotage")
        ]
        return sum(gated) / len(gated) if gated else 1.0

    def setup_time(self) -> float:
        """A fresh interpreter importing chapgas.cli and finishing the first
        command of the pool, timed from spawn to exit."""
        base_code, base_out, _ = self.baseline[0]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *self.argvs[0]],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        elapsed = time.perf_counter() - start
        same = proc.returncode == base_code and proc.stdout == base_out
        self._tally(0, [] if same else ["a fresh interpreter disagrees with this process"])
        return elapsed


def timed_loop(session: Session, seconds: float) -> dict:
    """Run the pool round and round, at least three whole passes, until
    ``seconds`` have elapsed; set-up samples are taken between passes.

    Every command run is one latency sample: p50 and p90 are taken over all
    of them, and ``cmds_per_s`` is the sample count over their summed time.
    Other tenants of a shared host slow whole stretches of a run, and rarely
    leave it quiet, so a figure over the whole run moves less between runs
    than each command's best time does. For the same reason the
    SETUP_REPEATS set-up samples are spread over the run, not taken together
    at its end. The loop may stop partway through a pass: the pool is
    interleaved, so any stretch of it holds every stratum in proportion.
    """
    n = len(session.argvs)
    samples, setup = [], []
    start = time.perf_counter()
    while len(samples) < 3 * n or time.perf_counter() - start < seconds:
        samples.append(session.run(len(samples) % n) / 1e6)
        if len(samples) % n == 0:
            share = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
            while len(setup) < SETUP_REPEATS * share:
                setup.append(session.setup_time())
    while len(setup) < SETUP_REPEATS:
        setup.append(session.setup_time())
    return {
        "cmds_per_s": len(samples) / (sum(samples) / 1e3),
        "cmd_p50_ms": statistics.median(samples),
        "cmd_p90_ms": statistics.quantiles(samples, n=10)[8],
        "setup_s": statistics.median(setup),
        "samples": len(samples),
        "beyond_p90": len(samples) - math.ceil(0.9 * len(samples)),
        "passes": len(samples) / n,
    }


def traced_passes(session: Session, seconds: float, spans_path: Path):
    """Alternate untraced and traced pool passes, at least one pair, until
    the time is up. Returns (per-layer values, missing metrics)."""
    n = len(session.argvs)
    plain_ns = traced_ns = pairs = 0
    trace = tracer.Tracer()
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < seconds:
        plain_ns += sum(session.run(i) for i in range(n))
        with trace:
            for i in range(n):
                trace.command = pairs * n + i
                traced_ns += session.run(i)
        pairs += 1
    trace.write(spans_path)
    values, needs = tracer.layer_metrics(trace.spans, pairs, inputs.GRIDS)
    values["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    missing = sorted(m for m, spans in needs.items() if trace.missing.intersection(spans))
    for m in missing:
        del values[m]
    return values, missing


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    env = environment()
    pool = inputs.make_pool(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cfg_dir = RUN_DIR / f"configs-{tag}-{os.getpid()}"
    try:
        session = Session(cli, pool, inputs.write_configs(pool, cfg_dir))
        session.warm_up()
        if args.trace:
            spans_path = RUN_DIR / f"spans-{tag}.tsv"
            metrics, missing = traced_passes(session, args.seconds, spans_path)
            units = {m: tracer.unit(m) for m in metrics}
        else:
            loop = timed_loop(session, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {k: loop[k] for k in ("cmds_per_s", "cmd_p50_ms", "cmd_p90_ms")}
            metrics.update(
                error_rate=session.failed / session.attempted,
                gate_pass_frac=session.gate_pass_frac(),
                setup_s=loop["setup_s"],
                peak_rss_mb=rss_mb,
            )
            missing = []
            units = UNITS
    finally:
        shutil.rmtree(cfg_dir, ignore_errors=True)

    variants = Counter(e["variant"] for e in pool)
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"pool: {len(pool)} commands per pass; per variant " + json.dumps(dict(sorted(variants.items()))))
    if not args.trace:
        print(
            f"latency samples: {loop['samples']} ({loop['passes']:.1f} passes of {len(pool)}"
            f" commands), {loop['beyond_p90']} beyond p90"
        )
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units.get(name, '')}")
    for m in missing:
        print(f"  {m:34s} missing (its binding is gone)")
    for e in session.errors:
        print("error: " + e, file=sys.stderr)

    reported = list(metrics) if args.trace else REPORTED
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in reported},
    }
    record = dict(result, env=env, variants=dict(variants), missing=missing, errors=session.errors)
    if not args.trace:
        record["loop"] = loop
    (RUN_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0

