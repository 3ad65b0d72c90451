"""Draw the benchmark corpus and record its reference outputs.

Run once, on the seed commit, from the repository root:

    python3 perfbench/record_refs.py [workload ...]

With workload names it records only those; by default every workload. For
every stratum it draws ``2 * pool`` configs from the
test suite's ranges with a fixed corpus seed, runs each through
``chapgas.cli.main`` and stores config, exit code, output and cost (the best
of three runs, in ms) as one JSON line in ``perfbench/refs/<workload>.jsonl``.
Sample CSV output is stored as runs of equal rows. Re-running it on a later
commit would move the references to that commit, so do not.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

from run import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import bench  # noqa: E402
import checker  # noqa: E402
import inputs  # noqa: E402

CORPUS_SEED = 170608882


def wave_span(cfg: dict, t: float):
    from chapgas import GasParams, PrimState, RiemannProblem, solve, wave_positions

    p = RiemannProblem(
        left=PrimState(rho=cfg["rho_l"], v=cfg["u_l"]),
        right=PrimState(rho=cfg["rho_r"], v=cfg["u_r"]),
        params=GasParams(A=cfg["A"], alpha=cfg["alpha"], beta=cfg["beta"]),
    )
    xs = [x for _, x in wave_positions(solve(p), t)]
    return min(xs), max(xs)


def record(cli, workload: str, index: int, scratch) -> list[dict]:
    rng = np.random.default_rng([CORPUS_SEED, index])
    entries = []
    for stratum in inputs.WORKLOADS[workload]:
        for j in range(stratum.corpus_size):
            cfg = inputs.draw_config(rng, stratum, wave_span)
            argv = inputs.write_configs([{"command": stratum.command, "config": cfg}], scratch)[0]
            runs = [bench.run_command(cli, argv) for _ in range(3)]
            code, out, err, _ = runs[0]
            if code is None or code == 2:
                print(f"{stratum.name}/{j}: exit {code}: {err.strip()}", file=sys.stderr)
            if code == 0 or code == 3:
                output = checker.encode_sample(out) if stratum.command == "sample" else json.loads(out)
            else:
                output = None
            variant = inputs.VARIANT[stratum.kind]
            if isinstance(output, dict) and output.get("variant", variant) != variant:
                raise SystemExit(f"{stratum.name}/{j}: drew a {output['variant']} fan")
            entries.append(
                {
                    "id": f"{stratum.name}/{j}",
                    "stratum": stratum.name,
                    "variant": variant,
                    "command": stratum.command,
                    "sabotage": stratum.sabotage,
                    "config": cfg,
                    "exit": code,
                    "cost_ms": round(min(r[3] for r in runs) / 1e6, 3),
                    "output": output,
                }
            )
    return entries


def main() -> int:
    cli = bench.load_cli()
    inputs.REFS.mkdir(exist_ok=True)
    scratch = bench.RUN_DIR / "record"
    chosen = sys.argv[1:] or list(inputs.WORKLOADS)
    for index, workload in enumerate(inputs.WORKLOADS):
        if workload not in chosen:
            continue
        entries = record(cli, workload, index, scratch)
        with open(inputs.REFS / f"{workload}.jsonl", "w", encoding="utf-8") as fh:
            for e in entries:
                fh.write(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n")
        codes = dict(Counter(e["exit"] for e in entries))
        print(f"{workload}: {len(entries)} entries, exit codes {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
