"""Seeded inputs for the chapgas benchmark.

Each workload is a fixed list of strata. A stratum names one subcommand, one
kind of Riemann data and the knobs that set its size (sample points, quadrature
order, grid cells). ``record_refs.py`` drew a corpus of configs for every
stratum from the test suite's ranges (tests/helpers.py: rho in [0.1, 10],
|u| <= 5, alpha in {0.3, 0.5, 0.8}, beta in {-1, 0, 2}, A placed relative to
A0 per region), ran them once at the seed commit and stored each config with
its output, exit code and cost in ``refs/<workload>.jsonl``.

A run's seed picks half of every stratum's corpus: within each exit code the
entries are sorted by recorded cost, paired with their neighbour, and the seed
chooses one entry of each pair (an unpaired last entry is always taken). Every
seed therefore runs the same variant mix, the same share of gate-failing
configs and nearly the same amount of work, on different configs. The program
receives only the config files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

ALPHAS = (0.3, 0.5, 0.8)
BETAS = (-1.0, 0.0, 2.0)

# kind of Riemann data -> variant of the exact fan
VARIANT = {
    "I": "rarefaction_contact",
    "II": "shock_contact",
    "III": "delta_shock",
    "delta0": "delta_shock",
    "vacuum": "two_contacts_vacuum",
    "contact": "single_contact",
}
ALL_KINDS = ("I", "II", "III", "delta0", "vacuum", "contact")

GATED = ("verify", "oracle")


@dataclass(frozen=True)
class Stratum:
    name: str
    command: str
    kind: str
    knobs: tuple
    pool: int
    sabotage: bool = False

    @property
    def corpus_size(self) -> int:
        return 2 * self.pool


def _sample_strata():
    return [
        Stratum(f"sample.{VARIANT[k]}.x{n}", "sample", k, (("x_count", n),), 4)
        for k in ("vacuum", "contact", "I", "II", "III")
        for n in (300, 425, 550, 675, 800)
    ]


# A quad_n 128 command costs about four times a quad_n 64 one. With a fifth
# of the commands at 128, p50 falls among the 64s and p90 among the 128s,
# away from the gap between them, and a pass takes under 2 s.
QUAD = {64: 12, 128: 3}
SABOTAGE_QUAD = {64: 3, 128: 2}


def _verify_strata():
    out = [
        Stratum(f"verify.{k}.q{q}", "verify", k, (("quad_n", q),), pool)
        for k in ALL_KINDS
        for q, pool in QUAD.items()
    ]
    out += [
        Stratum(f"verify.sabotage.{k}.q{q}", "verify", k, (("quad_n", q),), pool, True)
        for k in ("III", "delta0")
        for q, pool in SABOTAGE_QUAD.items()
    ]
    return out


# Per-step overhead dominates the small grid, per-cell work the large one.
# Cost grows as the square of the cells (steps scale with cells), so the
# small grid carries the count: p50 falls among the 200-cell commands, p90
# among the 800-cell ones, and a pass takes 3-4 s.
GRIDS = {200: 14, 800: 2, 1600: 1}


def _oracle_strata():
    return [
        Stratum(f"oracle.{k}.n{n}", "oracle", k, (("n_cells", n),), pool)
        for k in ALL_KINDS
        for n, pool in GRIDS.items()
    ]


def _solve_limit_strata():
    # solve and limit strata alternate, so the interleaved pool alternates too
    return [
        Stratum(f"{cmd}.{k}", cmd, k, (), 9)
        for k in ALL_KINDS
        for cmd in ("solve", "limit")
    ]


# Every pass holds at least 100 commands, so one pass alone has ten latency
# samples beyond p90.
WORKLOADS = {
    "sample_dense": _sample_strata(),
    "verify_battery": _verify_strata(),
    "oracle_fv": _oracle_strata(),
    "solve_limit": _solve_limit_strata(),
}


# ---------------------------------------------------------------- corpus draws


def _state(rng):
    return float(rng.uniform(0.1, 10.0)), float(rng.uniform(-5.0, 5.0))


def draw_problem(rng, kind: str) -> dict:
    """Riemann data of the given kind, drawn like tests/helpers.py does."""
    alpha = float(rng.choice(ALPHAS))
    beta = float(rng.choice(BETAS))
    while True:
        rho_l, u_l = _state(rng)
        rho_r, u_r = _state(rng)
        if kind == "contact":
            u_r = u_l
            a = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(1e-3, 2.0)) * rho_l**alpha
        elif kind in ("I", "vacuum"):
            if u_r < u_l + 1e-3:
                continue
            a = 0.0 if kind == "vacuum" else float(rng.uniform(1e-3, 2.0)) * rho_l**alpha
        else:
            if u_l - u_r < 1e-3:
                continue
            a0 = (u_l - u_r) * rho_l**alpha
            if kind == "II":
                a = a0 * float(rng.uniform(1.001, 2.0))
            elif kind == "III":
                a = a0 * float(rng.uniform(0.001, 0.999))
            else:
                a = 0.0
        return {
            "rho_l": rho_l,
            "u_l": u_l,
            "rho_r": rho_r,
            "u_r": u_r,
            "A": a,
            "alpha": alpha,
            "beta": beta,
        }


def _max_speed(cfg: dict, t: float) -> float:
    """Largest |characteristic speed| of the two data states over [0, t]."""
    out = 0.0
    for rho, v in ((cfg["rho_l"], cfg["u_l"]), (cfg["rho_r"], cfg["u_r"])):
        gap = cfg["alpha"] * cfg["A"] / rho ** cfg["alpha"]
        for s in (0.0, t):
            u = v + cfg["beta"] * s
            out = max(out, abs(u), abs(u - gap))
    return out


def draw_config(rng, stratum: Stratum, wave_span) -> dict:
    """One config for the stratum; wave_span(problem, t) gives the (lo, hi)
    range of wave positions at time t, used to size domains to the fan."""
    cfg = draw_problem(rng, stratum.kind)
    cfg.update(stratum.knobs)
    if stratum.command == "sample":
        t = float(rng.uniform(0.5, 2.0))
        lo, hi = wave_span(cfg, t)
        margin = 0.2 * (hi - lo) + 0.5
        cfg.update(times=[t], x_min=lo - margin, x_max=hi + margin)
        if stratum.kind in ("III", "delta0") and rng.uniform() < 0.5:
            # wide enough that grid points land on the singular wave
            cfg["loc_tol"] = (cfg["x_max"] - cfg["x_min"]) / (cfg["x_count"] - 1)
    elif stratum.command == "oracle":
        lo, hi = wave_span(cfg, 1.0)
        lo, hi = min(lo, 0.0), max(hi, 0.0)
        # half the distance the fastest data characteristic covers by t_end,
        # so a narrow fan does not shrink the cells below the CFL step
        margin = 0.25 * (hi - lo) + 0.5 * _max_speed(cfg, 1.0) + 0.2
        cfg.update(x_lo=lo - margin, x_hi=hi + margin, t_end=1.0)
    elif stratum.command == "limit" and stratum.kind == "II":
        # start above A0 so the sweep crosses from region II into region III
        cfg["sweep"] = [cfg["A"] * 0.7**k for k in range(12)]
    if stratum.sabotage:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        cfg["w0_factor"] = 1.0 + sign * float(rng.uniform(0.05, 0.5))
    return cfg


# ------------------------------------------------------------- seeded pools


def load_corpus(workload: str) -> dict[str, list[dict]]:
    """Recorded entries of a workload, grouped by stratum name."""
    by_stratum: dict[str, list[dict]] = {s.name: [] for s in WORKLOADS[workload]}
    with open(REFS / f"{workload}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            by_stratum[entry["stratum"]].append(entry)
    return by_stratum


def _pick_half(entries: list[dict], rng: random.Random) -> list[dict]:
    chosen = []
    for code in sorted({e["exit"] for e in entries}):
        group = sorted(
            (e for e in entries if e["exit"] == code), key=lambda e: (e["cost_ms"], e["id"])
        )
        for i in range(0, len(group), 2):
            pair = group[i : i + 2]
            chosen.append(pair[0] if len(pair) == 1 else pair[rng.random() < 0.5])
    return chosen


def _interleave(groups: list[list[dict]]) -> list[dict]:
    """Merge the strata evenly: every stretch of a pass holds each stratum in
    proportion to its size, solve and limit strata of equal size alternate,
    and the largest stratum (the smallest grid for oracle) leads."""
    keyed = [
        ((i + 0.5) / len(group), g, entry)
        for g, group in enumerate(groups)
        for i, entry in enumerate(group)
    ]
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [entry for _, _, entry in keyed]


def make_pool(workload: str, seed: int) -> list[dict]:
    """The seed's commands for one pass over the workload, in run order."""
    corpus = load_corpus(workload)
    rng = random.Random(seed)
    groups = [_pick_half(corpus[s.name], rng) for s in WORKLOADS[workload]]
    for group in groups:
        rng.shuffle(group)
    return _interleave(groups)


def write_configs(pool: list[dict], directory: Path) -> list[list[str]]:
    """Write one config file per command; returns the CLI argv of each."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, entry in enumerate(pool):
        path = directory / f"cmd{i:03d}.json"
        path.write_text(json.dumps(entry["config"], sort_keys=True) + "\n", encoding="utf-8")
        argvs.append([entry["command"], "--config", str(path)])
    return argvs
