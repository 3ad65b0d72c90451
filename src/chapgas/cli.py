"""Command-line front end.

One flat JSON config file drives every subcommand:

- ``solve``   wave-fan structure as JSON
- ``sample``  pointwise solution values on a space-time grid, CSV
- ``verify``  self-consistency checks as JSON, exit 3 when any fails
- ``oracle``  finite-volume cross-check as JSON, exit 3 when a gate fails
- ``limit``   amplitude-sweep report as JSON

Output is deterministic: JSON keys are sorted, CSV floats are written with
``%.17g`` (17 significant digits, enough to round-trip any float64), and
nothing depends on wall-clock time or RNG state.
Exit codes: 0 success, 2 bad config or invalid data, 3 a check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import ChapgasError, NonFiniteInput, ValidationError
from .fv import FvConfig, compare_to_exact, measure_delta_mass, run, wave_offsets
from .limits import default_sweep, limit_study
from .states import (
    GasParams,
    PrimState,
    RiemannProblem,
    classify_region,
    pressureless_case,
    validate_problem,
)
from .verify import checks_pass, fan_checks
from .waves import SampleKind, evaluate, solve

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_CHECK = 3

_REQUIRED = object()


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    return cfg


def _number(cfg: dict, key: str, default=_REQUIRED) -> float:
    if key not in cfg:
        if default is _REQUIRED:
            raise ValidationError(f"config key '{key}' is required")
        return float(default)
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"config key '{key}' must be a number")
    # json reads 1e400 as inf and accepts NaN; a huge integer overflows float()
    try:
        num = float(val)
    except OverflowError:
        num = math.inf
    if not math.isfinite(num):
        raise NonFiniteInput(f"config key '{key}' must be finite")
    return num


def _count(cfg: dict, key: str, default=_REQUIRED) -> int:
    if key not in cfg:
        if default is _REQUIRED:
            raise ValidationError(f"config key '{key}' is required")
        return int(default)
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValidationError(f"config key '{key}' must be an integer")
    return val


def _problem(cfg: dict) -> RiemannProblem:
    p = RiemannProblem(
        left=PrimState(rho=_number(cfg, "rho_l"), v=_number(cfg, "u_l")),
        right=PrimState(rho=_number(cfg, "rho_r"), v=_number(cfg, "u_r")),
        params=GasParams(
            A=_number(cfg, "A", 0.0),
            alpha=_number(cfg, "alpha", 0.5),
            beta=_number(cfg, "beta", 0.0),
        ),
    )
    validate_problem(p)
    return p


def _problem_echo(p: RiemannProblem) -> dict:
    return {
        "rho_l": p.left.rho,
        "u_l": p.left.v,
        "rho_r": p.right.rho,
        "u_r": p.right.v,
        "A": p.params.A,
        "alpha": p.params.alpha,
        "beta": p.params.beta,
    }


def _clean(v: float):
    return None if (isinstance(v, float) and math.isnan(v)) else v


def cmd_solve(cfg: dict, out: str | None) -> int:
    p = _problem(cfg)
    fan = solve(p)
    star = fan.star
    payload = {
        "problem": _problem_echo(p),
        "variant": fan.variant,
        "pressureless_case": pressureless_case(p),
        "region": classify_region(p).value if p.params.A > 0.0 else None,
        "waves": [
            {"label": wave.label, "c": wave.path.c, "beta": wave.path.beta}
            for wave in fan.waves
        ],
        "star": None if star is None else {"rho": star.rho, "v": star.v},
        "delta": None
        if fan.delta is None
        else {"v_delta": fan.delta.v_delta, "w0": fan.delta.w0},
    }
    _emit_json(payload, out)
    return _EXIT_OK


def cmd_sample(cfg: dict, out: str | None) -> int:
    p = _problem(cfg)
    fan = solve(p)
    x_min = _number(cfg, "x_min")
    x_max = _number(cfg, "x_max")
    x_count = _count(cfg, "x_count")
    if x_count < 2 or not x_max > x_min:
        raise ValidationError("sample grid needs x_count >= 2 and x_max > x_min")
    times = cfg.get("times")
    if not isinstance(times, list) or not times:
        raise ValidationError("config key 'times' must be a nonempty list")
    times = [_number({"times": t}, "times") for t in times]
    if not all(t > 0.0 for t in times):
        raise ValidationError("every entry of 'times' must be a positive number")
    loc_tol = None
    if "loc_tol" in cfg:
        loc_tol = _number(cfg, "loc_tol")
        if not loc_tol > 0.0:
            raise ValidationError("config key 'loc_tol' must be positive")

    step = (x_max - x_min) / (x_count - 1)
    if not math.isfinite(step):
        raise NonFiniteInput("sample grid step (x_max - x_min) overflows")
    xs = [x_min + i * step for i in range(x_count)]
    x_cells = [_fmt(x) for x in xs]
    x_grid = np.array(xs)

    def opt(v) -> str:
        return "" if v is None else _fmt(v)

    lines = ["x,t,rho,u,kind,weight,u_delta"]
    for t in times:
        s = evaluate(fan, x_grid, t, loc_tol)
        t_cell = _fmt(t)
        # after x, the fields of a point that is not regular do not vary along x
        fixed = {
            SampleKind.VACUUM: f"{t_cell},,,{SampleKind.VACUUM},,",
            SampleKind.ON_DELTA: f"{t_cell},,,{SampleKind.ON_DELTA},"
            f"{opt(s.weight)},{opt(s.u_delta)}",
        }
        for x_cell, kind, rho, u in zip(x_cells, s.kind.tolist(), s.rho.tolist(), s.u.tolist()):
            if kind == SampleKind.REGULAR:
                lines.append(f"{x_cell},{t_cell},{_fmt(rho)},{_fmt(u)},{kind},,")
            else:
                lines.append(f"{x_cell},{fixed[kind]}")
    _emit("\n".join(lines) + "\n", out)
    return _EXIT_OK


def cmd_verify(cfg: dict, out: str | None) -> int:
    p = _problem(cfg)
    quad_n = _count(cfg, "quad_n", 64)
    w0_factor = _number(cfg, "w0_factor", 1.0)
    fan, rows = fan_checks(p, quad_n=quad_n, w0_factor=w0_factor)
    passed = checks_pass(rows)
    payload = {
        "problem": _problem_echo(p),
        "variant": fan.variant,
        "quad_n": quad_n,
        "w0_factor": w0_factor,
        "checks": [
            {"name": r.name, "value": r.value, "tol": r.tol, "ok": r.ok}
            for r in rows
        ],
        "passed": passed,
    }
    _emit_json(payload, out)
    return _EXIT_OK if passed else _EXIT_CHECK


def cmd_oracle(cfg: dict, out: str | None) -> int:
    p = _problem(cfg)
    fan = solve(p)
    t_end = _number(cfg, "t_end", 1.0)
    fv_cfg = FvConfig(
        problem=p,
        x_lo=_number(cfg, "x_lo", -2.0),
        x_hi=_number(cfg, "x_hi", 2.0),
        n_cells=_count(cfg, "n_cells", 2000),
        t_end=t_end,
        cfl=_number(cfg, "cfl", 0.45),
    )
    exclusion = _number(cfg, "exclusion", 0.05)
    delta_window = _number(cfg, "delta_window", 0.1)
    max_offset = _number(cfg, "max_offset_cells", 3.0)
    plateau_rtol = _number(cfg, "plateau_rtol", 0.02)
    delta_mass_rtol = _number(cfg, "delta_mass_rtol", 0.15)

    state = run(fv_cfg)
    offsets = wave_offsets(state, fan)
    offsets_ok = all(
        abs(cells) <= max_offset for _, method, cells in offsets if method == "jump"
    )
    l1 = compare_to_exact(state, fan, exclusion=exclusion)
    gates = [offsets_ok]

    payload = {
        "problem": _problem_echo(p),
        "variant": fan.variant,
        "n_cells": fv_cfg.n_cells,
        "t_end": t_end,
        "clamped": state.clamped,
        "l1_error": l1,
        "offsets": [
            {"label": label, "method": method, "cells": cells}
            for label, method, cells in offsets
        ],
        "max_offset_cells": max_offset,
        "offsets_ok": offsets_ok,
        "plateau": None,
        "delta_mass": None,
    }

    if "l1_max" in cfg:
        l1_max = _number(cfg, "l1_max")
        l1_ok = l1 <= l1_max
        payload["l1_max"] = l1_max
        payload["l1_ok"] = l1_ok
        gates.append(l1_ok)

    if fan.star is not None:
        # the plateau lies between the two waves around the star segment
        k = fan.states.index(fan.star)
        lo, hi = (wave.path.position(t_end) for wave in fan.waves[k - 1 : k + 1])
        width = hi - lo
        x = state.x
        sel = (x >= lo + 0.3 * width) & (x <= hi - 0.3 * width)
        cells = int(sel.sum())
        if cells == 0:
            payload["plateau"] = {"cells": 0, "ok": False}
            gates.append(False)
        else:
            mean = float(state.rho[sel].mean())
            rel = abs(mean - fan.star.rho) / fan.star.rho
            ok = rel <= plateau_rtol
            payload["plateau"] = {
                "cells": cells,
                "value": mean,
                "expected": fan.star.rho,
                "rel_err": rel,
                "rtol": plateau_rtol,
                "ok": ok,
            }
            gates.append(ok)

    if fan.delta is not None:
        center = fan.delta.position(t_end)
        measured = measure_delta_mass(state, center, delta_window)
        expected = fan.delta.weight(t_end)
        rel = abs(measured - expected) / max(abs(expected), 1e-30)
        ok = rel <= delta_mass_rtol
        payload["delta_mass"] = {
            "measured": measured,
            "expected": expected,
            "rel_err": rel,
            "rtol": delta_mass_rtol,
            "window": delta_window,
            "ok": ok,
        }
        gates.append(ok)

    passed = all(gates)
    payload["passed"] = passed
    _emit_json(payload, out)
    return _EXIT_OK if passed else _EXIT_CHECK


def cmd_limit(cfg: dict, out: str | None) -> int:
    p = _problem(cfg)
    sweep = cfg.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, list):
            raise ValidationError("config key 'sweep' must be a list of amplitudes")
        sweep = [_number({"a": a}, "a") for a in sweep]
    else:
        sweep = default_sweep(p, n=_count(cfg, "sweep_points", 12))
    rep = limit_study(p, sweep=sweep)
    payload = {
        "problem": _problem_echo(p),
        "case": rep.case,
        "a_values": list(rep.a_values),
        "targets": {k: _clean(v) for k, v in rep.targets.items()},
        "rates": {k: _clean(v) for k, v in rep.rates.items()},
        "rows": [dict(r) for r in rep.rows],
    }
    _emit_json(payload, out)
    return _EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "limit": cmd_limit,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chapgas",
        description="Exact Riemann solutions, checks, and limits for the "
        "pressureless gas with a Chaplygin-type flux perturbation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "print the wave-fan structure as JSON"),
        ("sample", "sample the solution on a grid, CSV"),
        ("verify", "run self-consistency checks, JSON"),
        ("oracle", "cross-check against a finite-volume run, JSON"),
        ("limit", "sweep the pressure amplitude toward its limits, JSON"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to a JSON config file")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, args.out)
    except ChapgasError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
