"""Command-line front end.

One flat JSON config file drives every subcommand:

- ``solve``   wave-fan structure as JSON
- ``sample``  pointwise solution values on a space-time grid, CSV
- ``verify``  self-consistency checks as JSON, exit 3 when any fails
- ``oracle``  finite-volume cross-check as JSON, exit 3 when a gate fails
- ``limit``   amplitude-sweep report as JSON

Output is deterministic: JSON keys are sorted, CSV floats are written with
``%.17g`` (17 significant digits, enough to round-trip any float64), and
nothing depends on wall-clock time or RNG state. JSON is written by a small
recursive writer into one list of strings, with the json module's string
escaper and ``float.__repr__``; its bytes are those of
``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)``, which
with an indent runs a slower generator-based encoder. ``sample`` writes its
rows a run at a time: the consecutive points of a time slice with the same
kind and the same rho and u bits share one formatted tail, joined onto their
x cells in one step, which gives the same bytes as writing row by row.
Exit codes: 0 success, 2 bad config or invalid data, 3 a check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

import numpy as np

from .errors import (
    ChapgasError,
    DensityOutOfRange,
    NonFiniteInput,
    UnsupportedQuadOrder,
    ValidationError,
)
from .fv import FvConfig, compare_to_exact, gate_cells, measure_delta_mass, run, wave_offsets
from .limits import default_sweep, limit_study
from .states import GasParams, PrimState, RiemannProblem, pressureless_case
from .verify import checks_pass, fan_checks
from .waves import SampleKind, evaluate, solve

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_CHECK = 3

_REQUIRED = object()

# The most sample points per time: each becomes a CSV row, and the x column
# is built in full before the first time is evaluated.
_MAX_X_COUNT = 1_000_000

# The quadrature orders verify accepts. Below 48 the battery's n Gauss nodes
# per time panel do not resolve a bump's t factor, and valid fans fail: on 600
# wide draws, 188 fail at 16, 42 at 24, 1 at 32 and none at 48 or 64.
_QUAD_N_RANGE = (48, 1024)


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


_json_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite


def _json_into(o, parts: list, newline: str) -> None:
    """Append the JSON text of o to parts; newline is "\n" plus the
    indentation of the line that o starts on. Types are tested in the order
    json's own encoder tests them, and dict keys must be str."""
    if isinstance(o, str):
        parts.append(_json_str(o))
    elif o is None:
        parts.append("null")
    elif o is True:
        parts.append("true")
    elif o is False:
        parts.append("false")
    elif isinstance(o, int):
        parts.append(_int_repr(o))
    elif isinstance(o, float):
        # strict JSON: a nan or an infinity is an error, not a NaN or Infinity literal
        if not _isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        parts.append(_float_repr(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in o:
            parts.append(lead)
            _json_into(item, parts, inner)
            lead = "," + inner
        parts.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            parts.append(lead)
            parts.append(_json_str(key))
            parts.append(": ")
            _json_into(value, parts, inner)
            lead = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2, allow_nan=False), byte
    for byte, without the per-value generators json uses once indent is set."""
    parts: list = []
    _json_into(payload, parts, "\n")
    return "".join(parts)


def _emit_json(payload: dict, out: str | None) -> None:
    try:
        text = _json_text(payload)
    except ValueError as exc:
        raise DensityOutOfRange(f"output holds a non-finite number: {exc}") from exc
    _emit(text + "\n", out)


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
    return _finite(cfg[key], key)


def _finite(val, key: str) -> float:
    """A value of config key `key`, or an entry of its list, as a finite float."""
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


def _nonnegative(cfg: dict, key: str, default=_REQUIRED) -> float:
    num = _number(cfg, key, default)
    if num < 0.0:
        raise ValidationError(f"config key '{key}' must be >= 0")
    return num


def _problem(cfg: dict) -> RiemannProblem:
    return RiemannProblem(
        left=PrimState(rho=_number(cfg, "rho_l"), v=_number(cfg, "u_l")),
        right=PrimState(rho=_number(cfg, "rho_r"), v=_number(cfg, "u_r")),
        params=GasParams(
            A=_number(cfg, "A", 0.0),
            alpha=_number(cfg, "alpha", 0.5),
            beta=_number(cfg, "beta", 0.0),
        ),
    )


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
    """print the wave-fan structure as JSON"""
    p = _problem(cfg)
    fan = solve(p)
    star = fan.star
    payload = {
        "problem": _problem_echo(p),
        "variant": fan.variant,
        "pressureless_case": pressureless_case(p),
        "region": p.region.value if p.params.A > 0.0 else None,
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
    """sample the solution on a grid, CSV"""
    p = _problem(cfg)
    fan = solve(p)
    x_min = _number(cfg, "x_min")
    x_max = _number(cfg, "x_max")
    x_count = _count(cfg, "x_count")
    if x_count < 2 or not x_max > x_min:
        raise ValidationError("sample grid needs x_count >= 2 and x_max > x_min")
    if x_count > _MAX_X_COUNT:
        raise ValidationError(f"config key 'x_count' must be <= {_MAX_X_COUNT}, got {x_count}")
    times = cfg.get("times")
    if not isinstance(times, list) or not times:
        raise ValidationError("config key 'times' must be a nonempty list")
    times = [_finite(t, "times") for t in times]
    if not all(t > 0.0 for t in times):
        raise ValidationError("every entry of 'times' must be a positive number")
    loc_tol = None
    if "loc_tol" in cfg:
        loc_tol = _number(cfg, "loc_tol")
        if not loc_tol > 0.0:
            raise ValidationError("config key 'loc_tol' must be positive")

    step = (x_max - x_min) / (x_count - 1)
    # the grid climbs from x_min, so every point is finite when the last is
    if not math.isfinite(x_min + (x_count - 1) * step):
        raise NonFiniteInput("sample grid step (x_max - x_min) or its last point overflows")
    # x_min + i * step of each i, bit for bit: i is exact as a float below 2**53
    x_grid = np.arange(x_count) * step + x_min
    x_cells = (",".join(["%.17g"] * x_count) % tuple(x_grid.tolist())).split(",")  # _fmt of each x

    def opt(v) -> str:
        return "" if v is None else _fmt(v)

    lines = ["x,t,rho,u,kind,weight,u_delta"]
    for t in times:
        s = evaluate(fan, x_grid, t, loc_tol)
        t_cell = _fmt(t)
        # after x, the fields of a point that is not regular do not vary along x
        fixed = {
            SampleKind.VACUUM: f",{t_cell},,,{SampleKind.VACUUM},,",
            SampleKind.ON_DELTA: f",{t_cell},,,{SampleKind.ON_DELTA},"
            f"{opt(s.weight)},{opt(s.u_delta)}",
        }
        # a run is a stretch of points with one kind and the same rho and u
        # bits, so -0.0 and 0.0 stay apart; its rows share one tail after x
        rho_bits, u_bits, kind = s.rho.view(np.int64), s.u.view(np.int64), s.kind
        cuts = (rho_bits[1:] != rho_bits[:-1]) | (u_bits[1:] != u_bits[:-1])
        cuts |= kind[1:] != kind[:-1]
        firsts = np.concatenate(([0], np.flatnonzero(cuts) + 1))
        bounds = firsts.tolist() + [x_count]
        heads = zip(kind[firsts].tolist(), s.rho[firsts].tolist(), s.u[firsts].tolist())
        for i, j, (k, rho, u) in zip(bounds, bounds[1:], heads):
            if k == SampleKind.REGULAR:
                tail = f",{t_cell},{_fmt(rho)},{_fmt(u)},{k},,"
            else:
                tail = fixed[k]
            lines.append((tail + "\n").join(x_cells[i:j]) + tail)
    _emit("\n".join(lines) + "\n", out)
    return _EXIT_OK


def cmd_verify(cfg: dict, out: str | None) -> int:
    """run self-consistency checks, JSON"""
    p = _problem(cfg)
    quad_n = _count(cfg, "quad_n", 64)
    lo, hi = _QUAD_N_RANGE
    if not lo <= quad_n <= hi:
        raise UnsupportedQuadOrder(f"config key 'quad_n' must lie in [{lo}, {hi}], got {quad_n}")
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
    """cross-check against a finite-volume run, JSON"""
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
    # gate settings and gate cells are checked before the march, the main cost
    exclusion = _nonnegative(cfg, "exclusion", 0.05)
    delta_window = _number(cfg, "delta_window", 0.1)
    if not delta_window > 0.0:
        raise ValidationError("config key 'delta_window' must be > 0")
    max_offset = _nonnegative(cfg, "max_offset_cells", 3.0)
    plateau_rtol = _nonnegative(cfg, "plateau_rtol", 0.02)
    delta_mass_rtol = _nonnegative(cfg, "delta_mass_rtol", 0.15)
    l1_max = _nonnegative(cfg, "l1_max") if "l1_max" in cfg else None
    windows, mass_cells, plateau_cells = gate_cells(fv_cfg, fan, delta_window)

    state = run(fv_cfg)
    offsets = wave_offsets(state, windows)
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

    if l1_max is not None:
        l1_ok = l1 <= l1_max
        payload["l1_max"] = l1_max
        payload["l1_ok"] = l1_ok
        gates.append(l1_ok)

    if plateau_cells is not None:
        plateau = state.rho[plateau_cells]
        if plateau.size == 0:
            payload["plateau"] = {"cells": 0, "ok": False}
            gates.append(False)
        else:
            mean = float(plateau.mean())
            rel = abs(mean - fan.star.rho) / fan.star.rho
            ok = rel <= plateau_rtol
            payload["plateau"] = {
                "cells": plateau.size,
                "value": mean,
                "expected": fan.star.rho,
                "rel_err": rel,
                "rtol": plateau_rtol,
                "ok": ok,
            }
            gates.append(ok)

    if mass_cells is not None:
        measured = measure_delta_mass(state, mass_cells)
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
    """sweep the pressure amplitude toward its limits, JSON"""
    p = _problem(cfg)
    sweep = cfg.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, list):
            raise ValidationError("config key 'sweep' must be a list of amplitudes")
        sweep = [_finite(a, "sweep") for a in sweep]
    else:
        sweep = default_sweep(p, n=_count(cfg, "sweep_points", 12))
    rep = limit_study(p, sweep=sweep)
    payload = {
        "problem": _problem_echo(p),
        "case": rep.case,
        "a_values": list(rep.a_values),
        "targets": rep.targets,
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: building it costs about as
    much as a small command, and parse_args leaves it as it found it."""
    # each command's docstring is its line in the help
    commands = "\n".join(f"  {name:<8}{cmd.__doc__}" for name, cmd in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="chapgas",
        usage="%(prog)s <command> --config PATH [--out PATH]",
        description="Exact Riemann solutions, checks, and limits for the\n"
        "pressureless gas with a Chaplygin-type flux perturbation.",
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="<command>", help="one of the commands below"
    )
    parser.add_argument(
        "--config", required=True, metavar="PATH", help="path to a JSON config file"
    )
    parser.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
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
