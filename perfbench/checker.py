"""Output check of one CLI command against its reference from the seed commit.

Compared exactly: exit codes, variants, labels, check names, verdicts and
every other string, boolean or null. Compared within a relative tolerance
fixed in advance from float64 (sqrt of machine epsilon, plus a floor of a
thousand ulps of the problem scale): every number, which covers sample rows,
wave speeds, star states, delta coefficients, plateau and mass. The value of a
check row is also allowed its own ``tol``, because residuals are round-off.
Keys the reference lacks are allowed, so outputs may gain fields.
"""

from __future__ import annotations

import json
import math
import sys

RTOL = math.sqrt(sys.float_info.epsilon)
ATOL = 1e3 * sys.float_info.epsilon

# count of density-floor activations: cells that hover at the floor flip
# with round-off, so it is a diagnostic and not a solution value
UNCHECKED_KEYS = frozenset({"clamped"})

CSV_HEADER = "x,t,rho,u,kind,weight,u_delta"


def problem_scale(cfg: dict) -> float:
    keys = ("rho_l", "rho_r", "u_l", "u_r", "A", "beta")
    return max([1.0] + [abs(float(cfg.get(k, 0.0))) for k in keys])


def close(ref: float, got: float, scale: float, floor: float = 0.0) -> bool:
    return abs(got - ref) <= RTOL * max(abs(ref), abs(got)) + ATOL * scale + floor


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_json(ref, got, scale: float, path: str = "$") -> list[str]:
    """Mismatches of a parsed JSON output against its reference."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, ref_val in ref.items():
            if key in UNCHECKED_KEYS:
                continue
            if key not in got:
                out.append(f"{path}.{key}: missing")
                continue
            if key == "value" and "tol" in ref and _is_number(ref_val) and _is_number(got[key]):
                if not close(ref_val, got[key], scale, floor=float(ref["tol"])):
                    out.append(f"{path}.value: {got[key]!r} != {ref_val!r} beyond its tol")
                continue
            out.extend(compare_json(ref_val, got[key], scale, f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(compare_json(r, g, scale, f"{path}[{i}]"))
        return out
    if _is_number(ref) and _is_number(got):
        return [] if close(ref, got, scale) else [f"{path}: {got!r} != {ref!r}"]
    return [] if ref == got and type(ref) is type(got) else [f"{path}: {got!r} != {ref!r}"]


def encode_sample(text: str) -> list[list]:
    """Sample CSV as runs [count, rho, u, kind, weight, u_delta] of equal
    consecutive rows; x and t follow from the config."""
    runs: list[list] = []
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        row = [None if f == "" else float(f) for f in fields[2:4]]
        row.append(fields[4])
        row += [None if f == "" else float(f) for f in fields[5:7]]
        if runs and runs[-1][1:] == row:
            runs[-1][0] += 1
        else:
            runs.append([1] + row)
    return runs


def compare_sample(runs: list[list], text: str, cfg: dict, scale: float) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["sample: bad CSV header"]
    rows = [r[1:] for r in runs for _ in range(r[0])]
    x_min, x_max, n = cfg["x_min"], cfg["x_max"], cfg["x_count"]
    grid = [(x_min + i * (x_max - x_min) / (n - 1), t) for t in cfg["times"] for i in range(n)]
    if len(lines) - 1 != len(rows) or len(rows) != len(grid):
        return [f"sample: {len(lines) - 1} rows, expected {len(rows)}"]
    out = []
    for k, (line, ref, (x, t)) in enumerate(zip(lines[1:], rows, grid)):
        fields = line.split(",")
        if len(fields) != 7:
            out.append(f"row {k}: {len(fields)} fields")
            continue
        got = [float(fields[0]), float(fields[1])]
        want = [x, t]
        for f, r in zip(fields[2:4] + fields[5:7], ref[0:2] + ref[3:5]):
            if (f == "") != (r is None):
                out.append(f"row {k}: empty field mismatch")
                break
            if r is not None:
                got.append(float(f))
                want.append(r)
        if fields[4] != ref[2]:
            out.append(f"row {k}: kind {fields[4]!r} != {ref[2]!r}")
        if not all(close(w, g, scale) for w, g in zip(want, got)):
            out.append(f"row {k}: {line} differs from reference")
        if len(out) >= 5:
            break
    return out


def check(entry: dict, code, stdout: str, stderr: str) -> list[str]:
    """Every reason this command's result counts as an error; [] when none.

    A gate verdict that matches the reference is a valid outcome even when it
    is a failure (exit 3); a sabotaged verify must always fail.
    """
    if code is None:
        last = stderr.strip().splitlines()[-1:] or [""]
        return ["traceback: " + last[0]]
    if code == 2:
        return ["exit 2 on a generated-valid input: " + stderr.strip()]
    if entry.get("sabotage") and code != 3:
        return [f"sabotaged verify exited {code}"]
    if code != entry["exit"]:
        return [f"exit {code}, reference {entry['exit']}"]
    scale = problem_scale(entry["config"])
    if entry["command"] == "sample":
        return compare_sample(entry["output"], stdout, entry["config"], scale)
    try:
        got = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    return compare_json(entry["output"], got, scale)
