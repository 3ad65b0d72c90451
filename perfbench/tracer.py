"""Spans around the chapgas layers, observed from outside the package.

Each public function is wrapped at the binding where its caller looks it up
(``chapgas.fv.step`` for ``fv.run``, ``chapgas.cli.evaluate`` for the sample
command, ...), so the package itself is untouched. A span records name, start,
end, parent span, command id and, for ``fv.step``, the cells it updated.
Spans are kept in memory and written out at the end of the run. A binding that
no longer exists is reported as missing, together with the metrics it feeds.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path


def _cells(args, kwargs) -> int:
    state = args[0] if args else kwargs.get("state")
    return len(getattr(state, "rho", ()))


# (span name, module, attribute, work counter); the suffix after "@" names
# the caller's module when one function is bound in several places
BINDINGS = (
    ("cli.main", "chapgas.cli", "main", None),
    ("waves.solve@cli", "chapgas.cli", "solve", None),
    ("waves.solve@verify", "chapgas.verify", "solve", None),
    ("waves.solve@limits", "chapgas.limits", "solve", None),
    ("delta.make_delta_wave", "chapgas.waves", "make_delta_wave", None),
    ("waves.evaluate", "chapgas.cli", "evaluate", None),
    ("verify.fan_checks", "chapgas.cli", "fan_checks", None),
    ("weakform.weak_residual", "chapgas.verify", "weak_residual", None),
    ("weakform.residual_battery", "chapgas.verify", "residual_battery", None),
    ("limits.limit_study", "chapgas.cli", "limit_study", None),
    ("fv.run", "chapgas.cli", "run", None),
    ("fv.step", "chapgas.fv", "step", _cells),
    ("fv.wave_offsets", "chapgas.cli", "wave_offsets", None),
    ("fv.compare_to_exact", "chapgas.cli", "compare_to_exact", None),
    ("fv.measure_delta_mass", "chapgas.cli", "measure_delta_mass", None),
)

FV_POST = ("fv.wave_offsets", "fv.compare_to_exact", "fv.measure_delta_mass")
SOLVE = ("waves.solve@cli", "waves.solve@verify", "waves.solve@limits")


def unit(metric: str) -> str:
    if metric.endswith((".calls", ".cell_steps")):
        return "count"
    if metric.endswith((".share", ".overhead_frac")):
        return "ratio"
    if ".ns_per_cell_step" in metric:
        return "ns"
    return "us" if metric.endswith(".us") else "ms"


class Tracer:
    """Installs the wrappers while active (a context manager) and keeps spans
    as tuples (name, start_ns, end_ns, parent index, command id, work)."""

    def __init__(self):
        self.spans: list = []
        self.command = -1
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                n = work(args, kwargs) if work else 0
                spans[idx] = (name, start, end, parent, self.command, n)

        return wrapper

    def __enter__(self):
        for name, module_name, attr, work in BINDINGS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, work))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcommand\twork\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _totals(spans):
    """Per span name: [calls, total ns, self ns, work]. Spans of one
    single-threaded call tree never overlap, so the time children cover is
    the sum of their durations."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for i, (name, start, end, _, _, work) in enumerate(spans):
        t = out.setdefault(name, [0, 0, 0, 0])
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child_ns[i]
        t[3] += work
    return out


def layer_metrics(spans, passes: int, grids) -> tuple[dict, dict[str, tuple]]:
    """Per-layer metrics from the spans of ``passes`` traced pool passes.

    Times are per call unless the name says otherwise; ``*.calls`` and
    ``fv.cell_steps`` are per pool pass, so they repeat exactly for a seed.
    Returns (values, needs): needs maps each metric to the spans it is built
    from, so a metric whose binding is missing can be dropped.
    """
    tot = _totals(spans)

    def get(*names):
        rows = [tot.get(n, [0, 0, 0, 0]) for n in names]
        return [sum(col) for col in zip(*rows)]

    def per(num, den, unit):
        return num / den / unit if den else 0.0

    main_calls, main_ns, main_self, _ = get("cli.main")
    solve = get(*SOLVE)
    mdw = get("delta.make_delta_wave")
    ev = get("waves.evaluate")
    fc = get("verify.fan_checks")
    wr = get("weakform.weak_residual")
    rb = get("weakform.residual_battery")
    ls = get("limits.limit_study")
    fr = get("fv.run")
    st = get("fv.step")
    post = get(*FV_POST)
    us, ms = 1e3, 1e6

    values = {
        "cli.self_ms": per(main_self, main_calls, ms),
        "waves.solve.calls": solve[0] // passes,
        "waves.solve.us": per(solve[1], solve[0], us),
        "delta.make_delta_wave.us": per(mdw[1], mdw[0], us),
        "waves.evaluate.calls": ev[0] // passes,
        "waves.evaluate.us": per(ev[1], ev[0], us),
        "waves.evaluate.share": per(ev[1], main_ns, 1),
        "verify.fan_checks.ms": per(fc[1], fc[0], ms),
        "verify.fan_checks.self_ms": per(fc[2], fc[0], ms),
        "weakform.weak_residual.calls": wr[0] // passes,
        "weakform.weak_residual.ms": per(wr[1], wr[0], ms),
        "weakform.weak_residual.share": per(wr[1], main_ns, 1),
        "weakform.residual_battery.us": per(rb[1], rb[0], us),
        "limits.limit_study.ms": per(ls[1], ls[0], ms),
        "limits.limit_study.self_ms": per(ls[2], ls[0], ms),
        "limits.solve.calls": get("waves.solve@limits")[0] // passes,
        "fv.run.ms": per(fr[1], fr[0], ms),
        "fv.run.self_ms": per(fr[2], fr[0], ms),
        "fv.step.calls": st[0] // passes,
        "fv.cell_steps": st[3] // passes,
        "fv.step.ns_per_cell_step": per(st[1], st[3], 1),
        "fv.post.ms": per(post[1], fr[0], ms),
    }
    needs = {
        "cli.self_ms": ("cli.main",),
        "waves.solve.calls": SOLVE,
        "waves.solve.us": SOLVE,
        "delta.make_delta_wave.us": ("delta.make_delta_wave",),
        "waves.evaluate.calls": ("waves.evaluate",),
        "waves.evaluate.us": ("waves.evaluate",),
        "waves.evaluate.share": ("waves.evaluate", "cli.main"),
        "verify.fan_checks.ms": ("verify.fan_checks",),
        "verify.fan_checks.self_ms": ("verify.fan_checks",),
        "weakform.weak_residual.calls": ("weakform.weak_residual",),
        "weakform.weak_residual.ms": ("weakform.weak_residual",),
        "weakform.weak_residual.share": ("weakform.weak_residual", "cli.main"),
        "weakform.residual_battery.us": ("weakform.residual_battery",),
        "limits.limit_study.ms": ("limits.limit_study",),
        "limits.limit_study.self_ms": ("limits.limit_study",),
        "limits.solve.calls": ("waves.solve@limits",),
        "fv.run.ms": ("fv.run",),
        "fv.run.self_ms": ("fv.run",),
        "fv.step.calls": ("fv.step",),
        "fv.cell_steps": ("fv.step",),
        "fv.step.ns_per_cell_step": ("fv.step",),
        "fv.post.ms": FV_POST + ("fv.run",),
    }
    by_grid: dict[int, list[int]] = {}
    for name, start, end, _, _, work in spans:
        if name == "fv.step":
            g = by_grid.setdefault(work, [0, 0])
            g[0] += end - start
            g[1] += work
    for n in grids:
        ns, cells = by_grid.get(n, [0, 0])
        key = f"fv.step.ns_per_cell_step.n{n}"
        values[key] = per(ns, cells, 1)
        needs[key] = ("fv.step",)
    return values, needs
