"""Exact Riemann solutions for the sticky-particle gas with friction and
its Chaplygin-type flux perturbation, plus the machinery to check them:
distributional residuals, generalized jump conditions, amplitude-limit
sweeps, and an independent finite-volume cross-check.
"""

import importlib

from .delta import (
    DeltaShockWave,
    c_identity_residual,
    entropy_check,
    grh_residual,
    make_delta_wave,
    speed_quadratic_residual,
)
from .errors import (
    AlphaOutOfRange,
    CaseMismatch,
    CflViolation,
    ChapgasError,
    DensityOutOfRange,
    NegativeAmplitude,
    NegativeTime,
    NonFiniteInput,
    NonPositiveDensity,
    OutsideFan,
    PressurelessNotApplicable,
    RegionMismatch,
    UnsupportedQuadOrder,
    ValidationError,
    WindowOutOfDomain,
)
from .limits import (
    LimitReport,
    concentration_integrals,
    default_sweep,
    limit_study,
    thresholds,
)
from .states import (
    GasParams,
    ParabolicPath,
    PrimState,
    Region,
    RiemannProblem,
    pressureless_case,
    problem_scale,
    riemann_invariants,
)
from .waves import (
    SampleKind,
    SolutionSlice,
    WaveFan,
    evaluate,
    intermediate_state,
    rarefaction_state,
    rh_residual,
    solve,
    wave_positions,
)

# the NumPy-backed layers, imported on the first lookup of one of their names
# (PEP 562), so that solve and limit start without NumPy; a name already set,
# say by a monkeypatch, keeps its value
_LAZY = {
    "fv": (
        "FvConfig",
        "FvState",
        "compare_to_exact",
        "gate_cells",
        "grid",
        "init_state",
        "measure_delta_mass",
        "run",
        "step",
        "wave_offsets",
    ),
    "verify": ("CheckRow", "checks_pass", "fan_checks"),
    "weakform": ("TestFunction", "residual_battery", "weak_residual"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            mod = importlib.import_module(f"{__name__}.{module}")
            for n in names:
                globals().setdefault(n, getattr(mod, n))
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRange",
    "CaseMismatch",
    "CflViolation",
    "ChapgasError",
    "CheckRow",
    "DeltaShockWave",
    "DensityOutOfRange",
    "FvConfig",
    "FvState",
    "GasParams",
    "LimitReport",
    "NegativeAmplitude",
    "NegativeTime",
    "NonFiniteInput",
    "NonPositiveDensity",
    "OutsideFan",
    "ParabolicPath",
    "PressurelessNotApplicable",
    "PrimState",
    "Region",
    "RegionMismatch",
    "RiemannProblem",
    "SampleKind",
    "SolutionSlice",
    "TestFunction",
    "UnsupportedQuadOrder",
    "ValidationError",
    "WaveFan",
    "WindowOutOfDomain",
    "c_identity_residual",
    "checks_pass",
    "compare_to_exact",
    "concentration_integrals",
    "default_sweep",
    "entropy_check",
    "evaluate",
    "fan_checks",
    "gate_cells",
    "grh_residual",
    "grid",
    "init_state",
    "intermediate_state",
    "limit_study",
    "make_delta_wave",
    "measure_delta_mass",
    "pressureless_case",
    "problem_scale",
    "rarefaction_state",
    "residual_battery",
    "rh_residual",
    "riemann_invariants",
    "run",
    "solve",
    "speed_quadratic_residual",
    "step",
    "thresholds",
    "wave_offsets",
    "wave_positions",
    "weak_residual",
]
