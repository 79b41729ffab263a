"""Worst-case interference and rate guarantees for hardcore-regulated
cellular downlinks, with an empirical verifier for the almost-sure claims."""

from importlib import import_module

from .bounds import (BallRegulation, conditional_bound_general,
                     exclusion_radius, hardcore_regulation_constants,
                     interference_bound, legacy_bound, shot_noise_bound)
from .guarantees import (CriticalPower, InfeasibleError, LinkBudget,
                         RateGuarantee, critical_power, criticality_feasible,
                         rate_always_active, rate_scheduled, solve_critical_hk,
                         theta)
from .hexnet import (HexRatePoint, UnsupportedReuseError, hardcore_for_reuse,
                     hex_rate_sweep)
from .pathloss import BoundedPowerLaw, DivergenceError

# The sampling and verification API runs on numpy.  Its names, and the
# modules themselves, resolve on first access (PEP 562), so ``import
# cellbounds`` and the analytic sweeps do not load numpy.
_LAZY = {
    **{module: module for module in ("kernels", "montecarlo", "pointset")},
    **dict.fromkeys(
        ("ConfigurationError", "TrialRecord", "VerificationReport",
         "check_ball_regulation", "check_interference_bound",
         "check_scheduled_bound", "lattice_factory", "matern_factory",
         "vertex_window"), "montecarlo"),
    **dict.fromkeys(
        ("MarkedPointSet", "Rect", "ball_count", "color_lattice", "from_csv",
         "gen_matern_ii", "gen_triangular_lattice", "nearest_index", "to_csv",
         "verify_hardcore"), "pointset"),
}


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    loaded = import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


__version__ = "0.1.0"

__all__ = [
    "BallRegulation",
    "BoundedPowerLaw",
    "ConfigurationError",
    "CriticalPower",
    "DivergenceError",
    "HexRatePoint",
    "InfeasibleError",
    "LinkBudget",
    "MarkedPointSet",
    "RateGuarantee",
    "Rect",
    "TrialRecord",
    "UnsupportedReuseError",
    "VerificationReport",
    "ball_count",
    "check_ball_regulation",
    "check_interference_bound",
    "check_scheduled_bound",
    "color_lattice",
    "conditional_bound_general",
    "critical_power",
    "criticality_feasible",
    "exclusion_radius",
    "from_csv",
    "gen_matern_ii",
    "gen_triangular_lattice",
    "hardcore_for_reuse",
    "hardcore_regulation_constants",
    "hex_rate_sweep",
    "interference_bound",
    "lattice_factory",
    "legacy_bound",
    "matern_factory",
    "nearest_index",
    "rate_always_active",
    "rate_scheduled",
    "shot_noise_bound",
    "solve_critical_hk",
    "theta",
    "to_csv",
    "verify_hardcore",
    "vertex_window",
]
