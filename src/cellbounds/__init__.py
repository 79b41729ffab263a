"""Worst-case interference and rate guarantees for hardcore-regulated
cellular downlinks, with an empirical verifier for the almost-sure claims."""

from importlib import import_module

# Every public name, by the module that defines it.  The names and the
# public modules resolve on first access (PEP 562), so ``import
# cellbounds`` loads none of its modules, and the analytic sweeps, which
# run on Python floats, never load numpy.
_NAMES = {
    **dict.fromkeys(
        ("ball_count_bound", "exclusion_radius",
         "hardcore_regulation_constants", "interference_bound",
         "legacy_bound"), "bounds"),
    **dict.fromkeys(
        ("InfeasibleError", "LinkBudget", "critical_power",
         "criticality_feasible", "rate_always_active", "rate_scheduled",
         "solve_critical_hk", "theta"), "guarantees"),
    **dict.fromkeys(
        ("HexRatePoint", "UnsupportedReuseError", "hardcore_for_reuse",
         "hex_rate_sweep"), "hexnet"),
    **dict.fromkeys(("BoundedPowerLaw", "DivergenceError"), "pathloss"),
    **dict.fromkeys(
        ("ConfigurationError", "TrialRecord", "VerificationReport",
         "check_ball_regulation", "check_interference_bound",
         "check_scheduled_bound", "lattice_factory", "matern_factory"),
        "montecarlo"),
    **dict.fromkeys(
        ("MarkedPointSet", "Rect", "ball_count", "color_lattice", "from_csv",
         "gen_matern_ii", "gen_triangular_lattice", "nearest_index", "to_csv",
         "verify_hardcore"), "pointset"),
}
_MODULES = {*_NAMES.values(), "cli", "kernels"}


def __getattr__(name):
    module = _NAMES.get(name, name)
    if module not in _MODULES:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


__version__ = "0.1.0"

__all__ = sorted(_NAMES)
