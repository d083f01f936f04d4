"""gexp: a numerical laboratory for worst-case (sublinear) expectations.

The package solves the nonlinear heat equation that defines the worst-case
semigroup over a volatility band, estimates the same quantity by scenario-max
Monte Carlo, verifies two-point and shift Harnack inequalities with explicit
closed-form exponents, exercises the coupling-by-change-of-measure
construction pathwise, and probes an explicit Ornstein-Uhlenbeck kernel
family with a dominating sup-density.

Each module is imported the first time it, or one of its public names, is
looked up on the package (PEP 562), so a caller pays only for the modules it
uses.  A looked-up name is read from its module on every lookup and never
stored here, so a rebound module attribute (a tracer, a test's monkeypatch)
takes effect through the package and is undone with it.
"""

import sys as _sys

__version__ = "0.1.0"

# each module's __all__, in the order of the package's __all__
_EXPORTS = {
    "core": (
        "VolatilityBand", "Scenario", "Kind", "GsdeSpec", "TestFunction", "McConfig",
        "make_scenario_lattice", "catalog", "make_drift",
    ),
    "gheat": ("Grid1D", "PdeSolution", "g_operator", "solve", "solve_batch", "pbar_pde"),
    "simulate": ("PbarEstimate", "pbar_mc"),
    "harnack": (
        "HarnackCertificate", "harnack_exponent", "shift_harnack_exponent",
        "verify_harnack", "verify_shift_harnack", "harnack_grid", "shift_harnack_grid",
    ),
    "coupling": (
        "CouplingReport", "eta_schedule", "novikov_pathwise_bound", "run_coupling_suite",
        "mt_moment_check",
    ),
    "kernels": (
        "KernelReport", "Ex38Report", "normal_expectation", "ou_semigroup", "ou_kernel",
        "sup_kernel_ex34", "dominance_check", "quasi_invariance_check",
        "member_invariance_gap", "classical_ou_harnack_exponent",
        "kernel_lower_bound_check", "ex38_probe", "run_kernel_suite",
    ),
    "axioms": ("run_axioms",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    module = name if name in _EXPORTS else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: python -X importtime lists
    # only the modules that the import statement's machinery loads
    __import__(f"{__name__}.{module}")
    found = _sys.modules[f"{__name__}.{module}"]
    return found if module == name else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
