"""gexp: a numerical laboratory for worst-case (sublinear) expectations.

The package solves the nonlinear heat equation that defines the worst-case
semigroup over a volatility band, estimates the same quantity by scenario-max
Monte Carlo, verifies two-point and shift Harnack inequalities with explicit
closed-form exponents, exercises the coupling-by-change-of-measure
construction pathwise, and probes an explicit Ornstein-Uhlenbeck kernel
family with a dominating sup-density.
"""

from .axioms import run_axioms
from .core import (
    GsdeSpec,
    Kind,
    McConfig,
    Scenario,
    TestFunction,
    VolatilityBand,
    catalog,
    make_drift,
    make_scenario_lattice,
)
from .coupling import (
    CouplingReport,
    eta_schedule,
    mt_moment_check,
    novikov_pathwise_bound,
    run_coupling_suite,
)
from .gheat import (
    Grid1D,
    PdeSolution,
    g_operator,
    pbar_pde,
    solve,
    solve_batch,
)
from .harnack import (
    HarnackCertificate,
    harnack_exponent,
    harnack_grid,
    shift_harnack_exponent,
    shift_harnack_grid,
    verify_harnack,
    verify_shift_harnack,
)
from .kernels import (
    Ex38Report,
    KernelReport,
    MeanMode,
    classical_ou_harnack_exponent,
    dominance_check,
    ex38_probe,
    kernel_lower_bound_check,
    member_invariance_gap,
    normal_expectation,
    ou_kernel,
    ou_semigroup,
    quasi_invariance_check,
    run_kernel_suite,
    sup_kernel_ex34,
)
from .simulate import PbarEstimate, pbar_mc

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "VolatilityBand",
    "Scenario",
    "Kind",
    "GsdeSpec",
    "TestFunction",
    "McConfig",
    "make_scenario_lattice",
    "catalog",
    "make_drift",
    # gheat
    "Grid1D",
    "PdeSolution",
    "g_operator",
    "solve",
    "solve_batch",
    "pbar_pde",
    # simulate
    "PbarEstimate",
    "pbar_mc",
    # harnack
    "HarnackCertificate",
    "harnack_exponent",
    "shift_harnack_exponent",
    "verify_harnack",
    "verify_shift_harnack",
    "harnack_grid",
    "shift_harnack_grid",
    # coupling
    "CouplingReport",
    "eta_schedule",
    "novikov_pathwise_bound",
    "run_coupling_suite",
    "mt_moment_check",
    # kernels
    "MeanMode",
    "KernelReport",
    "Ex38Report",
    "normal_expectation",
    "ou_semigroup",
    "ou_kernel",
    "sup_kernel_ex34",
    "dominance_check",
    "quasi_invariance_check",
    "member_invariance_gap",
    "classical_ou_harnack_exponent",
    "kernel_lower_bound_check",
    "ex38_probe",
    "run_kernel_suite",
    # axioms
    "run_axioms",
]
