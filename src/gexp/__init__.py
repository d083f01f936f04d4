"""gexp: a numerical laboratory for worst-case (sublinear) expectations.

The package solves the nonlinear heat equation that defines the worst-case
semigroup over a volatility band, estimates the same quantity by scenario-max
Monte Carlo, verifies two-point and shift Harnack inequalities with explicit
closed-form exponents, exercises the coupling-by-change-of-measure
construction pathwise, and probes an explicit Ornstein-Uhlenbeck kernel
family with a dominating sup-density.
"""

from . import axioms, core, coupling, gheat, harnack, kernels, simulate
from .axioms import *
from .core import *
from .coupling import *
from .gheat import *
from .harnack import *
from .kernels import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *gheat.__all__,
    *simulate.__all__,
    *harnack.__all__,
    *coupling.__all__,
    *kernels.__all__,
    *axioms.__all__,
]
