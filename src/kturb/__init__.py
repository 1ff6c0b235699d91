"""Pseudo-spectral solver and analytic-envelope verifier for a
two-equation eddy-viscosity turbulence model on a periodic box.

The model evolves a divergence-free velocity v, a dissipation rate
omega and a turbulent energy measure b, coupled through the eddy
viscosity mu = b/omega.  Alongside the solver, the package evaluates
the closed-form decay envelopes of the solution norms and a
global-existence criterion comparing the eddy-viscosity floor mu_min(t)
against the smallness functional Z0(t).
"""

from .criterion import (CriterionConfig, CriterionReport, check_glob_add,
                        compute_a0, full_report, margin)
from .dynamics import Forcing, ModelParams, State
from .envelopes import DataBounds, EnvelopeSet, geometric_times
from .errors import (BlowUp, ConfigError, InconclusiveTail, Kappa2TooSmall,
                     KturbError, PositivityViolation, VerificationFailure)
from .grid import TorusGrid
from .integrator import StepControl, advance, compute_dt

__version__ = "0.1.0"

__all__ = [
    "TorusGrid", "ModelParams", "State", "Forcing",
    "StepControl", "compute_dt", "advance",
    "DataBounds", "EnvelopeSet", "geometric_times",
    "CriterionConfig", "CriterionReport", "margin", "check_glob_add",
    "compute_a0", "full_report",
    "KturbError", "PositivityViolation", "BlowUp", "Kappa2TooSmall",
    "InconclusiveTail", "VerificationFailure", "ConfigError",
]
