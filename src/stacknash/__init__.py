"""Numerical engine for a two-layer Stackelberg-Nash reinsurance game with
one insurer and two competing reinsurers under variance premium principles."""

from .bestresponse import (CessionPartialSet, NonpositiveInput,
                           NonpositivePremium, PartialSet, ReinsurerSide,
                           cession_partials, insurer_response, phi,
                           phi_partials, phi_prime, reinsurer_side)
from .equilibrium import (ExistenceVerdict, NoEquilibrium, SolverFailure,
                          existence, limit_profile, relative_residual,
                          residual, solve)
from .model import (DEFAULT_PARAMS, CessionPair, Equilibrium, InvalidParams,
                    ModelParams, PremiumPair, ValidationResult,
                    params_from_json, params_to_json, validate)
from .sensitivity import (Method, SensitivityReport, analytic_report,
                          finite_difference_report, theta_sensitivity)
from .valuation import (f0_rate, premium_identity_gap, reinsurer_rate,
                        value_insurer, value_reinsurer, welfare_index)

__all__ = [name for name in dir() if not name.startswith("_")]
