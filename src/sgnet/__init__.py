"""Stochastic Galerkin solver for elliptic random PDEs with neural surrogates.

The package couples a polynomial chaos discretization of the stochastic space
with feedforward networks for the spectral coefficient functions, trained
either on the strong residual of the coupled system or on its Ritz energy.
Classical finite-element solvers and an H1 error metric provide ground truth.
"""

from .spectral import (
    GalerkinTensor,
    OrderedBasis,
    PolyFamily,
    QuadratureRule,
    galerkin_tensor,
    total_degree_basis,
)
from .fields import FieldModel, SpectralField, field_model
from .net import BranchSpec, MultiBranchNet
from .solver import SobolStream, TrainConfig, TrainResult, ritz_risk, strong_risk, train, validation_error
from .metrics import ErrorReport, rel_h1_error

__version__ = "0.1.0"

__all__ = [
    "BranchSpec",
    "ErrorReport",
    "FieldModel",
    "GalerkinTensor",
    "MultiBranchNet",
    "OrderedBasis",
    "PolyFamily",
    "QuadratureRule",
    "SobolStream",
    "SpectralField",
    "TrainConfig",
    "TrainResult",
    "field_model",
    "galerkin_tensor",
    "rel_h1_error",
    "ritz_risk",
    "strong_risk",
    "total_degree_basis",
    "train",
    "validation_error",
]
