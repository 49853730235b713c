"""evikit: desk-scale numerics for EVI gradient flows, Tataru distances
and the Hamilton-Jacobi comparison machinery of linearly controlled
gradient flows on concrete metric-energy spaces."""

from .core import (
    ConstructionError,
    DomainError,
    ExtendedReal,
    NumericalError,
    Space,
    StatePoint,
    UnsupportedFlowError,
    UsageError,
)
from .spaces import (
    AllenCahnDescriptor,
    CirDescriptor,
    QuadraticDescriptor,
    Wasserstein1DDescriptor,
    make_allen_cahn,
    make_cir,
    make_ou,
    make_quadratic,
    make_wasserstein1d,
    mccann_check,
)
from .flow import Trajectory, flow_exact, flow_mms
from .tataru import TataruResult, tataru_distance

__version__ = "0.1.0"

__all__ = [
    "AllenCahnDescriptor",
    "CirDescriptor",
    "ConstructionError",
    "DomainError",
    "ExtendedReal",
    "NumericalError",
    "QuadraticDescriptor",
    "Space",
    "StatePoint",
    "TataruResult",
    "Trajectory",
    "UnsupportedFlowError",
    "UsageError",
    "Wasserstein1DDescriptor",
    "flow_exact",
    "flow_mms",
    "make_allen_cahn",
    "make_cir",
    "make_ou",
    "make_quadratic",
    "make_wasserstein1d",
    "mccann_check",
    "tataru_distance",
    "__version__",
]
