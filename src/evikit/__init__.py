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
    AllenCahnSpace,
    CirSpace,
    QuadraticSpace,
    Wasserstein1DSpace,
    mccann_check,
)
from .flow import Trajectory, flow_exact, flow_mms
from .tataru import TataruResult, tataru_distance

__version__ = "0.1.0"

__all__ = [
    "AllenCahnSpace",
    "CirSpace",
    "ConstructionError",
    "DomainError",
    "ExtendedReal",
    "NumericalError",
    "QuadraticSpace",
    "Space",
    "StatePoint",
    "TataruResult",
    "Trajectory",
    "UnsupportedFlowError",
    "UsageError",
    "Wasserstein1DSpace",
    "flow_exact",
    "flow_mms",
    "mccann_check",
    "tataru_distance",
    "__version__",
]
