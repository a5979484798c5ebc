"""Exact-arithmetic models of universal ultrametric spaces with petal structure.

Four concrete models over the non-negative rationals, each with its
metric, petals, traces, and (where constructive) one-point injective
extension, plus a finite-ultrametric-space toolkit and a randomised
axiom harness.
"""

from .scales import RangeSet, ZERO, as_scale, max_outside
from .umspace import (
    Dendrogram,
    FiniteUltraSpace,
    NotPositive,
    NotSymmetric,
    NotUltrametric,
    SpaceError,
)
from .extension import Inconsistent
from .model_f import SupportMap, delta
from .model_maps import CantorFunction, nabla, zero_function
from .model_cpum import CantorPseudoUltrametric, ud
from .model_gh import GHPoint, TooLarge, na_distance, na_oracle
from .petal_harness import (
    PartialIsometry,
    InvariantViolation,
    TrialConfig,
    back_and_forth,
    run_axiom_suite,
    ultrahomogeneity_demo,
)

__version__ = "0.1.0"

__all__ = [
    "RangeSet",
    "ZERO",
    "as_scale",
    "max_outside",
    "Dendrogram",
    "FiniteUltraSpace",
    "SpaceError",
    "NotPositive",
    "NotSymmetric",
    "NotUltrametric",
    "Inconsistent",
    "SupportMap",
    "delta",
    "CantorFunction",
    "nabla",
    "zero_function",
    "CantorPseudoUltrametric",
    "ud",
    "GHPoint",
    "TooLarge",
    "na_distance",
    "na_oracle",
    "PartialIsometry",
    "InvariantViolation",
    "TrialConfig",
    "back_and_forth",
    "run_axiom_suite",
    "ultrahomogeneity_demo",
]
