"""Path-model zoo: martingale arrays and weakly dependent sums.

`make_model` turns a declarative ModelSpec into a family object.
"""

from __future__ import annotations

from .base import (
    DEFAULT_CHUNK,
    KNOWN_FAMILIES,
    Model,
    ModelSpec,
    PathMoments,
    PathSample,
)
from .ce import CELowerBound, CEParams, atom_fraction, branch_abs_moment
from .chain import RhoMixingChain
from .iid import GaussianIID, RademacherIID, gaussian_min_profile, sigma_schedule
from .linear import LinearStatistic, coefficient_schedule
from .seqdyn import OBSERVABLES, SequentialMaps

_FAMILY_CLASSES = {
    "gaussian_iid": GaussianIID,
    "rademacher_iid": RademacherIID,
    "ce_lowerbound": CELowerBound,
    "linear_statistic": LinearStatistic,
    "rho_mixing_chain": RhoMixingChain,
    "sequential_maps": SequentialMaps,
}


def make_model(spec: ModelSpec) -> Model:
    """Instantiate (and fully validate) the family named by the spec."""
    return _FAMILY_CLASSES[spec.family](spec)


__all__ = [
    "CELowerBound",
    "CEParams",
    "DEFAULT_CHUNK",
    "GaussianIID",
    "KNOWN_FAMILIES",
    "LinearStatistic",
    "Model",
    "ModelSpec",
    "OBSERVABLES",
    "PathMoments",
    "PathSample",
    "RademacherIID",
    "RhoMixingChain",
    "SequentialMaps",
    "atom_fraction",
    "branch_abs_moment",
    "coefficient_schedule",
    "gaussian_min_profile",
    "make_model",
    "sigma_schedule",
]
