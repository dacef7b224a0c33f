"""Path-model zoo: martingale arrays and weakly dependent sums.

`make_model` turns a declarative ModelSpec into a family object.
"""

from __future__ import annotations

from ..errors import CltLabError, ConfigurationError
from .base import (
    DEFAULT_CHUNK,
    KNOWN_FAMILIES,
    Model,
    ModelSpec,
    PathMoments,
    check_table_size,
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
    """Instantiate (and fully validate) the family named by the spec; a param
    of the wrong type or form is a ConfigurationError naming the family."""
    try:
        return _FAMILY_CLASSES[spec.family](spec)
    except CltLabError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{spec.family} params: {exc}") from exc


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
    "RademacherIID",
    "RhoMixingChain",
    "SequentialMaps",
    "atom_fraction",
    "branch_abs_moment",
    "check_table_size",
    "coefficient_schedule",
    "gaussian_min_profile",
    "make_model",
    "sigma_schedule",
]
