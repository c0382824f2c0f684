"""Darcy friction factor for turbulent pipe flow (Haaland correlation)."""

from __future__ import annotations

import math
from dataclasses import replace

from .core import PipeParams, _check_finite
from .errors import ConfigurationError, DomainError


def haaland_lambda(eps: float, d: float, Re: float) -> float:
    """Haaland's explicit approximation of the Colebrook friction factor.

    1/sqrt(lambda) = -1.8 log10[ (eps/(3.7 d))^1.11 + 6.9/Re ]

    eps: wall roughness [m], d: inside diameter [m], Re: Reynolds number.
    """
    if not d > 0.0:
        raise DomainError("diameter must be strictly positive")
    if not Re > 0.0:
        raise DomainError("Reynolds number must be strictly positive")
    if eps < 0.0:
        raise DomainError("roughness must be nonnegative")
    _check_finite("Reynolds number Re", Re)
    _check_finite("roughness eps", eps)
    try:
        arg = (eps / (3.7 * d)) ** 1.11 + 6.9 / Re
    except OverflowError:  # float ** raises where it leaves the float range
        raise DomainError("invalid friction regime") from None
    if not arg > 0.0:
        raise DomainError("invalid friction regime")
    inv_sqrt = -1.8 * math.log10(arg)
    if not inv_sqrt > 0.0:
        raise DomainError("invalid friction regime")
    return 1.0 / inv_sqrt**2


def friction_factor(lam: float | None, eps: float, d: float, Re: float | None) -> float:
    """lam if given, else Haaland's lambda for roughness eps, diameter d and Reynolds number Re."""
    if lam is not None:
        return lam
    if Re is None:
        raise ConfigurationError("pipe needs either an explicit lambda or a Reynolds number")
    return haaland_lambda(eps, d, Re)


def resolve_lambda(params: PipeParams, Re: float | None = None) -> PipeParams:
    """Return params with the friction factor filled in.

    An explicitly given lambda takes precedence; otherwise it is computed
    from Haaland's formula using the supplied Reynolds number.
    """
    if params.lam is not None:
        return params
    return replace(params, lam=friction_factor(None, params.eps, params.d, Re))
