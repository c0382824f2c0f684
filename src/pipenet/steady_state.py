"""Steady-state boundary values used as linearization points.

The nominal exit pressure satisfies an implicit relation: with
v_r = q R_s z_0 T_r / (A_c p_r),

    p_r = p_l^(T_l/T_r) * exp( -lam*L/(2 d R_s z_0 T_r) * v_r|v_r|
                               - g h / (R_s z_0 T_r) )

i.e. friction and elevation reduce the exit pressure for positive flow.
The friction exponent is implemented with the negative sign of the
derivation's final form and of the first-order expansion; the
intermediate display with a positive sign is a sign typo.

The head-loss content of the relation is the Darcy-Weisbach term
H_L = lam*L/(2 d g) * v|v|.
"""

from __future__ import annotations

import math

from .core import G_STD, GasProperties, OperatingPoint, PipeParams
from .errors import DomainError, NumericalError

_REL_TOL = 1e-12
_MAX_ITER = 200


def _solve_fixed_point(update, p_init: float, lo: float, hi: float) -> float:
    """Damped fixed-point iteration with bisection fallback on [lo, hi]."""
    p = p_init
    prev_delta = None
    for _ in range(_MAX_ITER):
        p_next = update(p)
        if not p_next > 0.0:
            break
        delta = p_next - p
        if abs(delta) <= _REL_TOL * abs(p_next):
            return p_next
        if prev_delta is not None and delta * prev_delta < 0 and abs(delta) > 0.5 * abs(prev_delta):
            break  # oscillating; hand over to bisection
        prev_delta = delta
        p = p + 0.5 * delta
    # bisection on the residual g(p) = p - update(p)
    g_lo = lo - update(lo)
    g_hi = hi - update(hi)
    if g_lo * g_hi > 0:
        raise NumericalError("steady-state solve diverged")
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        g_mid = mid - update(mid)
        if abs(g_mid) <= _REL_TOL * abs(mid):
            return mid
        if g_lo * g_mid <= 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    raise NumericalError("steady-state solve diverged")


def _check_inputs(p_l_ss, T_l_ss, T_r_ss):
    if not p_l_ss > 0.0:
        raise DomainError("nominal left pressure must be strictly positive")
    if not T_l_ss > 0.0 or not T_r_ss > 0.0:
        raise DomainError("nominal temperatures must be strictly positive")


def _relation(p_l_ss, T_l_ss, T_r_ss, params, gas):
    """base = p_l^(T_l/T_r), friction coefficient coef and elevation exponent grav."""
    _check_inputs(p_l_ss, T_l_ss, T_r_ss)
    lam = params.require_lambda()
    Rz = gas.R_s * gas.z_0
    base = p_l_ss ** (T_l_ss / T_r_ss)
    grav = G_STD * params.h / (Rz * T_r_ss)
    coef = lam * params.L * Rz * T_r_ss / (2.0 * params.d * params.A_c**2)
    return base, coef, grav


def exact_nominal_pr(p_l_ss: float, q_ss: float, T_l_ss: float, T_r_ss: float,
                     params: PipeParams, gas: GasProperties) -> float:
    """Exit pressure from the exponential steady-state relation.

    p_r appears inside the exponential through v_r; the implicit relation
    is solved to relative residual 1e-12.
    """
    base, coef, grav = _relation(p_l_ss, T_l_ss, T_r_ss, params, gas)

    def update(p_r):
        return base * math.exp(-coef * q_ss * abs(q_ss) / p_r**2 - grav)

    return _solve_fixed_point(update, base, 0.5 * base, 2.0 * base)


def approx_nominal_pr(p_l_ss: float, q_ss: float, T_l_ss: float, T_r_ss: float,
                      params: PipeParams, gas: GasProperties) -> float:
    """First-order expansion of the exponential steady-state relation."""
    base, coef, grav = _relation(p_l_ss, T_l_ss, T_r_ss, params, gas)

    def update(p_r):
        return base * (1.0 - coef * q_ss * abs(q_ss) / p_r**2 - grav)

    return _solve_fixed_point(update, base, 0.5 * base, 2.0 * base)


def isothermal_nominal(p_l_ss: float, q_ss: float, T_0: float,
                       params: PipeParams, gas: GasProperties) -> OperatingPoint:
    """Full operating point at uniform temperature T_0.

    The nominal flow is uniform along the pipe (q_r,ss = q_l,ss) and the
    exit pressure comes from exact_nominal_pr at equal temperatures.
    """
    p_r = exact_nominal_pr(p_l_ss, q_ss, T_0, T_0, params, gas)
    return OperatingPoint(p_l_ss=p_l_ss, p_r_ss=p_r, q_ss=q_ss,
                          T_l_ss=T_0, T_r_ss=T_0)
