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

Both the exact relation and its first-order expansion are solved for p_r
as the root of g(p_r) = p_r - update(p_r) by Newton's method from
p_l^(T_l/T_r), with the closed-form slope of update; on the networks of
the test suite a solve takes at most five evaluations of update. For
reverse flow g is strictly increasing and concave, so Newton climbs to
the unique root from below. Bisection on [p_l^(T_l/T_r)/2, 2 p_l^(T_l/T_r)]
takes over if an iterate leaves (0, inf) or the iteration limit runs out.

Strong reverse flow can defeat both: Newton from p_l^(T_l/T_r) climbs the
exponent about one unit per step, and exp overflows on the way or at the
bracket. If so, the exact relation is solved in y = ln p_r instead, where
it reads h(y) = y - ln base + grav + c e^(-2y) = 0 with c < 0; h is
strictly increasing and concave, so Newton from its lower bound
y = ln base - grav climbs to the unique root without overflow. Newton
on p_r from that root then restores the bits that ln p_r cannot hold.

An iterate whose cube underflows to zero or overflows (outside about
1e-108 < p_r < 1e102), or whose exp overflows, leaves the floating-point
range of update and its slope: the solve raises NumericalError.

exact_root is the solve on (base, c, grav): exact_nominal_pr for one
pipe, and netspec.CompiledNetwork (spread once per pipe and gain value,
and the declared nominals of the build and the oracle path), with coef
and grav held per pipe (relation_constants).
"""

from __future__ import annotations

import math

from .core import G_STD, GasProperties, OperatingPoint, PipeParams
from .errors import DomainError, NumericalError

_REL_TOL = 1e-12
_MAX_ITER = 200

_DIVERGED = "steady-state solve diverged"


def _newton_root(update, slope, base: float) -> float:
    """Root of g(p) = p - update(p) by Newton's method from base.

    slope(p, u) is d update/dp at p, given u = update(p). Newton stops when
    its step is within _REL_TOL of the iterate. If an iterate leaves
    (0, inf) or _MAX_ITER steps pass, bisection on [base/2, 2 base] takes
    over.
    """
    p = base
    for _ in range(_MAX_ITER):
        u = update(p)
        dg = 1.0 - slope(p, u)
        p_next = p - (p - u) / dg if dg else math.inf  # a flat g has no finite step
        if not 0.0 < p_next < math.inf:
            break
        if abs(p_next - p) <= _REL_TOL * p_next:
            return p_next
        p = p_next
    lo, hi = 0.5 * base, 2.0 * base
    g_lo = lo - update(lo)
    g_hi = hi - update(hi)
    if g_lo * g_hi > 0:
        raise NumericalError(_DIVERGED)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        g_mid = mid - update(mid)
        if abs(g_mid) <= _REL_TOL * abs(mid):
            return mid
        if g_lo * g_mid <= 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    raise NumericalError(_DIVERGED)


def _check_inputs(p_l_ss, T_l_ss, T_r_ss):
    if not p_l_ss > 0.0:
        raise DomainError("nominal left pressure must be strictly positive")
    if not T_l_ss > 0.0 or not T_r_ss > 0.0:
        raise DomainError("nominal temperatures must be strictly positive")


def relation_constants(T_r_ss: float, params: PipeParams, gas: GasProperties):
    """Friction coefficient coef and elevation exponent grav of the relation at T_r.

    Neither depends on the operating point, so a network holds them per
    pipe; c = coef q|q| then gives the root on (base, c, grav).
    """
    lam = params.require_lambda()
    Rz = gas.R_s * gas.z_0
    grav = G_STD * params.h / (Rz * T_r_ss)
    coef = lam * params.L * Rz * T_r_ss / (2.0 * params.d * params.A_c**2)
    return coef, grav


def _relation(p_l_ss, T_l_ss, T_r_ss, params, gas):
    """base = p_l^(T_l/T_r), friction coefficient coef and elevation exponent grav."""
    _check_inputs(p_l_ss, T_l_ss, T_r_ss)
    coef, grav = relation_constants(T_r_ss, params, gas)
    return p_l_ss ** (T_l_ss / T_r_ss), coef, grav


def _root(update, slope, base: float) -> float:
    """_newton_root, with an iterate that leaves the float range (a power of it
    underflowing to zero or overflowing, or exp overflowing) as NumericalError."""
    try:
        return _newton_root(update, slope, base)
    except (OverflowError, ZeroDivisionError):
        raise NumericalError(_DIVERGED) from None


def exact_nominal_pr(p_l_ss: float, q_ss: float, T_l_ss: float, T_r_ss: float,
                     params: PipeParams, gas: GasProperties) -> float:
    """Exit pressure from the exponential steady-state relation.

    p_r appears inside the exponential through v_r; the implicit relation
    is solved to relative residual 1e-12.
    """
    base, coef, grav = _relation(p_l_ss, T_l_ss, T_r_ss, params, gas)
    return exact_root(base, coef * q_ss * abs(q_ss), grav)


def exact_root(base: float, c: float, grav: float) -> float:
    """Root p_r of the exact relation p_r = base exp(-c/p_r^2 - grav), c = coef q|q|.

    The one-pipe solve (exact_nominal_pr) and the network's spread over
    many gain values (netspec.CompiledNetwork.spread) both end here, one
    call per pipe and operating point. Raises NumericalError when no root
    is found in floating point.
    """
    def update(p_r):
        return base * math.exp(-c / p_r**2 - grav)

    def slope(p_r, u):
        return 2.0 * c * u / p_r**3

    try:
        return _root(update, slope, base)
    except NumericalError:
        if c >= 0.0:
            raise
    # ln p_r carries fewer significant bits than p_r; Newton on p_r restores them
    return _root(update, slope, _log_root(base, c, grav))


def _log_root(base: float, c: float, grav: float) -> float:
    """Root of the exact relation for c < 0 by Newton's method in y = ln p_r.

    h(y) = y - y0 + c e^(-2y) with y0 = ln base - grav. Since c < 0,
    h(y0) < 0 and h is increasing and concave, so every Newton step stays
    at or below the root and |c| e^(-2y) never exceeds its value at y0
    (which overflows only when base is below about 1e-154: NumericalError).
    """
    y0 = math.log(base) - grav
    y = y0
    for _ in range(_MAX_ITER):
        try:
            e = c * math.exp(-2.0 * y)
        except OverflowError:
            break
        step = (y - y0 + e) / (1.0 - 2.0 * e)
        y -= step
        if abs(step) <= _REL_TOL:
            return math.exp(y)
    raise NumericalError(_DIVERGED)


def approx_nominal_pr(p_l_ss: float, q_ss: float, T_l_ss: float, T_r_ss: float,
                      params: PipeParams, gas: GasProperties) -> float:
    """First-order expansion of the exponential steady-state relation."""
    base, coef, grav = _relation(p_l_ss, T_l_ss, T_r_ss, params, gas)
    c = coef * q_ss * abs(q_ss)

    def update(p_r):
        return base * (1.0 - c / p_r**2 - grav)

    def slope(p_r, u):
        return 2.0 * c * base / p_r**3

    return _root(update, slope, base)


def isothermal_nominal(p_l_ss: float, q_ss: float, T_0: float,
                       params: PipeParams, gas: GasProperties) -> OperatingPoint:
    """Full operating point at uniform temperature T_0.

    The nominal flow is uniform along the pipe (q_r,ss = q_l,ss) and the
    exit pressure comes from exact_nominal_pr at equal temperatures.
    """
    p_r = exact_nominal_pr(p_l_ss, q_ss, T_0, T_0, params, gas)
    return OperatingPoint(p_l_ss=p_l_ss, p_r_ss=p_r, q_ss=q_ss,
                          T_l_ss=T_0, T_r_ss=T_0)
