"""Single-pipe dynamics: nonlinear right-hand sides and linearized models.

Two per-pipe models are provided. The isothermal 2D model has states
(p_r, q_l) and inputs (p_l, q_r); the nonisothermal 3D model adds the exit
temperature T_r as a state and the entry temperature T_l as an input.
Boundary inputs are (p_l, q_r, T_l) because the underlying damped wave
equation admits exactly one condition per end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    G_STD,
    GasProperties,
    OperatingPoint,
    PipeParams,
    SignalLabel,
    StateSpaceModel,
)
from .errors import DomainError


@dataclass(frozen=True)
class PipeState3D:
    """Nonisothermal pipe state: right pressure, left flow, right temperature."""

    p_r: float
    q_l: float
    T_r: float

    def __post_init__(self):
        if not self.p_r > 0.0 or not self.T_r > 0.0:
            raise DomainError("pipe state requires p_r > 0 and T_r > 0")


@dataclass(frozen=True)
class PipeInput3D:
    """Nonisothermal pipe boundary input: left pressure, right flow, left temperature."""

    p_l: float
    q_r: float
    T_l: float

    def __post_init__(self):
        if not self.p_l > 0.0 or not self.T_l > 0.0:
            raise DomainError("pipe input requires p_l > 0 and T_l > 0")


@dataclass(frozen=True)
class IsoCoefficients:
    """Coefficients of the linearized isothermal pipe ODEs.

    dp_r/dt = alpha (q_r - q_l)
    dq_l/dt = beta_pr p_r + beta_pl p_l + gamma q_l

    For physical parameters with q_ss > 0 and modest elevation, alpha,
    beta_pr and gamma are all negative (gamma = 0 iff q_ss = 0).
    """

    alpha: float
    beta_pr: float
    beta_pl: float
    gamma: float


def iso_coefficients(params: PipeParams, op: OperatingPoint, gas: GasProperties) -> IsoCoefficients:
    """Evaluate the linearization coefficients at the operating point.

    The friction and elevation corrections use the left nominal pressure
    p_l_ss, exactly as in the discretized momentum equation.
    """
    lam = params.require_lambda()
    if not op.p_l_ss > 0.0:
        raise DomainError("nominal left pressure must be strictly positive")
    rtz = gas.R_s * gas.T_0 * gas.z_0
    A_c, L, d, h = params.A_c, params.L, params.d, params.h
    alpha = -rtz / (A_c * L)
    beta_pr = -A_c / L
    beta_pl = (
        A_c / L
        + (lam * rtz / (2.0 * d * A_c)) * op.q_ss * abs(op.q_ss) / op.p_l_ss**2
        - A_c * G_STD * h / (rtz * L)
    )
    gamma = -(lam * rtz / (d * A_c)) * abs(op.q_ss) / op.p_l_ss
    return IsoCoefficients(alpha, beta_pr, beta_pl, gamma)


class IsoTable:
    """iso_coefficients of a fixed list of pipes, evaluated as arrays.

    The parts that do not depend on the operating point (alpha, beta_pr
    and the factors of beta_pl and gamma) are held per pipe, computed
    from the pipes' columns (of_columns: L, d, h, lambda and A_c as
    arrays, one entry per pipe). IsoTable(params, gas) is a thin wrapper
    that takes those columns from a list of PipeParams. Each expression
    keeps the operands and the order of iso_coefficients, so the held
    parts, and every entry of at(), equal it bit for bit. p_l^2 is
    np.float_power(p_l, 2.0): like Python's ** it calls the C library's
    pow, while np.power squares, which rounds differently in about one
    case in a thousand.
    """

    def __init__(self, params, gas: GasProperties):
        rows = [(par.L, par.d, par.h, par.require_lambda(), par.A_c) for par in params]
        self._hold(*np.array(rows, dtype=float).reshape(-1, 5).T, gas)

    @classmethod
    def of_columns(cls, L, d, h, lam, A_c, gas: GasProperties) -> "IsoTable":
        """The table of pipes given as float arrays of L, d, h, resolved lambda and A_c."""
        table = cls.__new__(cls)
        table._hold(L, d, h, lam, A_c, gas)
        return table

    def _hold(self, L, d, h, lam, A_c, gas: GasProperties):
        rtz = gas.R_s * gas.T_0 * gas.z_0
        self.alpha = -rtz / (A_c * L)
        self.beta_pr = -A_c / L
        self._beta_pl0 = A_c / L
        self._friction_pl = lam * rtz / (2.0 * d * A_c)
        self._elevation = A_c * G_STD * h / (rtz * L)
        self._friction_q = lam * rtz / (d * A_c)

    def at(self, q, p_l) -> np.ndarray:
        """(K, 4 P) table of (alpha, beta_pr, beta_pl, gamma) per pipe, in pipe order.

        q holds the P pipe flows and p_l the (K, P) left pressures of K
        operating points; each p_l must be strictly positive.
        """
        q, p_l = np.asarray(q, dtype=float), np.asarray(p_l, dtype=float)
        q_abs = np.abs(q)
        table = np.empty((*p_l.shape, 4))
        table[..., 0] = self.alpha
        table[..., 1] = self.beta_pr
        table[..., 2] = (self._beta_pl0 + self._friction_pl * q * q_abs / np.float_power(p_l, 2.0)
                         - self._elevation)
        table[..., 3] = -self._friction_q * q_abs / p_l
        return table.reshape(len(p_l), -1)


def rhs_2d(x, u, params: PipeParams, gas: GasProperties):
    """Nonlinear isothermal pipe ODE right-hand side in absolute variables.

    x = (p_r, q_l), u = (p_l, q_r); returns (dp_r/dt, dq_l/dt).
    """
    p_r, q_l = x
    p_l, q_r = u
    if p_l == 0.0:
        raise DomainError("p_l must be nonzero")
    lam = params.require_lambda()
    rtz = gas.R_s * gas.T_0 * gas.z_0
    A_c, L, d, h = params.A_c, params.L, params.d, params.h
    dp_r = -(rtz / (A_c * L)) * (q_r - q_l)
    dq_l = (
        -(A_c / L) * (p_r - p_l)
        - (lam * rtz / (2.0 * d * A_c)) * q_l * abs(q_l) / p_l
        - (A_c * G_STD / rtz) * (h / L) * p_l
    )
    return dp_r, dq_l


def rhs_3d(x: PipeState3D, u: PipeInput3D, params: PipeParams, gas: GasProperties):
    """Nonlinear nonisothermal pipe ODE right-hand side in absolute variables.

    Returns (dp_r/dt, dq_l/dt, dT_r/dt). Heat exchange is radial
    conduction through the wall, k_rad * pi * d_out * (T_amb - T_r).
    """
    lam = params.require_lambda()
    Rz = gas.R_s * gas.z_0
    c_v = gas.c_v
    A_c, L, d, d_out, h = params.A_c, params.L, params.d, params.d_out, params.h
    p_r, q_l, T_r = x.p_r, x.q_l, x.T_r
    p_l, q_r, T_l = u.p_l, u.q_r, u.T_l
    if p_r == 0.0 or p_l == 0.0 or T_l == 0.0:
        raise DomainError("pressures and temperatures must be nonzero")

    heat = params.k_rad * np.pi * d_out * (gas.T_amb - T_r)
    fric = lam * Rz**2 * T_r**2 * q_r**2 * abs(q_r) / (2.0 * d * A_c**2 * p_r**2)
    dq_dx = (q_r - q_l) / L
    dp_dx = (p_r - p_l) / L
    dT_dx = (T_r - T_l) / L

    bracket_p = (
        heat
        - dq_dx * T_r * (c_v + Rz)
        + dp_dx * Rz * T_r * q_r / p_r
        - dT_dx * q_r * (c_v + Rz)
        + fric
    )
    f_p = (Rz / (A_c * c_v)) * bracket_p

    f_q = (
        -A_c * dp_dx
        - (lam * gas.R_s * T_l * gas.z_0 / (2.0 * d * A_c)) * q_l * abs(q_l) / p_l
        - (A_c * G_STD / (gas.R_s * T_l * gas.z_0)) * (h / L) * p_l
    )

    bracket_T = (
        heat
        - dq_dx * T_r * Rz
        + dp_dx * Rz * T_r * q_r / p_r
        - dT_dx * q_r * (c_v + Rz)
        + fric
    )
    f_T = (Rz * T_r / (A_c * c_v * p_r)) * bracket_T

    return f_p, f_q, f_T


def _pipe_labels_2d(element_id: str):
    states = (SignalLabel(element_id, "r", "p"), SignalLabel(element_id, "l", "q"))
    inputs = (SignalLabel(element_id, "l", "p"), SignalLabel(element_id, "r", "q"))
    return states, inputs


def linearize_2d(params: PipeParams, op: OperatingPoint, gas: GasProperties,
                 element_id: str = "P") -> StateSpaceModel:
    """Two-state LTI pipe model in deviation variables.

    States (p_r, q_l), inputs (p_l, q_r); C = I, D = 0.
    """
    c = iso_coefficients(params, op, gas)
    A = np.array([[0.0, -c.alpha], [c.beta_pr, c.gamma]])
    B = np.array([[0.0, c.alpha], [c.beta_pl, 0.0]])
    states, inputs = _pipe_labels_2d(element_id)
    return StateSpaceModel(A, B, np.eye(2), np.zeros((2, 2)),
                           states, inputs, states)


def jacobian_3d(params: PipeParams, op: OperatingPoint, gas: GasProperties):
    """Closed-form Jacobians (A, B) of rhs_3d at the operating point.

    Rows ordered (f_p, f_q, f_T); columns (p_r, q_l, T_r) for A and
    (p_l, q_r, T_l) for B.
    """
    lam = params.require_lambda()
    Rz = gas.R_s * gas.z_0
    c_v = gas.c_v
    A_c, L, d, d_out, h = params.A_c, params.L, params.d, params.d_out, params.h
    p_r, p_l = op.p_r_ss, op.p_l_ss
    q = op.q_ss
    T_r, T_l = op.T_r_ss, op.T_l_ss

    heat = params.k_rad * np.pi * d_out * (gas.T_amb - T_r)
    fric = lam * Rz**2 * T_r**2 * q**2 * abs(q) / (2.0 * d * A_c**2 * p_r**2)
    dp_dx = (p_r - p_l) / L
    dT_dx = (T_r - T_l) / L
    # dq_dx = 0 at the operating point (uniform nominal flow)

    K1 = Rz / (A_c * c_v)
    K2 = Rz * T_r / (A_c * c_v * p_r)

    # shared bracket derivatives (terms common to f_p and f_T)
    dS_dpr_common = (Rz * T_r * q / L) * (p_l / p_r**2) - 2.0 * fric / p_r
    dS_dpl = -(Rz * T_r * q) / (L * p_r)
    dS_dTl = q * (c_v + Rz) / L
    dfric_dq = 3.0 * lam * Rz**2 * T_r**2 * q * abs(q) / (2.0 * d * A_c**2 * p_r**2)
    dfric_dTr = 2.0 * fric / T_r

    # f_p bracket, with the (c_v + Rz) transport factor
    S_p = heat + dp_dx * Rz * T_r * q / p_r - dT_dx * q * (c_v + Rz) + fric
    dSp_dql = T_r * (c_v + Rz) / L
    dSp_dqr = -T_r * (c_v + Rz) / L + dp_dx * Rz * T_r / p_r - dT_dx * (c_v + Rz) + dfric_dq
    dSp_dTr = (
        -params.k_rad * np.pi * d_out
        + dp_dx * Rz * q / p_r
        - q * (c_v + Rz) / L
        + dfric_dTr
    )

    # f_T bracket, with the Rz-only continuity factor on dq/dx; at dq_dx = 0
    # its value and its T_r derivative equal S_p and dSp_dTr
    dST_dql = T_r * Rz / L
    dST_dqr = -T_r * Rz / L + dp_dx * Rz * T_r / p_r - dT_dx * (c_v + Rz) + dfric_dq

    A = np.zeros((3, 3))
    B = np.zeros((3, 3))

    A[0, 0] = K1 * dS_dpr_common
    A[0, 1] = K1 * dSp_dql
    A[0, 2] = K1 * dSp_dTr
    B[0, 0] = K1 * dS_dpl
    B[0, 1] = K1 * dSp_dqr
    B[0, 2] = K1 * dS_dTl

    A[1, 0] = -A_c / L
    A[1, 1] = -(lam * gas.R_s * T_l * gas.z_0 / (d * A_c)) * abs(q) / p_l
    B[1, 0] = (
        A_c / L
        + (lam * gas.R_s * T_l * gas.z_0 / (2.0 * d * A_c)) * q * abs(q) / p_l**2
        - (A_c * G_STD / (gas.R_s * T_l * gas.z_0)) * h / L
    )
    B[1, 2] = (
        -(lam * gas.R_s * gas.z_0 / (2.0 * d * A_c)) * q * abs(q) / p_l
        + (A_c * G_STD / (gas.R_s * T_l**2 * gas.z_0)) * (h / L) * p_l
    )

    dK2_dpr = -K2 / p_r
    dK2_dTr = Rz / (A_c * c_v * p_r)
    A[2, 0] = K2 * dS_dpr_common + dK2_dpr * S_p
    A[2, 1] = K2 * dST_dql
    A[2, 2] = K2 * dSp_dTr + dK2_dTr * S_p
    B[2, 0] = K2 * dS_dpl
    B[2, 1] = K2 * dST_dqr
    B[2, 2] = K2 * dS_dTl

    return A, B


def linearize_3d(params: PipeParams, op: OperatingPoint, gas: GasProperties,
                 element_id: str = "P") -> StateSpaceModel:
    """Three-state LTI pipe model in deviation variables.

    States (p_r, q_l, T_r), inputs (p_l, q_r, T_l); C = I, D = 0.
    """
    A, B = jacobian_3d(params, op, gas)
    states = (
        SignalLabel(element_id, "r", "p"),
        SignalLabel(element_id, "l", "q"),
        SignalLabel(element_id, "r", "T"),
    )
    inputs = (
        SignalLabel(element_id, "l", "p"),
        SignalLabel(element_id, "r", "q"),
        SignalLabel(element_id, "l", "T"),
    )
    return StateSpaceModel(A, B, np.eye(3), np.zeros((3, 3)),
                           states, inputs, states)


def finite_difference_jacobian_3d(params: PipeParams, op: OperatingPoint,
                                  gas: GasProperties, rel_step: float = 1e-6):
    """Central finite differences of rhs_3d; oracle for jacobian_3d."""
    x0 = np.array([op.p_r_ss, op.q_ss, op.T_r_ss])
    u0 = np.array([op.p_l_ss, op.q_ss, op.T_l_ss])

    def f(x, u):
        return np.array(rhs_3d(PipeState3D(*x), PipeInput3D(*u), params, gas))

    def diff(vec0, wrt_state):
        n = len(vec0)
        J = np.zeros((3, n))
        for j in range(n):
            step = rel_step * max(abs(vec0[j]), 1.0)
            hi, lo = vec0.copy(), vec0.copy()
            hi[j] += step
            lo[j] -= step
            if wrt_state:
                J[:, j] = (f(hi, u0) - f(lo, u0)) / (2.0 * step)
            else:
                J[:, j] = (f(x0, hi) - f(x0, lo)) / (2.0 * step)
        return J

    return diff(x0, True), diff(u0, False)
