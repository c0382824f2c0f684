"""Shared domain types, gas-law helpers and physical-regime validation.

All quantities are strict SI (Pa, kg/s, K, m); there is no unit
conversion layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigurationError, DomainError

G_STD = 9.80665  # standard gravity [m/s^2]

_SIDES = ("l", "r")
_QUANTITIES = ("p", "q", "T")


@dataclass(frozen=True)
class GasProperties:
    """Constant gas properties: ideal-gas law p = rho*R_s*T*z_0 with fixed z_0.

    R_s    specific gas constant [J/(kg K)]
    z_0    compressibility factor [1]
    c_v    specific heat at constant volume [J/(kg K)]
    T_0    nominal temperature [K]
    T_amb  ambient temperature [K]
    """

    R_s: float
    z_0: float
    c_v: float
    T_0: float
    T_amb: float

    def __post_init__(self):
        for name in ("R_s", "z_0", "c_v", "T_0", "T_amb"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"GasProperties.{name} must be strictly positive")


METHANE = GasProperties(R_s=518.28, z_0=0.95, c_v=1700.0, T_0=300.0, T_amb=300.0)


@dataclass(frozen=True)
class PipeParams:
    """Geometry and loss parameters of one pipe segment.

    L      length [m]
    d      inside diameter [m]
    d_out  outside diameter [m] (defaults to d)
    eps    wall roughness [m]
    h      elevation change left->right [m]
    lam    Darcy friction factor [1]; None until resolved
    k_rad  lumped radial thermal conductivity [W/(m^2 K)]
    A_c    cross-sectional area [m^2]; derived, always pi*d^2/4
    """

    L: float
    d: float
    d_out: float | None = None
    eps: float = 0.0
    h: float = 0.0
    lam: float | None = None
    k_rad: float = 0.0
    A_c: float = field(init=False)

    def __post_init__(self):
        if not self.L > 0.0:
            raise DomainError("pipe length L must be strictly positive")
        if not self.d > 0.0:
            raise DomainError("pipe diameter d must be strictly positive")
        if self.d_out is None:
            object.__setattr__(self, "d_out", self.d)
        if self.d_out < self.d:
            raise DomainError("outside diameter d_out must be >= inside diameter d")
        if self.eps < 0.0:
            raise DomainError("roughness eps must be nonnegative")
        if self.k_rad < 0.0:
            raise DomainError("thermal conductivity k_rad must be nonnegative")
        if self.lam is not None and not self.lam > 0.0:
            raise DomainError("friction factor lambda must be strictly positive")
        object.__setattr__(self, "A_c", math.pi * self.d**2 / 4.0)

    def require_lambda(self) -> float:
        if self.lam is None:
            raise ConfigurationError("friction factor lambda not set; use friction.resolve_lambda")
        return self.lam


@dataclass(frozen=True)
class OperatingPoint:
    """Nominal (steady-state) boundary values used as a linearization point.

    A single q_ss serves both flanges: at steady state the mass flow is
    uniform along the pipe.
    """

    p_l_ss: float
    p_r_ss: float
    q_ss: float
    T_l_ss: float
    T_r_ss: float

    def __post_init__(self):
        for name in ("p_l_ss", "p_r_ss", "T_l_ss", "T_r_ss"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"OperatingPoint.{name} must be strictly positive")


@dataclass(frozen=True, order=True)
class SignalLabel:
    """Identifies one boundary signal of one element, e.g. P3.r.p.

    side is the flange ('l' or 'r'); quantity is 'p' (pressure),
    'q' (mass flow) or 'T' (temperature).
    """

    element_id: str
    side: str
    quantity: str

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ConfigurationError(f"invalid side {self.side!r}; expected 'l' or 'r'")
        if self.quantity not in _QUANTITIES:
            raise ConfigurationError(f"invalid quantity {self.quantity!r}; expected one of {_QUANTITIES}")
        if not self.element_id or "." in self.element_id:
            raise ConfigurationError(f"invalid element id {self.element_id!r}")

    def __str__(self):
        return f"{self.element_id}.{self.side}.{self.quantity}"

    @classmethod
    def parse(cls, text: str) -> "SignalLabel":
        parts = text.split(".")
        if len(parts) != 3:
            raise ConfigurationError(f"malformed signal label {text!r}; expected <element>.<l|r>.<p|q|T>")
        return cls(parts[0], parts[1], parts[2])


Label = Union[SignalLabel, str]


@dataclass(frozen=True)
class StateSpaceModel:
    """Real LTI state-space model dx/dt = A x + B u, y = C x + D u.

    Every state, input and output carries a label (a SignalLabel for
    physical boundary signals, a plain string for named external inputs).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state_labels: tuple
    input_labels: tuple
    output_labels: tuple

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "state_labels", tuple(self.state_labels))
        object.__setattr__(self, "input_labels", tuple(self.input_labels))
        object.__setattr__(self, "output_labels", tuple(self.output_labels))
        n, m, p = A.shape[0], B.shape[1], C.shape[0]
        if A.shape != (n, n):
            raise ConfigurationError(f"A must be square, got {A.shape}")
        if B.shape != (n, m):
            raise ConfigurationError(f"B shape {B.shape} inconsistent with n={n}")
        if C.shape != (p, n):
            raise ConfigurationError(f"C shape {C.shape} inconsistent with n={n}")
        if D.shape != (p, m):
            raise ConfigurationError(f"D shape {D.shape} inconsistent with (p={p}, m={m})")
        for labels, count, what in (
            (self.state_labels, n, "state"),
            (self.input_labels, m, "input"),
            (self.output_labels, p, "output"),
        ):
            if len(labels) != count:
                raise ConfigurationError(f"expected {count} {what} labels, got {len(labels)}")
            # rendered label -> position; the *_index lookups read it
            object.__setattr__(self, f"_{what}_index", label_index(labels, what))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    def input_index(self, label) -> int:
        return _index_of(self._input_index, label, "input")

    def output_index(self, label) -> int:
        return _index_of(self._output_index, label, "output")

    def state_index(self, label) -> int:
        return _index_of(self._state_index, label, "state")


def label_index(labels, what: str) -> dict:
    """Rendered label -> position; ConfigurationError if two labels render alike."""
    index = {str(lab): i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        rendered = [str(lab) for lab in labels]
        raise ConfigurationError(f"duplicate {what} labels: {rendered}")
    return index


def _index_of(index: dict, label, what) -> int:
    key = str(label)
    try:
        return index[key]
    except KeyError:
        raise ConfigurationError(f"unknown {what} label {key!r}") from None


def density(p: float, T: float, gas: GasProperties) -> float:
    """Gas density rho = p / (R_s T z_0) [kg/m^3]."""
    if not p > 0.0:
        raise DomainError("pressure must be strictly positive")
    if not T > 0.0:
        raise DomainError("temperature must be strictly positive")
    return p / (gas.R_s * T * gas.z_0)


def speed_of_sound(gas: GasProperties) -> float:
    """Isothermal speed of sound c = sqrt(z_0 R_s T_0) [m/s]."""
    return math.sqrt(gas.z_0 * gas.R_s * gas.T_0)


@dataclass(frozen=True)
class RegimeWarning:
    """One violated small-signal condition of the steady-state derivation."""

    condition: str
    value: float
    threshold: float

    def __str__(self):
        return f"{self.condition}: {self.value:.6g} exceeds threshold {self.threshold:.6g}"


def validate_regime(params: PipeParams, op: OperatingPoint, gas: GasProperties,
                    margin: float = 0.01) -> list[RegimeWarning]:
    """Check the '<<' hypotheses behind the steady-state pressure relation.

    The strict-inequality conditions are operationalized with a factor-100
    margin (threshold 0.01 by default). Advisory only: returns a (possibly
    empty) list of warnings, never raises.

    Both readings of the length condition are checked separately: the
    stated L|v| << c^2 and the proof's bound L v^2 << c^2.
    """
    c = speed_of_sound(gas)
    lam = params.require_lambda()
    rho_l = density(op.p_l_ss, op.T_l_ss, gas)
    v = op.q_ss / (rho_l * params.A_c)
    warnings = []
    if not abs(v) < margin * c:
        warnings.append(RegimeWarning("|v| << c", abs(v), margin * c))
    if not abs(params.h) * G_STD < margin * c**2:
        warnings.append(RegimeWarning("|h| g << c^2", abs(params.h) * G_STD, margin * c**2))
    if not params.d >= lam / 2.0:
        warnings.append(RegimeWarning("d >= lambda/2", params.d, lam / 2.0))
    if not params.L * abs(v) < margin * c**2:
        warnings.append(RegimeWarning("L |v| << c^2", params.L * abs(v), margin * c**2))
    if not params.L * v**2 < margin * c**2:
        warnings.append(RegimeWarning("L v^2 << c^2", params.L * v**2, margin * c**2))
    return warnings
