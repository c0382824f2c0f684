"""Shared domain types, gas-law helpers and physical-regime validation.

All quantities are strict SI (Pa, kg/s, K, m); there is no unit
conversion layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
        names = ("R_s", "z_0", "c_v", "T_0", "T_amb")
        for name in names:
            if not getattr(self, name) > 0.0:
                raise DomainError(f"GasProperties.{name} must be strictly positive")
        for name in names:
            _check_finite(f"GasProperties.{name}", getattr(self, name))


def _check_finite(what: str, value: float):
    """Raise the DomainError of an infinite value; nan is left to the range checks."""
    if math.isinf(value):
        raise DomainError(f"{what} must be finite, got {float(value)!r}")


METHANE = GasProperties(R_s=518.28, z_0=0.95, c_v=1700.0, T_0=300.0, T_amb=300.0)


def _diameter_out_of_range(d):
    """Whether A_c^2 overflows or the relation's 2 d A_c^2 is zero, with A_c = pi d^2/4, for a
    float d or per entry of an array of them.

    steady_state.relation_constants divides by 2 d A_c^2, and Python's
    float ** raises OverflowError where numpy's gives inf. A product that
    overflows is inf in both, and the relation's coefficient 0.
    """
    with np.errstate(over="ignore", under="ignore"):
        square = np.float_power(math.pi * np.float_power(d, 2.0) / 4.0, 2.0)
        return np.isinf(square) | (2.0 * d * square == 0.0)


def _finite_rule(name: str, what: str):
    return name, lambda p: np.isinf(getattr(p, name)), what + " must be finite, got {!r}"


# The rule for a valid pipe, in the order it is checked: (field, fault, message).
# fault reads the fields of a PipeParams, or float arrays of them with one entry
# per pipe (netspec._pipe_columns), and is true where the rule fails. A rule
# whose field is None (an unresolved lambda) does not apply; message takes the
# field's value.
PIPE_RULES = (
    ("L", lambda p: ~np.greater(p.L, 0.0), "pipe length L must be strictly positive"),
    ("d", lambda p: ~np.greater(p.d, 0.0), "pipe diameter d must be strictly positive"),
    ("d_out", lambda p: np.less(p.d_out, p.d), "outside diameter d_out must be >= inside diameter d"),
    ("eps", lambda p: np.less(p.eps, 0.0), "roughness eps must be nonnegative"),
    ("k_rad", lambda p: np.less(p.k_rad, 0.0), "thermal conductivity k_rad must be nonnegative"),
    ("lam", lambda p: ~np.greater(p.lam, 0.0), "friction factor lambda must be strictly positive"),
    _finite_rule("L", "pipe length L"),
    _finite_rule("d", "pipe diameter d"),
    _finite_rule("d_out", "outside diameter d_out"),
    _finite_rule("eps", "roughness eps"),
    _finite_rule("h", "elevation change h"),
    _finite_rule("lam", "friction factor lambda"),
    _finite_rule("k_rad", "thermal conductivity k_rad"),
    ("d", lambda p: _diameter_out_of_range(p.d),
     "pipe diameter d must keep A_c**2 finite and 2*d*A_c**2 nonzero, got {!r}"),
)


@dataclass(frozen=True)
class PipeParams:
    """Geometry and loss parameters of one pipe segment.

    L      length [m]
    d      inside diameter [m]; A_c^2 must be finite and the relation's
           2 d A_c^2 (steady_state.relation_constants) nonzero, so d lies
           between about 1e-65 and 1e77
    d_out  outside diameter [m] (defaults to d)
    eps    wall roughness [m]
    h      elevation change left->right [m]
    lam    Darcy friction factor [1]; None until resolved
    k_rad  lumped radial thermal conductivity [W/(m^2 K)]
    A_c    cross-sectional area [m^2]; derived, always pi*d^2/4

    The values must pass PIPE_RULES, checked in its order.
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
        if self.d_out is None:
            object.__setattr__(self, "d_out", self.d)
        for name, fault, message in PIPE_RULES:
            value = getattr(self, name)
            if value is not None and fault(self):
                raise DomainError(message.format(float(value)))
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


def check_element_id(element_id: str):
    """Raise the ConfigurationError of an element id that a label cannot hold: empty, or with a dot."""
    if not element_id or "." in element_id:
        raise ConfigurationError(f"invalid element id {element_id!r}")


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
        check_element_id(self.element_id)

    def __str__(self):
        return f"{self.element_id}.{self.side}.{self.quantity}"

    @classmethod
    def _of(cls, element_id: str, side: str, quantity: str) -> "SignalLabel":
        """SignalLabel(element_id, side, quantity) for parts already checked, without __post_init__."""
        label = object.__new__(cls)
        fields = label.__dict__
        fields["element_id"], fields["side"], fields["quantity"] = element_id, side, quantity
        return label

    @classmethod
    def parse(cls, text: str) -> "SignalLabel":
        parts = text.split(".")
        if len(parts) != 3:
            raise ConfigurationError(f"malformed signal label {text!r}; expected <element>.<l|r>.<p|q|T>")
        return cls(parts[0], parts[1], parts[2])


@dataclass(frozen=True)
class StateSpaceModel:
    """Real LTI state-space model dx/dt = A x + B u, y = C x + D u.

    Every state, input and output carries a label (a SignalLabel for
    physical boundary signals, a plain string for named external inputs).

    A model made from dense arrays keeps them and scans A and C for their
    entries on first use. A model of the node rule (composites.NodeRule.model)
    holds no dense A or C: its entries come from the rule's fill, and the
    dense A and C are made from them on first read. n_states and n_outputs
    read B and D.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    state_labels: tuple
    input_labels: tuple
    output_labels: tuple

    @classmethod
    def _from_entries(cls, make_entries, B, D, state_labels, input_labels,
                      output_labels) -> "StateSpaceModel":
        """The model whose A and C are the ModelEntries that make_entries() returns.

        make_entries is called on the first use of entries, A or C; dense A
        and C are made from the entries on their first read.
        """
        model = cls.__new__(cls)
        vars(model).update(_make_entries=make_entries, B=B, D=D, state_labels=state_labels,
                           input_labels=input_labels, output_labels=output_labels)
        model.__post_init__()
        return model

    def __getattr__(self, name):
        # reached only for an attribute the model does not hold: A and C of a
        # model made by _from_entries, until their first read
        if name not in ("A", "C") or "_make_entries" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.entries._dense_a() if name == "A" else self.entries._dense_c()
        object.__setattr__(self, name, value)
        return value

    def __post_init__(self):
        held = self.__dict__  # without A and C when made by _from_entries
        for name in ("A", "B", "C", "D"):
            if name in held:
                object.__setattr__(self, name, np.atleast_2d(np.asarray(held[name], dtype=float)))
        object.__setattr__(self, "state_labels", tuple(self.state_labels))
        object.__setattr__(self, "input_labels", tuple(self.input_labels))
        object.__setattr__(self, "output_labels", tuple(self.output_labels))
        B, D = self.B, self.D
        m = B.shape[1]
        if "A" in held:
            A, C = self.A, self.C
            n, p = A.shape[0], C.shape[0]
            if A.shape != (n, n):
                raise ConfigurationError(f"A must be square, got {A.shape}")
        else:  # made by _from_entries: B and D fix the shape
            n, p = B.shape[0], D.shape[0]
        if B.shape != (n, m):
            raise ConfigurationError(f"B shape {B.shape} inconsistent with n={n}")
        if "C" in held and C.shape != (p, n):
            raise ConfigurationError(f"C shape {C.shape} inconsistent with n={n}")
        if D.shape != (p, m):
            raise ConfigurationError(f"D shape {D.shape} inconsistent with (p={p}, m={m})")
        states = None  # id(label) -> str(label) of each state: an output that is one renders once
        for labels, count, what in (
            (self.state_labels, n, "state"),
            (self.input_labels, m, "input"),
            (self.output_labels, p, "output"),
        ):
            if len(labels) != count:
                raise ConfigurationError(f"expected {count} {what} labels, got {len(labels)}")
            if states is None:
                texts = [str(lab) for lab in labels]
                states = dict(zip(map(id, labels), texts))
            else:  # "or": a label that renders empty is rendered again, to the same text
                texts = [states.get(id(lab)) or str(lab) for lab in labels]
            # rendered label -> position; the *_index lookups read it
            object.__setattr__(self, f"_{what}_index", _rendered_index(texts, what))

    @property
    def n_states(self) -> int:
        return self.B.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.D.shape[0]

    @cached_property
    def entries(self) -> "ModelEntries":
        """A's nonzero entries and C's gather (ModelEntries), read-only.

        Made on first use: scanned from A and C, or, for a model of the
        node rule, from its fill. Not a field: a model made by
        dataclasses.replace derives its own.
        """
        make = self.__dict__.get("_make_entries")
        return ModelEntries(self.A, self.C) if make is None else make()

    def input_index(self, label) -> int:
        return _index_of(self._input_index, label, "input")

    def output_index(self, label) -> int:
        return _index_of(self._output_index, label, "output")

    def state_index(self, label) -> int:
        return _index_of(self._state_index, label, "state")


class ModelEntries:
    """A's nonzero entries, and C applied as a gather where each row of C has one nonzero.

    rows, cols and values are A's nonzero entries in row-major order,
    exactly np.nonzero(A) and A[rows, cols]. When the model has states and
    no row of C holds more than one nonzero, c_cols and c_factors give each
    output row's column and factor (an empty row reads column 0, factor
    0.0); otherwise both are None. The arrays are read-only.

    ModelEntries(A, C) scans dense arrays. The node rule gives the same
    fields without them (_of, composites.NodeRule.model); the dense A and
    C are then made from the fields when first asked for, bit for bit
    what the rule's fill scatters.
    """

    def __init__(self, A: np.ndarray, C: np.ndarray):
        # np.nonzero(A), row-major; the flat scan of a bool mask is ~10x faster
        rows, cols = np.divmod(np.flatnonzero(A != 0), max(A.shape[1], 1))
        c_cols, c_factors = row_gather(C)
        self._hold((A.shape[0], C.shape[0]), rows, cols, A[rows, cols], c_cols, c_factors, C)

    @classmethod
    def _of(cls, shape, rows, cols, values, c_cols, c_factors) -> "ModelEntries":
        """The given fields of a model of shape (states, outputs), which has no dense C yet."""
        entries = cls.__new__(cls)
        entries._hold(shape, rows, cols, values, c_cols, c_factors, None)
        return entries

    def _hold(self, shape, rows, cols, values, c_cols, c_factors, C):
        self._shape = shape  # (states, outputs)
        self.rows, self.cols, self.values = _frozen(rows), _frozen(cols), _frozen(values)
        self.c_cols, self.c_factors = _frozen(c_cols), _frozen(c_factors)
        # the model's own dense C, read where the gather does not apply; None
        # until _dense_c makes it from the gather
        self._C = C

    def _dense_a(self) -> np.ndarray:
        """A new dense A holding the entries."""
        n = self._shape[0]
        A = np.zeros((n, n))
        A[self.rows, self.cols] = self.values
        return A

    def _dense_c(self) -> np.ndarray:
        """The dense C, made from the gather on first use."""
        if self._C is None:
            n, p = self._shape
            self._C = np.zeros((p, n))
            if self.c_cols is not None:
                self._C[np.arange(p), self.c_cols] = self.c_factors
        return self._C

    def outputs(self, X: np.ndarray) -> np.ndarray:
        """X @ C.T for states X on the last axis, bit for bit.

        The gather sums from +0.0, as the dense product does, so for finite
        X the two agree, signed zeros included. A non-finite X takes the
        dense product, as there 0 * inf gives nan where the gather skips it.
        """
        if self.c_cols is None or not np.all(np.isfinite(X)):
            return X @ self._dense_c().T
        return 0.0 + X[..., self.c_cols] * self.c_factors


def row_gather(M: np.ndarray):
    """(cols, factors) that apply M as a gather, or (None, None).

    When M has columns and no row of M holds more than one nonzero, row i
    of M is factors[i] at column cols[i] (an empty row reads column 0,
    factor 0.0), so 0.0 + X[..., cols] * factors is X @ M.T bit for bit
    for finite X.
    """
    if not M.shape[1]:  # with no columns there is nothing to gather
        return None, None
    nonzero = M != 0
    if nonzero.sum(axis=1).max(initial=0) > 1:
        return None, None
    cols = nonzero.argmax(axis=1)
    return cols, M[np.arange(len(M)), cols]


def _frozen(a):
    """a as a read-only array (None stays None)."""
    if a is None:
        return None
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def label_index(labels, what: str) -> dict:
    """Rendered label -> position; ConfigurationError if two labels render alike."""
    return _rendered_index([str(lab) for lab in labels], what)


def _rendered_index(rendered, what: str) -> dict:
    """Rendered label -> position; ConfigurationError if two are alike."""
    index = {text: i for i, text in enumerate(rendered)}
    if len(index) != len(rendered):
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
