"""Eigenvalue, DC-gain and frequency-response analysis, plus the
signal-flow-graph equivalence oracle.

The closure of interconnect.close is algebraically identical to the
signal-flow-graph solution y = (I - Q)^-1 P u with Q(s) = H(s) F and
P(s) = H(s) G, H the stacked open-loop transfer function. mason_check
verifies that identity numerically at sampled frequencies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import StateSpaceModel
from .errors import ConfigurationError, NominalWarning, NumericalError
from .interconnect import ConnectionMatrices, StackedSystem, close

RESOLVENT_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class FrequencyResponse:
    """Sampled transfer function H(i w) = C (i w I - A)^-1 B + D."""

    omegas: np.ndarray
    H: np.ndarray  # shape (n_omega, p, m)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.H)


def eigenvalues(model: StateSpaceModel) -> np.ndarray:
    """All eigenvalues of the system matrix A."""
    if model.n_states < 1:
        raise ConfigurationError("model has no states")
    if not np.all(np.isfinite(model.A)):
        raise NumericalError("non-finite entries in A")
    return np.linalg.eigvals(model.A)


def dc_gain(model: StateSpaceModel) -> np.ndarray:
    """Steady-state gain matrix D - C A^-1 B (just D for static models)."""
    if model.n_states == 0:
        return model.D.copy()
    return model.D + model.C @ dc_gain_to_states(model)


def dc_gain_to_states(model: StateSpaceModel) -> np.ndarray:
    """Steady-state gain from inputs to states, -A^-1 B.

    Composite elements expose only their boundary outputs; interior flows
    (e.g. every pipe's q_l in a closed network) remain visible as states,
    so flow tables are read off here.
    """
    if model.n_states == 0:
        raise ConfigurationError("model has no states")
    try:
        X = -np.linalg.solve(model.A, model.B)
    except np.linalg.LinAlgError:
        raise NumericalError("system has a pole at zero; DC gain undefined") from None
    if np.linalg.cond(model.A) > RESOLVENT_CONDITION_LIMIT:
        raise NumericalError("system has a pole at zero; DC gain undefined")
    return X


def transfer_at(model: StateSpaceModel, s: complex) -> np.ndarray:
    """Evaluate C (s I - A)^-1 B + D at one complex frequency."""
    if model.n_states == 0:
        return model.D.astype(complex)
    M = s * np.eye(model.n_states) - model.A
    return model.C @ np.linalg.solve(M, model.B.astype(complex)) + model.D


def freq_response(model: StateSpaceModel, omegas) -> FrequencyResponse:
    """Frequency response over a grid of angular frequencies [rad/s]."""
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas < 0):
        raise ConfigurationError("frequencies must be nonnegative")
    H = np.empty((len(omegas), model.n_outputs, model.n_inputs), dtype=complex)
    for k, w in enumerate(omegas):
        H[k] = transfer_at(model, 1j * w)
    return FrequencyResponse(omegas, H)


def log_grid(wmin: float, wmax: float, n: int | None = None) -> np.ndarray:
    """Log-spaced frequency grid, 200 points per decade by default."""
    if not (wmin > 0 and wmax > wmin):
        raise ConfigurationError("need 0 < wmin < wmax")
    if n is None:
        n = max(2, int(round(200 * np.log10(wmax / wmin))))
    return np.logspace(np.log10(wmin), np.log10(wmax), n)


def mason_check(stacked: StackedSystem, conn: ConnectionMatrices, omegas) -> float:
    """Max relative deviation between closed-form and SFG transfer functions.

    At each frequency compares H_closed(iw) against (I - Q)^-1 P with
    Q = H(iw) F, P = H(iw) G evaluated on the open stacked system;
    returns max over the grid of ||H_closed - H_sfg|| / (1 + ||H_sfg||).
    """
    closed = close(stacked, conn)
    open_model = stacked.model
    worst = 0.0
    for w in np.asarray(omegas, dtype=float):
        H_open = transfer_at(open_model, 1j * w)
        Q = H_open @ conn.F
        P = H_open @ conn.G
        IQ = np.eye(Q.shape[0]) - Q
        if np.linalg.cond(IQ) > RESOLVENT_CONDITION_LIMIT:
            raise NumericalError(f"singular I - Q at omega = {w}")
        H_sfg = np.linalg.solve(IQ, P)
        H_cl = transfer_at(closed, 1j * w)
        dev = np.linalg.norm(H_cl - H_sfg) / (1.0 + np.linalg.norm(H_sfg))
        worst = max(worst, dev)
    return worst


def stability_margin_sweep(spec, gain_element_id: str, k_values) -> np.ndarray:
    """Max real eigenvalue of the closed network as one gain is swept.

    Rebuilds and closes the network description for each k in k_values,
    linearizing every pipe at the gain-aware operating point of
    netspec.network_steady_state. The constraints those points leave
    unmet (a ring whose gains admit no steady state, say) are reported
    in one NominalWarning per sweep.
    """
    from . import netspec  # deferred: netspec builds on this module's siblings

    out = np.empty(len(k_values))
    unmet = []  # (k, first unmet constraint) for each step that has one
    for i, k in enumerate(k_values):
        varied = netspec.override_gain(spec, gain_element_id, float(k))
        steady = netspec.network_steady_state(varied)
        model = netspec.build_closed(varied, steady)
        out[i] = float(np.max(eigenvalues(model).real))
        if steady.unmet:
            unmet.append((float(k), steady.unmet[0]))
    if unmet:
        k, first = unmet[0]
        warnings.warn(f"unmet steady-state constraints at {len(unmet)} of {len(out)} "
                      f"values of {gain_element_id}.k; first at k={k:.6g}: {first}",
                      NominalWarning, stacklevel=2)
    return out
