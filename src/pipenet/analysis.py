"""Eigenvalue, DC-gain and frequency-response analysis, plus the
signal-flow-graph equivalence oracle.

The closure of interconnect.close (the oracle path) is algebraically
identical to the signal-flow-graph solution y = (I - Q)^-1 P u with
Q(s) = H(s) F and P(s) = H(s) G, H the stacked open-loop transfer
function. mason_check verifies that identity numerically at sampled
frequencies, for close's model or for a given closed model such as the
one netspec.build_closed assembles (the build path).

freq_response is the path for grids: it factors the sparse resolvent
i w I - A once per frequency (scipy's SuperLU), so its cost follows the
nonzeros of A. transfer_at is the dense single-point evaluation that
mason_check and the tests use as the reference.

Singularity tests use one dense LU (_factor): a matrix is rejected on an
exactly zero pivot or when LAPACK's 1-norm estimate of its reciprocal
condition number is below 1/RESOLVENT_CONDITION_LIMIT; the same LU then
solves.
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
    so flow tables are read off here. A near-singular A (_factor) is
    reported as a pole at zero.
    """
    if model.n_states == 0:
        raise ConfigurationError("model has no states")
    from scipy.linalg import lu_solve  # deferred: import pipenet loads numpy only

    lu = _factor(model.A, NumericalError("system has a pole at zero; DC gain undefined"))
    return -lu_solve(lu, model.B, check_finite=False)


def _factor(M: np.ndarray, error: NumericalError):
    """LU factors of M (scipy.linalg.lu_factor), or raise error if M is near singular.

    Near singular: an exactly zero pivot, or a reciprocal 1-norm condition
    number, estimated by LAPACK ?gecon from the same LU, below
    1/RESOLVENT_CONDITION_LIMIT (nan included).
    """
    from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor

    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)  # lu_factor warns on a zero pivot
        try:
            lu, piv = lu_factor(M, check_finite=False)
        except LinAlgWarning:
            raise error from None
    gecon, = get_lapack_funcs(("gecon",), (lu,))
    rcond, _ = gecon(lu, np.linalg.norm(M, 1))
    if not rcond >= 1.0 / RESOLVENT_CONDITION_LIMIT:
        raise error
    return lu, piv


def _singular_resolvent(s: complex) -> NumericalError:
    return NumericalError(f"s I - A is singular at s = {s}: the model has a pole there")


def transfer_at(model: StateSpaceModel, s: complex) -> np.ndarray:
    """Evaluate C (s I - A)^-1 B + D at one complex frequency (dense solve)."""
    if model.n_states == 0:
        return model.D.astype(complex)
    M = s * np.eye(model.n_states) - model.A
    try:
        X = np.linalg.solve(M, model.B.astype(complex))
    except np.linalg.LinAlgError:
        raise _singular_resolvent(s) from None
    return model.C @ X + model.D


def freq_response(model: StateSpaceModel, omegas) -> FrequencyResponse:
    """Frequency response over a grid of angular frequencies [rad/s].

    One sparse LU of i w I - A per frequency, then one solve for all of B.
    """
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas < 0):
        raise ConfigurationError("frequencies must be nonnegative")
    H = np.empty((len(omegas), model.n_outputs, model.n_inputs), dtype=complex)
    if model.n_states == 0:
        H[:] = model.D
        return FrequencyResponse(omegas, H)
    from scipy import sparse  # deferred: import pipenet loads numpy only
    from scipy.sparse.linalg import splu

    A = sparse.csc_matrix(model.A)
    eye = sparse.identity(model.n_states, dtype=complex, format="csc")
    B = model.B.astype(complex)
    for k, w in enumerate(omegas):
        try:
            lu = splu(1j * w * eye - A)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            raise _singular_resolvent(1j * w) from None
        X = lu.solve(B)
        # two real products; C @ X would copy C to complex at every frequency
        H[k] = model.C @ X.real + 1j * (model.C @ X.imag) + model.D
    return FrequencyResponse(omegas, H)


def log_grid(wmin: float, wmax: float, n: int | None = None) -> np.ndarray:
    """Log-spaced frequency grid, 200 points per decade by default."""
    if not (wmin > 0 and wmax > wmin):
        raise ConfigurationError("need 0 < wmin < wmax")
    if n is None:
        n = max(2, int(round(200 * np.log10(wmax / wmin))))
    return np.logspace(np.log10(wmin), np.log10(wmax), n)


def mason_check(stacked: StackedSystem, conn: ConnectionMatrices, omegas,
                closed: StateSpaceModel | None = None) -> float:
    """Max relative deviation between a closed model and the SFG transfer functions.

    At each frequency compares H_closed(iw) against (I - Q)^-1 P with
    Q = H(iw) F, P = H(iw) G evaluated on the open stacked system;
    returns max over the grid of ||H_closed - H_sfg|| / (1 + ||H_sfg||).
    closed defaults to close(stacked, conn); its outputs and inputs must
    be in the order of the stacked outputs and the columns of G.
    """
    from scipy.linalg import lu_solve  # deferred: import pipenet loads numpy only

    if closed is None:
        closed = close(stacked, conn)
    open_model = stacked.model
    worst = 0.0
    for w in np.asarray(omegas, dtype=float):
        H_open = transfer_at(open_model, 1j * w)
        Q = H_open @ conn.F
        P = H_open @ conn.G
        lu = _factor(np.eye(Q.shape[0]) - Q, NumericalError(f"singular I - Q at omega = {w}"))
        H_sfg = lu_solve(lu, P, check_finite=False)
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
