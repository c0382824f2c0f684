"""Time-domain simulation.

Linear models are stepped with an exact zero-order-hold discretization
(matrix exponential of the augmented [A B; 0 0] block), so the only error
against the continuous LTI solution is the staircase approximation of the
input. Nonlinear models are integrated with fixed-step classical RK4 in
absolute (not deviation) variables.

The discretized matrices hold no subnormal numbers: every entry of the
matrix exponential below the smallest normal float (2.2e-308) is set to
zero. A subnormal carries fewer than 53 significant bits, so its printed
digits were never supported by the arithmetic, and each product with one
takes a slow microcode path: on a 2-core x86-64 machine with one BLAS
thread, 1000 steps of the 275-state benchmark mesh, whose A_d is 1.2 %
subnormal, took 31 ms with the subnormals and 18 ms without. The flush
changes a step's product A_d x by at most n * 2.2e-308 * max|x|, against
the ~1e-16 sum|a||x| error bound of the dot product itself (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1). An
output can change only where it is itself within that reach of zero: on
a 200-pipe chain every changed output has |y| < 1e-285 for unit steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import csvfmt
from .core import GasProperties, PipeParams, StateSpaceModel
from .errors import ConfigurationError, NumericalError
from .pipe_dynamics import rhs_2d, rhs_3d


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled signals with one column label per channel."""

    t: np.ndarray
    values: np.ndarray  # shape (len(t), n_channels)
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.values.shape != (len(self.t), len(self.labels)):
            raise ConfigurationError("time series shape mismatch")

    def column(self, label: str) -> np.ndarray:
        try:
            return self.values[:, self.labels.index(label)]
        except ValueError:
            raise KeyError(f"unknown channel {label!r}") from None

    def to_csv(self, path) -> None:
        """Write t and every channel to path as CSV, each number as "%.12g"."""
        data = np.column_stack([self.t, self.values])
        with open(path, "wb") as fh:
            fh.writelines(csvfmt.table(("t",) + self.labels, data, 12))


def zoh_discretize(model: StateSpaceModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact ZOH discretization (Ad, Bd) of (A, B) at step dt.

    Entries of magnitude below np.finfo(float).tiny (subnormals) are set to
    0.0, so that stepping with Ad and Bd runs at full BLAS speed; see the
    module docstring for the bound on what this changes.
    """
    from scipy.linalg import expm  # deferred: import pipenet loads numpy only

    if not 0.0 < dt < np.inf:
        raise ConfigurationError("time step must be positive and finite")
    n, m = model.n_states, model.n_inputs
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = model.A
    aug[:n, n:] = model.B
    Phi = expm(aug * dt)
    Phi[np.abs(Phi) < np.finfo(float).tiny] = 0.0
    return Phi[:n, :n], Phi[:n, n:]


def _input_array(u, n_steps: int, n_inputs: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = np.tile(u, (n_steps, 1))
    if u.shape != (n_steps, n_inputs):
        raise ConfigurationError(
            f"input array must have shape ({n_steps}, {n_inputs}), got {u.shape}")
    return u


def simulate_lti(model: StateSpaceModel, t: np.ndarray, u, x0=None) -> TimeSeries:
    """Simulate an LTI model on a uniform time grid with ZOH inputs.

    u may be a constant vector (held for all time) or an array of shape
    (len(t), n_inputs) sampled at the grid points; u and x0 must be
    finite. Returns the outputs.
    """
    t = np.asarray(t, dtype=float)
    if len(t) < 2:
        raise ConfigurationError("need at least two time points")
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ConfigurationError("time grid must be uniform")
    u = _input_array(u, len(t), model.n_inputs)
    if not np.all(np.isfinite(u)):
        raise ConfigurationError("inputs must be finite")
    if x0 is None:
        x0 = np.zeros(model.n_states)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n_states,):
        raise ConfigurationError("bad initial state dimension")
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError("initial state must be finite")

    Ad, Bd = zoh_discretize(model, float(dts[0]))
    X = np.empty((len(t), model.n_states))
    X[0] = x0
    for k in range(len(t) - 1):
        X[k + 1] = Ad @ X[k] + Bd @ u[k]
    Y = X @ model.C.T + u @ model.D.T
    return TimeSeries(t, Y, tuple(str(s) for s in model.output_labels))


def simulate_nonlinear(rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       t: np.ndarray, u, x0,
                       labels: Sequence[str],
                       check: Callable[[np.ndarray], bool] | None = None) -> TimeSeries:
    """Fixed-step RK4 integration of x' = rhs(x, u(t)) with ZOH inputs.

    rhs works in absolute variables. The optional check predicate is
    evaluated at every accepted step; a False return aborts with a
    NumericalError naming the time of failure.
    """
    t = np.asarray(t, dtype=float)
    if len(t) < 2:
        raise ConfigurationError("need at least two time points")
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2):
        raise ConfigurationError("input must be a vector or a (n_steps, m) array")
    u = _input_array(u, len(t), u.shape[-1])
    X = np.empty((len(t), len(x0)))
    X[0] = x0
    for k in range(len(t) - 1):
        h = t[k + 1] - t[k]
        if h <= 0:
            raise ConfigurationError("time grid must be increasing")
        uk = u[k]
        x = X[k]
        k1 = rhs(x, uk)
        k2 = rhs(x + 0.5 * h * k1, uk)
        k3 = rhs(x + 0.5 * h * k2, uk)
        k4 = rhs(x + h * k3, uk)
        xn = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(xn)) or (check is not None and not check(xn)):
            raise NumericalError(
                f"simulation left physical domain at t={t[k + 1]:.6g}")
        X[k + 1] = xn
    return TimeSeries(t, X, tuple(labels))


def pipe_rhs_2d(params: PipeParams, gas: GasProperties):
    """rhs(x, u) wrapper for a single pipe, x = (p_r, q_l), u = (p_l, q_r)."""
    def rhs(x, u):
        return np.asarray(rhs_2d(x, u, params, gas))
    return rhs


def pipe_rhs_3d(params: PipeParams, gas: GasProperties):
    """rhs(x, u) wrapper, x = (p_r, q_l, T_r), u = (p_l, q_r, T_l)."""
    from .pipe_dynamics import PipeInput3D, PipeState3D

    def rhs(x, u):
        return np.asarray(rhs_3d(PipeState3D(*x), PipeInput3D(*u), params, gas))
    return rhs


def cascade_rhs_2d(segments: Sequence[PipeParams], gas: GasProperties):
    """Nonlinear dynamics of N isothermal pipes in series.

    State is (p_0r, ..., p_{N-1}r, q_0l, ..., q_{N-1}l); input is
    (p_l, q_r) at the outer boundary. Interior coupling: pipe i sees
    p_l = p_{i-1,r} and q_r = q_{i+1,l}.
    """
    n = len(segments)
    if n < 1:
        raise ConfigurationError("cascade needs at least one segment")

    def rhs(x, u):
        p = x[:n]
        q = x[n:]
        dx = np.empty(2 * n)
        for i in range(n):
            p_l = u[0] if i == 0 else p[i - 1]
            q_r = u[1] if i == n - 1 else q[i + 1]
            d = rhs_2d(np.array([p[i], q[i]]), np.array([p_l, q_r]),
                       segments[i], gas)
            dx[i] = d[0]
            dx[n + i] = d[1]
        return dx

    return rhs


def positivity_check(indices: Sequence[int]):
    """State-validity predicate: listed components must stay positive."""
    idx = tuple(indices)

    def check(x: np.ndarray) -> bool:
        return bool(np.all(x[list(idx)] > 0.0))

    return check
