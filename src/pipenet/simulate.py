"""Time-domain simulation.

Linear models are stepped with an exact zero-order-hold discretization
(matrix exponential of the augmented [A B; 0 0] block), so the only error
against the continuous LTI solution is the staircase approximation of the
input. The exponential is computed with numpy alone, by the scaling and
squaring Pade algorithm of Al-Mohy & Higham, "A New Scaling and Squaring
Algorithm for the Matrix Exponential", SIAM J. Matrix Anal. Appl. 31(3),
2009. Nonlinear models are integrated with fixed-step classical RK4 in
absolute (not deviation) variables.

A linear simulation is one stepping loop, lti_rows, which yields the
outputs a block of rows at a time; simulate_lti joins the blocks and the
CLI prints each block as it comes. A held input (a 1-D u) stays one
row: _input_array, which every simulation here reads its inputs through,
repeats it as a read-only view. Beyond t and a time-varying u, the
memory is then that of the exponential (about 11 (n + m)^2 doubles) and
of one block, whatever the length of the grid. C, and D where each of
its rows holds at most one nonzero, apply as gathers, elementwise, so
the rows do not depend on where a block ends; a model of the node rule
is stepped from its entries and never makes its dense A or C.

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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import csvfmt
from .core import GasProperties, PipeParams, StateSpaceModel, row_gather
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


# Pade approximants r_m(x) = p_m(x) / p_m(-x) of e^x (Al-Mohy & Higham 2009):
# m -> (theta_m, 1/|c_{2m+1}|, b_0..b_m). r_m(2^-s A)^(2^s) has backward
# error below 2^-53 when the d_k below are at most theta_m, and
# 1/|c_{2m+1}| weighs the leading term of that error in ell(A, m).
# theta_13 is 4.25, the value of the oracle that tests/test_expm.py
# compares against, so that both take the same s.
_PADE = {
    3: (1.495585217958292e-2, 100800.0, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, 10059033600.0,
        (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1, 4487938430976000.0,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    9: (2.097847961257068, 5914384781877411840000.0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (4.25, 113250775606021113483283660800000000.0,
         (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0,
          670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
          16380.0, 182.0, 1.0)),
}


def _pade_choice(A: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Degree m and squarings s for e^A, and expm's (7, n, n) workspace.

    Algorithm 5.1 of Al-Mohy & Higham (2009) with the exact 1-norms of
    A^4, A^6, A^8 and A^10. The workspace starts with the unscaled powers
    A^2, A^4, A^6 and, for m = 7 or 9, A^8. A must be nonzero; s = -1 says
    that the powers overflowed.
    """
    n = len(A)
    # one block for every n x n temporary, so that repeated calls reuse the
    # same memory instead of faulting in fresh pages
    ws = np.empty((7, n, n))
    P = ws[:4]
    np.matmul(A, A, out=P[0])
    np.matmul(P[0], P[0], out=P[1])
    np.matmul(P[1], P[0], out=P[2])
    absA = np.abs(A, out=ws[4])
    norm = float(absA.sum(axis=0).max())
    ones_pow = [np.ones(n)]  # 1^T |A|^k / ||A||_1^k, at most 1: cannot overflow

    def ell(m, s=0):  # squarings that the bound on r_m's error in |A| adds
        while len(ones_pow) <= 2 * m + 1:
            ones_pow.append(ones_pow[-1] @ absA / norm)
        top = ones_pow[2 * m + 1].max()  # ||(|A|^(2m+1))||_1 / ||A||_1^(2m+1)
        if top == 0.0:
            return 0
        log2_alpha = math.log2(top) + 2 * m * (math.log2(norm) - s) - math.log2(_PADE[m][1])
        return max(math.ceil((log2_alpha + 53) / (2 * m)), 0)

    def d(j, k):  # ||A^k||_1^(1/k) of the power in slot j
        return float(np.abs(P[j], out=ws[5]).sum(axis=0).max()) ** (1 / k)

    d4, d6 = d(1, 4), d(2, 6)
    for m in (3, 5):
        if max(d4, d6) < _PADE[m][0] and ell(m) == 0:
            return m, 0, ws
    np.matmul(P[1], P[1], out=P[3])
    d8 = d(3, 8)
    for m in (7, 9):
        if max(d6, d8) < _PADE[m][0] and ell(m) == 0:
            return m, 0, ws
    np.matmul(P[1], P[2], out=P[3])  # A^10; r_13 needs no A^8
    eta = min(max(d6, d8), max(d8, d(3, 10)))
    if not eta < np.inf:  # the powers overflowed
        return 13, -1, ws
    s = max(math.ceil(math.log2(eta / _PADE[13][0])), 0) if eta > 0 else 0
    return 13, s + ell(13, s), ws


# Each squaring can double the relative rounding error of r_m(2^-s A), so
# after s of them it may reach 2^s * 2^-53; zoh_discretize refuses a step
# that needs more squarings than keep this within _SQUARING_RTOL.
_SQUARING_RTOL = 1e-6
_MAX_SQUARINGS = math.floor(math.log2(_SQUARING_RTOL)) + 53  # 33


def expm(A: np.ndarray) -> np.ndarray:
    """e^A of a square float matrix by scaling and squaring.

    The Pade degree m and the squarings s are chosen by Al-Mohy & Higham,
    "A New Scaling and Squaring Algorithm for the Matrix Exponential",
    SIAM J. Matrix Anal. Appl. 31(3), 2009; r_m is one np.linalg.solve.
    A zero matrix gives I; powers of A that overflow give nan.
    """
    return _expm(A)[0]


def _expm(A: np.ndarray, max_squarings: float = math.inf):
    """(expm(A), s), or (None, s) when s exceeds max_squarings, before any work on r_m.

    s is -1 when the powers of A overflowed (e^A is nan then).
    """
    n = len(A)
    if not A.any():
        return np.eye(n), 0
    m, s, ws = _pade_choice(A)
    if s < 0:
        return np.full((n, n), np.nan), s
    if s > max_squarings:
        return None, s
    b = _PADE[m][2]
    if m < 13:  # U = A (b_m A^{m-1} + ... + b_1 I), V = b_{m-1} A^{m-1} + ... + b_0 I
        k = (m - 1) // 2
        W = ws[4:6]
        np.matmul(np.array([b[3::2], b[2::2]]), ws[:k].reshape(k, -1), out=W.reshape(2, -1))
    else:  # the same, with A^8 .. A^12 as A^6 times sums of A^2, A^4, A^6
        if s:
            A = A * 0.5 ** s
            ws[:3] *= np.array([0.5 ** (2 * s), 0.5 ** (4 * s), 0.5 ** (6 * s)])[:, None, None]
        W = ws[3:7]
        np.matmul(np.array([b[9::2], b[3:9:2], b[8::2], b[2:8:2]]), ws[:3].reshape(3, -1),
                  out=W.reshape(4, -1))
        W[1] += np.matmul(ws[2], W[0], out=ws[0])
        W[3] += np.matmul(ws[2], W[2], out=ws[0])
        W = W[1::2]
    W[0].flat[::n + 1] += b[1]
    W[1].flat[::n + 1] += b[0]
    U, V = np.matmul(A, W[0], out=ws[0]), W[1]
    Q = np.subtract(V, U, out=ws[1])
    V += U
    X = np.linalg.solve(Q, V)
    for _ in range(s):
        X = X @ X
    return X, s


def zoh_discretize(model: StateSpaceModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact ZOH discretization (Ad, Bd) of (A, B) at step dt.

    Phi = e^{[A B; 0 0] dt} holds Ad and Bd. A is placed from the model's
    nonzero entries (StateSpaceModel.entries), whatever the model holds.
    Phi is computed by expm (Al-Mohy & Higham 2009). A Phi that is not
    finite is a NumericalError, and so is a dt that needs more than
    _MAX_SQUARINGS squarings, whose rounding could grow past
    _SQUARING_RTOL relative (on the demo loop that happens between
    dt = 1e8 s and 1e9 s).
    Entries of magnitude below np.finfo(float).tiny (subnormals) are set to
    0.0, so that stepping with Ad and Bd runs at full BLAS speed; see the
    module docstring for the bound on what this changes.
    """
    if not 0.0 < dt < np.inf:
        raise ConfigurationError("time step must be positive and finite")
    n, m = model.n_states, model.n_inputs
    aug = np.zeros((n + m, n + m))
    entries = model.entries  # lti_rows reads them too
    aug[entries.rows, entries.cols] = entries.values
    aug[:n, n:] = model.B
    aug *= dt
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        Phi, s = _expm(aug, _MAX_SQUARINGS)
    if Phi is None:
        raise NumericalError(
            f"matrix exponential at dt={dt:g} needs {s} squarings, which may grow its "
            f"rounding to {2.0 ** (s - 53):.2g} relative (limit {_SQUARING_RTOL:g}); "
            f"use a smaller dt")
    if not np.isfinite(Phi).all():
        raise NumericalError(f"matrix exponential overflowed at dt={dt:g}")
    Phi[np.abs(Phi) < np.finfo(float).tiny] = 0.0
    return Phi[:n, :n], Phi[:n, n:]


def _input_array(u, n_steps: int, n_inputs: int) -> np.ndarray:
    """u as an (n_steps, n_inputs) array; a 1-D u is held, as a read-only view of its one row."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = np.broadcast_to(u, (n_steps, len(u)))
    if u.shape != (n_steps, n_inputs):
        raise ConfigurationError(
            f"input array must have shape ({n_steps}, {n_inputs}), got {u.shape}")
    return u


def simulate_lti(model: StateSpaceModel, t: np.ndarray, u, x0=None) -> TimeSeries:
    """Simulate an LTI model on a uniform time grid with ZOH inputs.

    u may be a constant vector (held for all time, and stored as its one
    row) or an array of shape (len(t), n_inputs) sampled at the grid
    points; u and x0 must be finite. Returns the outputs: the rows of
    lti_rows, joined.
    """
    Y = np.concatenate(list(lti_rows(model, t, u, x0)))
    return TimeSeries(np.asarray(t, dtype=float), Y, tuple(str(s) for s in model.output_labels))


def lti_rows(model: StateSpaceModel, t: np.ndarray, u, x0=None):
    """The outputs of simulate_lti as an iterator over blocks of rows, in time order.

    The arguments are checked and the model discretized when lti_rows is
    called, so every error is raised before the first row is made. Each
    block is a (rows, n_outputs) array; a block holds at most
    csvfmt.BLOCK_CELLS cells of states and of outputs with their time, so
    the memory beyond t and a time-varying u does not grow with len(t); a
    held u is one row.
    Each step is x_{k+1} = Ad x_k + Bd u_k; C applies as a gather
    (ModelEntries.outputs) and so does D when no row of D holds more than
    one nonzero, so a block's rows equal, bit for bit, those of the whole
    products X @ C.T + u @ D.T.
    """
    t = np.asarray(t, dtype=float)
    if len(t) < 2:
        raise ConfigurationError("need at least two time points")
    n, p = model.n_states, model.n_outputs
    height = max(1, csvfmt.BLOCK_CELLS // max(n, 1 + p))
    starts = range(0, len(t), height)  # the checks go block by block too: no temporary spans t
    dt = t[1] - t[0]
    if not all(np.allclose(np.diff(t[lo:lo + height + 1]), dt, rtol=1e-9, atol=0.0)
               for lo in starts):
        raise ConfigurationError("time grid must be uniform")
    u = _input_array(u, len(t), model.n_inputs)
    if not all(np.isfinite(u[lo:lo + height]).all() for lo in starts):
        raise ConfigurationError("inputs must be finite")
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ConfigurationError("bad initial state dimension")
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError("initial state must be finite")
    Ad, Bd = zoh_discretize(model, float(dt))
    d_cols, d_factors = row_gather(model.D)

    def feedthrough(U):  # U @ D.T, bit for bit for the finite U
        if d_cols is None:  # a held u's block repeats one row (stride 0): lay it out for BLAS
            return np.ascontiguousarray(U) @ model.D.T
        return 0.0 + U[:, d_cols] * d_factors

    def blocks(x):
        X = np.empty((min(height, len(t)), n))
        for lo in starts:
            Xb = X[:len(t) - lo]
            Xb[0] = x
            for i in range(len(Xb) - 1):
                Xb[i + 1] = Ad @ Xb[i] + Bd @ u[lo + i]
            if lo + height < len(t):  # the next block's first state
                x = Ad @ Xb[-1] + Bd @ u[lo + height - 1]
            yield model.entries.outputs(Xb) + feedthrough(u[lo:lo + height])

    return blocks(x0)


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
