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
nonzeros of A. Its CSC pattern is built once per call from the model's
entries (StateSpaceModel.entries; a built model holds the node rule's,
so its dense A and C are never made here), each frequency refills only
the diagonal, and C is applied as a gather. H is bit for bit what a
fresh sparse matrix and dense C products at every frequency give
(tests/test_resolvent.py). transfer_at is the dense single-point
evaluation that mason_check and the tests use as the reference.

Singularity tests use one dense LU (_lu), which then also solves. Every
test rejects an exactly zero pivot. The DC gain is undefined when A has an
eigenvalue at zero: A is rejected when its eigenvalue nearest zero, taken
by Arnoldi on A^-1 with that LU (_min_eigenvalue_modulus), is within
machine epsilon times ||A||_1 of zero, that is within the rounding of A's
own entries. The test does not follow cond(A), which grows with the
length of a chain of compressors while the model stays well posed.
mason_check rejects I - Q when LAPACK's 1-norm estimate of its reciprocal
condition number is below 1/RESOLVENT_CONDITION_LIMIT (_factor).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .composites import check_gain
from .core import StateSpaceModel
from .errors import ConfigurationError, NominalWarning, NumericalError, PipenetError
from .interconnect import ConnectionMatrices, StackedSystem, close

RESOLVENT_CONDITION_LIMIT = 1e12

# Arnoldi steps that estimate the eigenvalue of A nearest zero
_ARNOLDI_STEPS = 20

# largest stack of A matrices a gain sweep hands to one eigenvalue call
_EIG_STACK_BYTES = 1 << 25


@dataclass(frozen=True)
class FrequencyResponse:
    """Sampled transfer function H(i w) = C (i w I - A)^-1 B + D."""

    omegas: np.ndarray
    H: np.ndarray  # shape (n_omega, p, m)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.H)


def eigenvalues(model: StateSpaceModel) -> np.ndarray:
    """All eigenvalues of the system matrix A."""
    return np.linalg.eigvals(_checked_system_matrix(model.A))


def _checked_system_matrix(A: np.ndarray) -> np.ndarray:
    """A, or a stack of them along the first axis, if it has states and finite entries."""
    if A.shape[-1] < 1:
        raise ConfigurationError("model has no states")
    if not np.all(np.isfinite(A)):
        raise NumericalError("non-finite entries in A")
    return A


def dc_gain(model: StateSpaceModel) -> np.ndarray:
    """Steady-state gain matrix D - C A^-1 B (just D for static models)."""
    if model.n_states == 0:
        return model.D.copy()
    return model.D + model.C @ dc_gain_to_states(model)


def dc_gain_to_states(model: StateSpaceModel) -> np.ndarray:
    """Steady-state gain from inputs to states, -A^-1 B.

    Composite elements expose only their boundary outputs; interior flows
    (e.g. every pipe's q_l in a closed network) remain visible as states,
    so flow tables are read off here. A is reported to have a pole at
    zero on an exactly zero pivot of its LU, or when its eigenvalue
    nearest zero has |lambda| <= eps ||A||_1 (eps = machine epsilon).
    """
    if model.n_states == 0:
        raise ConfigurationError("model has no states")
    from scipy.linalg import lu_solve  # deferred: import pipenet loads numpy only

    pole = NumericalError("system has a pole at zero; DC gain undefined")
    lu = _lu(model.A, pole)
    if not _min_eigenvalue_modulus(lu) > np.finfo(float).eps * np.linalg.norm(model.A, 1):
        raise pole
    return -lu_solve(lu, model.B, check_finite=False)


def _lu(M: np.ndarray, error: NumericalError):
    """LU factors of M (scipy.linalg.lu_factor), or raise error on an exactly zero pivot."""
    from scipy.linalg import LinAlgWarning, lu_factor

    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)  # lu_factor warns on a zero pivot
        try:
            return lu_factor(M, check_finite=False)
        except LinAlgWarning:
            raise error from None


def _factor(M: np.ndarray, error: NumericalError):
    """_lu(M, error), also raising error if M is near singular.

    Near singular: a reciprocal 1-norm condition number, estimated by
    LAPACK ?gecon from the same LU, below 1/RESOLVENT_CONDITION_LIMIT
    (nan included).
    """
    from scipy.linalg import get_lapack_funcs

    lu, piv = _lu(M, error)
    gecon, = get_lapack_funcs(("gecon",), (lu,))
    rcond, _ = gecon(lu, np.linalg.norm(M, 1))
    if not rcond >= 1.0 / RESOLVENT_CONDITION_LIMIT:
        raise error
    return lu, piv


def _min_eigenvalue_modulus(lu) -> float:
    """|lambda| of the eigenvalue nearest zero of the matrix with LU factors lu.

    Arnoldi on the inverse, one lu_solve per step, from a fixed random
    vector, for at most _ARNOLDI_STEPS steps: the largest Ritz value of
    the inverse converges first to its largest eigenvalue, 1/lambda. With
    at most _ARNOLDI_STEPS states the Krylov space is the whole space and
    the result is exact up to rounding. A step that overflows, in the solve,
    the projections or the norm, returns 0: the inverse has an eigenvalue
    beyond the float range.
    """
    from scipy.linalg import lu_solve  # deferred: import pipenet loads numpy only

    n = lu[0].shape[0]
    m = min(n, _ARNOLDI_STEPS)
    V = np.empty((m, n))
    H = np.zeros((m, m))
    v = np.random.default_rng(0).standard_normal(n)
    V[0] = v / np.linalg.norm(v)
    for j in range(m):
        w = lu_solve(lu, V[j], check_finite=False)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow returns 0 below
            for _ in range(2):  # classical Gram-Schmidt, repeated once for orthogonality
                h = V[:j + 1] @ w
                w -= h @ V[:j + 1]
                H[:j + 1, j] += h
            beta = np.linalg.norm(w)
        if not (np.isfinite(beta) and np.isfinite(H[:j + 1, j]).all()):
            return 0.0
        if j + 1 == m or beta == 0.0:  # beta = 0: the Krylov space is invariant
            break
        H[j + 1, j] = beta
        V[j + 1] = w / beta
    k = j + 1
    return 1.0 / np.abs(np.linalg.eigvals(H[:k, :k])).max()


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

    Builds the CSC pattern of i w I - A once, from the model's entries
    view: -A plus the whole diagonal. Each frequency copies its values,
    adds i w on the diagonal, takes one sparse LU and one solve for all of
    B, and applies C as a gather. At w = 0 the diagonal entries that are
    zero are dropped, as the matrix 0 I - A holds none: SuperLU orders the
    columns by the structure, so the same structure gives the same
    factors. Raises ConfigurationError unless every frequency is finite
    and nonnegative, and NumericalError on non-finite entries of A or B
    or an exactly singular factor.
    """
    omegas = np.asarray(omegas, dtype=float)
    if not np.all((omegas >= 0) & (omegas < np.inf)):
        raise ConfigurationError("frequencies must be finite and nonnegative")
    H = np.empty((len(omegas), model.n_outputs, model.n_inputs), dtype=complex)
    if model.n_states == 0:
        H[:] = model.D
        return FrequencyResponse(omegas, H)
    from scipy import sparse  # deferred: import pipenet loads numpy only
    from scipy.sparse.linalg import splu

    n, e = model.n_states, model.entries
    if not (np.all(np.isfinite(e.values)) and np.all(np.isfinite(model.B))):
        raise NumericalError("non-finite entries in A or B")
    diag = np.arange(n)
    M = sparse.csc_matrix((np.concatenate([-e.values, np.zeros(n)]),
                           (np.concatenate([e.rows, diag]), np.concatenate([e.cols, diag]))),
                          shape=(n, n), dtype=complex)  # sorted indices, duplicates summed
    slots = np.flatnonzero(M.indices == np.repeat(diag, np.diff(M.indptr)))
    values = M.data.copy()
    B = model.B.astype(complex)
    for k, w in enumerate(omegas.tolist()):
        M.data[:] = values  # SuperLU keeps its own factors, so M is refilled in place
        M.data[slots] += 1j * w
        R = M
        if not w:  # drop the zero diagonal; eliminate_zeros compacts indices in place
            R = M.copy()
            R.eliminate_zeros()
        try:
            lu = splu(R)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            raise _singular_resolvent(1j * w) from None
        X = lu.solve(B)
        # two real gathers, each summed from +0.0 as the product C @ X.real is
        H[k] = e.outputs(X.real.T).T + 1j * e.outputs(X.imag.T).T + model.D
    return FrequencyResponse(omegas, H)


def log_grid(wmin: float, wmax: float, n: int | None = None) -> np.ndarray:
    """Log-spaced frequency grid, 200 points per decade by default."""
    if not (wmin > 0 and wmax > wmin):
        raise ConfigurationError("need 0 < wmin < wmax")
    if n is None:
        n = max(2, int(round(200 * np.log10(wmax / wmin))))
    if n < 1:
        raise ConfigurationError(f"need n >= 1 grid points, got {n}")
    try:
        return np.logspace(np.log10(wmin), np.log10(wmax), n)
    except (ValueError, IndexError, MemoryError):  # numpy's refusals of a count it cannot hold
        raise ConfigurationError(f"n = {n:.6g} grid points, too many to allocate") from None


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

    Compiles the network description once (netspec.CompiledNetwork) and
    checks every k before the first solve, so a bad k gets the
    ConfigurationError of make_gain wherever the gain sits. The k values
    are then taken in chunks whose A stack holds at most _EIG_STACK_BYTES,
    which bounds the memory. Each chunk is one table of (k, pipe) lanes:
    one pressure spread, in which every pipe is linearized at the
    gain-aware operating point of netspec.network_steady_state (one
    steady-state solve per pipe and k), one node-rule fill of all its A
    matrices (no labelled model is built) and one eigenvalue call. The
    margins, and any error, are those of one k at a time. The constraints
    those points leave unmet (a ring whose gains admit no steady state,
    say) are reported in one NominalWarning per sweep.
    """
    from . import netspec  # deferred: netspec builds on this module's siblings

    net = netspec.CompiledNetwork(spec)
    ks = [float(k) for k in k_values]
    out = np.empty(len(ks))
    if not ks:
        return out
    gains = np.array([net.gains_with(gain_element_id, k) for k in ks])
    for k in gains.ravel().tolist():
        check_gain(k)
    chunk = -(-_EIG_STACK_BYTES // max(8 * net.shape[0] ** 2, 1))
    unmet = []  # (k, first unmet constraint) for each k that has one
    for lo in range(0, len(ks), chunk):
        rows = gains[lo:lo + chunk]
        try:
            spread = net.spread(rows)
            A = net.fill_spread(spread)
        except PipenetError:
            for row in rows:  # raise what the first failing k raises alone
                net.fill_spread(net.spread(row[None]))
            raise
        out[lo:lo + len(rows)] = np.linalg.eigvals(_checked_system_matrix(A)).real.max(axis=1)
        for lane, k in enumerate(ks[lo:lo + chunk]):
            first = spread.unmet_at(lane)[:1]
            if first:
                unmet.append((k, first[0]))
    if unmet:
        k, first = unmet[0]
        warnings.warn(f"unmet steady-state constraints at {len(unmet)} of {len(out)} "
                      f"values of {gain_element_id}.k; first at k={k:.6g}: {first}",
                      NominalWarning, stacklevel=2)
    return out
