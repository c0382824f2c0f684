"""freq_response on one resolvent pattern, against the per-frequency reference.

The reference is the factorization freq_response took before the pattern
was built once: splu(1j*w*eye - csc_matrix(A)) at every frequency, then
the dense products C @ X.real and C @ X.imag. The pattern path must give
the same H bit for bit, so the reference stays here as the oracle.
"""

import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

import pipenet as pn
from pipenet import analysis, composites, netspec
from pipenet.core import ModelEntries, StateSpaceModel
from pipenet.errors import ConfigurationError, NumericalError

from conftest import mesh_text

GRID = np.concatenate([[0.0], np.logspace(-8, 3, 30)])

TWO_PIPE_RING = """\
gas Rs=518.28 z0=0.95 T0=300
pipe P1 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
pipe P2 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
link P1.r P2.l
link P2.r P1.l
nominal * pl=25e5 q=21
"""


def reference_response(model, omegas):
    """H per frequency as factored before the shared pattern; None where singular."""
    A = sparse.csc_matrix(model.A)
    eye = sparse.identity(model.n_states, dtype=complex, format="csc")
    B = model.B.astype(complex)
    out = []
    for w in omegas:
        try:
            lu = splu(1j * w * eye - A)
        except RuntimeError:
            out.append(None)
            continue
        X = lu.solve(B)
        out.append(model.C @ X.real + 1j * (model.C @ X.imag) + model.D)
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def models(oracle_specs):
    """Built models of oracle_specs (the 200-pipe chain among them) and a 25-diamond mesh."""
    specs = oracle_specs + [pn.parse(mesh_text(25, np.random.default_rng(7)))]
    return [pn.build_closed(spec) for spec in specs]


def assert_matches_reference(model, omegas):
    ref = reference_response(model, omegas)
    regular = [k for k, H in enumerate(ref) if H is not None]
    if len(regular) < len(ref):
        with pytest.raises(NumericalError, match="singular"):
            analysis.freq_response(model, omegas)
    H = analysis.freq_response(model, omegas[regular]).H
    for H_k, k in zip(H, regular):
        assert same_bits(H_k, ref[k])


def test_response_is_bit_identical_to_the_reference(models):
    for model in models:
        if model.n_states:
            assert_matches_reference(model, GRID)


def test_entries_are_the_nonzeros_of_a(models):
    for model in models:
        e = model.entries
        rows, cols = np.nonzero(model.A)
        assert same_bits(e.rows, rows) and same_bits(e.cols, cols)
        assert same_bits(e.values, model.A[rows, cols])
        for a in (e.rows, e.cols, e.values):
            assert not a.flags.writeable
        if model.n_states:
            C = np.zeros_like(model.C)
            C[np.arange(len(C)), e.c_cols] = e.c_factors
            assert same_bits(C, model.C)


def test_gather_equals_the_product_on_every_lane_of_a_fill(loop_spec):
    net = netspec.CompiledNetwork(loop_spec)
    rows = np.array([net.gains_with("C", k) for k in (4.0, 40.0, 100.0)])
    spread = net.spread(rows)
    A, _, C, _, _ = net._closure[3].fill(net._iso.at(spread.q, spread.p_l.T), rows)
    for lane in range(len(rows)):
        e = ModelEntries(A[lane], C[lane])
        X = np.random.default_rng(lane).standard_normal((4, A.shape[1]))
        assert same_bits(e.outputs(X), X @ C[lane].T)


def test_replaced_model_derives_its_own_entries(models):
    model = models[0]
    model.entries  # noqa: B018 - cache the view before the copy
    doubled = dataclasses.replace(model, A=2 * model.A)
    assert "entries" not in doubled.__dict__
    assert same_bits(doubled.entries.values, 2 * model.entries.values)
    assert_matches_reference(doubled, GRID)
    assert not np.array_equal(analysis.freq_response(doubled, GRID[1:]).H,
                              analysis.freq_response(model, GRID[1:]).H)


def test_dense_c_with_two_entries_per_row():
    rng = np.random.default_rng(11)
    A = np.diag(-rng.uniform(1.0, 2.0, 5)) + np.diag(rng.uniform(size=4), 1)
    C = np.zeros((3, 5))
    C[0, 1], C[1, [0, 3]], C[2, 4] = 2.0, (1.0, -3.0), -0.5
    m = StateSpaceModel(A, rng.standard_normal((5, 2)), C, np.ones((3, 2)),
                        [f"x{i}" for i in range(5)], ("u", "v"), ("a", "b", "c"))
    assert m.entries.c_cols is None
    assert_matches_reference(m, GRID)


def test_gather_keeps_signed_zeros():
    C = np.array([[0.0, -2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    e = ModelEntries(np.zeros((3, 3)), C)
    X = np.array([[0.0, -0.0, 1e-300], [-0.0, 0.0, -1e-300], [1e-200, -1e-200, 2.0]])
    assert same_bits(e.outputs(X), X @ C.T)


def test_ring_with_pole_at_zero_raises_at_zero():
    model = pn.build_closed(pn.parse(TWO_PIPE_RING))
    with pytest.raises(NumericalError, match=r"singular at s = 0j"):
        analysis.freq_response(model, [1.0, 0.0])
    assert analysis.freq_response(model, [1.0]).H.shape == (1, model.n_outputs, 0)


@pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf, -1.0])
def test_nonfinite_or_negative_frequency_is_a_configuration_error(models, w):
    with pytest.raises(ConfigurationError, match="finite and nonnegative"):
        analysis.freq_response(models[0], [1.0, w])


def test_nonfinite_a_is_a_numerical_error(models):
    A = models[0].A.copy()
    A[0, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        analysis.freq_response(dataclasses.replace(models[0], A=A), [1.0])


def test_element_rule_entries_of_every_kind():
    # one element alone: the gather applies wherever the element has states
    for kind, n in (("pipe", 1), ("joint", 3), ("branch", 3), ("series", 4), ("gain", 1)):
        rule = composites._rule(kind, n)
        coef = np.random.default_rng(n).uniform(0.5, 2.0, (1, 4 * (0 if kind == "gain" else n)))
        A, _, C, _, _ = rule.fill(coef, [[1.7] if kind == "gain" else []])
        e = ModelEntries(A[0], C[0])
        assert (e.c_cols is None) == (kind == "gain")
        X = np.random.default_rng(n).standard_normal((3, A.shape[1]))
        assert same_bits(e.outputs(X), X @ C[0].T)


def test_overflowed_states_take_the_dense_product():
    # x0 = 1e10 / 1e-300 overflows at w = 0; the dense product reads 0 * inf = nan
    # in the output of the finite state x1, and so must the gather
    m = StateSpaceModel(np.diag([-1e-300, -1.0]), np.array([[1e10], [1.0]]), np.eye(2),
                        np.zeros((2, 1)), ["x0", "x1"], ("u",), ("a", "b"))
    with np.errstate(invalid="ignore"):
        X = np.array([[np.inf, 1.0], [-np.inf, np.nan]])
        assert same_bits(m.entries.outputs(X), X @ m.C.T)
        H = analysis.freq_response(m, [0.0]).H[0]
        assert same_bits(H, reference_response(m, [0.0])[0])
    assert np.isnan(H[1, 0].real)
