"""simulate.expm against scipy.linalg.expm, the independent oracle."""

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import pipenet as pn
from pipenet import simulate

from conftest import mesh_text

DTS = (1e-3, 0.05, 0.5, 5.0, 50.0)


def augmented(model):
    n, m = model.n_states, model.n_inputs
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = model.A
    aug[:n, n:] = model.B
    return aug


@pytest.fixture(scope="module")
def cases(oracle_specs):
    """[A B; 0 0] dt of the oracle networks (the 200-pipe chain among them) and
    of the 25-diamond mesh at every dt, then a zero, a 1x1, a diagonal and a
    triangular matrix."""
    specs = list(oracle_specs) + [pn.parse(mesh_text(25, np.random.default_rng(5)))]
    mats = [augmented(pn.build_closed(spec)) * dt for spec in specs for dt in DTS]
    rng = np.random.default_rng(14)
    return mats + [np.zeros((4, 4)), np.array([[-0.7]]),
                   np.diag([-3.0, -0.25, 0.0, 1.5, 4.0]),
                   np.triu(rng.standard_normal((6, 6))) + np.diag([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])]


def test_expm_matches_scipy(cases):
    # each squaring can double the relative error of either side: at dt = 50
    # (3 to 11 squarings) scipy's result is itself up to 3.2e-12 off a
    # 40-digit exponential of these matrices, and expm's up to 3.8e-11
    for M in cases:
        ref = scipy_expm(M)
        got = simulate.expm(M)
        s = simulate._pade_choice(M)[1] if M.any() else 0
        assert np.abs(got - ref).sum(axis=0).max() <= 1e-12 * 2.0**s * np.abs(ref).sum(axis=0).max()


def test_cases_reach_every_degree_and_squaring(cases):
    chosen = {simulate._pade_choice(M)[:2] for M in cases if M.any()}
    assert {m for m, _ in chosen} == {3, 5, 7, 9, 13}
    assert any(s > 0 for _, s in chosen)


def test_zero_matrix_gives_identity():
    assert np.array_equal(simulate.expm(np.zeros((3, 3))), np.eye(3))
    assert simulate.expm(np.zeros((0, 0))).shape == (0, 0)


def test_overflowed_powers_give_nan():
    # A^2 overflows: no squaring count can be read off its norm
    with np.errstate(over="ignore", invalid="ignore"):
        got = simulate.expm(np.array([[0.0, 1e200], [-1e200, 0.0]]))
    assert np.isnan(got).all()


@pytest.mark.parametrize("a, m", [(0.014, 5), (0.2, 7), (0.9, 9), (2.0, 13)])
def test_ell_raises_the_degree_of_a_nonnormal_matrix(a, m):
    # A^2 = a^2 I, so every d_k is a, which alone picks the degree below m;
    # |A|^k grows like k a^(k-1) b, and the ell term moves the choice up
    b = 1e8
    A = np.array([[a, b], [0.0, -a]])
    assert simulate._pade_choice(A)[:2] == (m, 0)
    exact = np.array([[np.exp(a), b * np.sinh(a) / a], [0.0, np.exp(-a)]])
    assert np.allclose(simulate.expm(A), exact, rtol=1e-15, atol=0.0)
