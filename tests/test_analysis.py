import os
import subprocess
import sys

import numpy as np
import pytest

import pipenet as pn
from pipenet import analysis, composites, interconnect, pipe_dynamics
from pipenet.core import StateSpaceModel
from pipenet.errors import ConfigurationError, NominalWarning, NumericalError

from conftest import chain_text


def test_pipe_dc_gain_closed_form(pipe_params, op, gas):
    c = pipe_dynamics.iso_coefficients(pipe_params, op, gas)
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    G = analysis.dc_gain(m)
    expected = np.array([[-c.beta_pl / c.beta_pr, -c.gamma / c.beta_pr],
                         [0.0, 1.0]])
    assert np.allclose(G, expected, rtol=1e-10, atol=1e-14)


def test_static_gain_dc_is_d():
    comp = composites.make_gain(4.0)
    assert np.allclose(analysis.dc_gain(comp.model), comp.model.D)


def test_dc_gain_pole_at_zero():
    m = StateSpaceModel(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                        np.zeros((1, 1)), ("x",), ("u",), ("y",))
    with pytest.raises(NumericalError, match="pole at zero"):
        analysis.dc_gain(m)


def test_freq_response_at_zero_matches_dc(pipe_params, op, gas):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    fr = analysis.freq_response(m, [0.0])
    assert np.allclose(fr.H[0], analysis.dc_gain(m), rtol=1e-9, atol=1e-12)


def test_freq_response_static_gain_flat():
    comp = composites.make_gain(2.5)
    fr = analysis.freq_response(comp.model, [0.0, 1.0, 100.0])
    for H in fr.H:
        assert np.allclose(H, comp.model.D)


def test_resonance_near_sound_crossing(pipe_params, op, gas):
    # lightly damped peak at sqrt(alpha*beta) = c/L
    c = pipe_dynamics.iso_coefficients(pipe_params, op, gas)
    w_peak_pred = np.sqrt(c.alpha * c.beta_pr)
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    ws = np.linspace(0.5 * w_peak_pred, 1.5 * w_peak_pred, 2001)
    mags = np.abs(analysis.freq_response(m, ws).H[:, 0, 0])
    w_peak = ws[np.argmax(mags)]
    assert w_peak == pytest.approx(w_peak_pred, rel=1e-2)
    assert w_peak_pred == pytest.approx(pn.speed_of_sound(gas) / pipe_params.L,
                                        rel=1e-12)


def test_eigenvalues_zero_matrix():
    m = StateSpaceModel(np.zeros((3, 3)), np.zeros((3, 1)), np.eye(3),
                        np.zeros((3, 1)), ("a", "b", "c"), ("u",),
                        ("a", "b", "c"))
    assert np.allclose(analysis.eigenvalues(m), 0.0)


def test_eigenvalues_reject_nonfinite():
    A = np.array([[np.nan]])
    m = StateSpaceModel(A, np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)),
                        ("x",), ("u",), ("y",))
    with pytest.raises(NumericalError):
        analysis.eigenvalues(m)


def test_eigenvalues_need_states():
    comp = composites.make_gain(1.5)
    with pytest.raises(ConfigurationError):
        analysis.eigenvalues(comp.model)


def test_mason_no_feedback_is_exact(pipe_params, op, gas):
    comp = composites.make_pipe(pipe_params, op, gas, "A")
    stacked = interconnect.stack([comp.model])
    conn = interconnect.build_FG(stacked, [],
                                 [("u_p", comp.ports["l"]), ("u_q", comp.ports["r"])])
    assert np.allclose(conn.F, 0.0)
    dev = analysis.mason_check(stacked, conn, analysis.log_grid(1e-3, 1e3, 20))
    assert dev == 0.0


def test_mason_loop(loop_spec):
    stacked, conn = pn.elaborate(loop_spec)
    dev = analysis.mason_check(stacked, conn, analysis.log_grid(1e-3, 1e3, 20))
    assert dev < 1e-8


def test_dc_gain_to_states_matches_solve(loop_model):
    G = analysis.dc_gain_to_states(loop_model)
    assert np.allclose(loop_model.A @ G, -loop_model.B, atol=1e-8)


def test_sweep_deterministic(loop_spec):
    ks = [4.0, 4.0, 4.0]
    margins = analysis.stability_margin_sweep(loop_spec, "C", ks)
    assert margins[0] == margins[1] == margins[2]
    assert margins[0] < 0.0


def test_sweep_reports_unmet_and_moves_with_gain(loop_spec):
    with pytest.warns(NominalWarning, match=r"at 2 of 2 values of C\.k.*J: P2\.r\.p"):
        margins = analysis.stability_margin_sweep(loop_spec, "C", [4.0, 100.0])
    assert margins[0] != margins[1]


def test_log_grid_default_density():
    g = analysis.log_grid(1.0, 100.0)
    assert len(g) == 400
    assert g[0] == pytest.approx(1.0) and g[-1] == pytest.approx(100.0)


def test_freq_response_matches_dense_reference(oracle_specs):
    # sparse LU path against the dense transfer_at, within backward-stable error
    grid = analysis.log_grid(1e-3, 1e3, 20)
    eps = np.finfo(float).eps
    for spec in oracle_specs:
        m = pn.build_closed(spec)
        fr = analysis.freq_response(m, grid)
        if m.n_states == 0:  # a lone gain: H = D at every frequency
            assert np.array_equal(fr.H, np.broadcast_to(m.D, fr.H.shape))
            continue
        for k, w in enumerate(grid):
            H = analysis.transfer_at(m, 1j * w)
            cond = np.linalg.cond(1j * w * np.eye(m.n_states) - m.A)
            assert np.linalg.norm(fr.H[k] - H) <= 10 * cond * eps * np.linalg.norm(H)


def test_singular_resolvent_raises_numerical_error():
    m = StateSpaceModel(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                        np.zeros((1, 1)), ("x",), ("u",), ("y",))
    with pytest.raises(NumericalError, match="singular"):
        analysis.transfer_at(m, 0)
    with pytest.raises(NumericalError, match="singular"):
        analysis.freq_response(m, [1.0, 0.0])


def test_import_loads_numpy_only():
    # scipy is imported by the first Bode, DC gain or Mason check, not by import pipenet
    src = os.path.dirname(os.path.dirname(pn.__file__))
    code = "import sys, pipenet; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"


def test_dc_gain_of_long_compressor_chain():
    # cond(A) grows with the compressors (rcond_1 ~ 8e-14) while the eigenvalue
    # nearest zero, ~5e-9, stays far above eps ||A||_1 ~ 2e-13
    model = pn.build_closed(pn.parse(chain_text(1500, np.random.default_rng(7))))
    X = analysis.dc_gain_to_states(model)
    residual = np.abs(model.A @ X + model.B).max()
    assert residual <= 1e-12 * np.abs(model.A).max() * np.abs(X).max()


RING_TEXT = """\
gas Rs=518.28 z0=0.95 T0=300
pipe P1 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
pipe P2 L=37 d=0.5 eps=4.57e-5 Re=1.168e8
gain K k=1.3
link P1.r K.l
link K.r P2.l
link P2.r P1.l
nominal * pl=25e5 q=21
"""


def test_dc_gain_ring_has_pole_at_zero():
    # a closed ring keeps its mass: A is singular, yet no pivot is exactly zero
    from scipy.linalg import lu_factor
    model = pn.build_closed(pn.parse(RING_TEXT))
    assert np.abs(np.diag(lu_factor(model.A)[0])).min() > 0.0
    with pytest.raises(NumericalError, match="pole at zero"):
        analysis.dc_gain_to_states(model)


def test_dc_gain_does_not_follow_units():
    # eigenvalues -1 +- i for every s; s = 1e7 (as between Pa and kg/s) gives
    # cond_1(A) ~ 5e13, which the condition test took for a pole at zero
    s = 1e7
    A = np.array([[-1.0, s], [-1.0 / s, -1.0]])
    m = StateSpaceModel(A, np.eye(2), np.eye(2), np.zeros((2, 2)),
                        ("p", "q"), ("u", "v"), ("p", "q"))
    expected = -np.array([[-1.0, -s], [1.0 / s, -1.0]]) / 2.0  # -A^-1
    assert np.allclose(analysis.dc_gain_to_states(m), expected, rtol=1e-14, atol=0.0)


def test_min_eigenvalue_modulus_matches_dense(oracle_specs):
    for spec in oracle_specs:
        A = pn.build_closed(spec).A
        if A.size == 0:
            continue
        est = analysis._min_eigenvalue_modulus(analysis._lu(A, NumericalError()))
        assert est == pytest.approx(np.abs(np.linalg.eigvals(A)).min(), rel=1e-6)
