import numpy as np
import pytest

import pipenet as pn
from pipenet import analysis, csvfmt, pipe_dynamics, simulate
from pipenet.core import row_gather
from pipenet.errors import ConfigurationError, NumericalError

from conftest import chain_text, mesh_text


def safe_dt(model):
    im = np.abs(np.linalg.eigvals(model.A).imag).max()
    return 0.1 / im


def test_zero_input_zero_state(pipe_params, op, gas):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    t = np.arange(0.0, 1.0, 0.01)
    ts = simulate.simulate_lti(m, t, np.zeros(2))
    assert np.all(ts.values == 0.0)


def test_step_settles_to_dc_gain(pipe_params, op, gas):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    dt = safe_dt(m)
    t = np.arange(0.0, 400.0, dt)
    ts = simulate.simulate_lti(m, t, np.array([0.0, 1.0]))
    q_l = ts.column("P.l.q")
    assert q_l[-1] == pytest.approx(1.0, abs=1e-4)  # unit flow gain


def test_zoh_exactness_under_refinement(pipe_params, op, gas):
    # constant input: state propagation is exact at shared sample times
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    dt = safe_dt(m)
    t1 = np.arange(0.0, 2.0, dt)
    t2 = np.arange(0.0, 2.0, dt / 2.0)
    u = np.array([100.0, 0.5])
    y1 = simulate.simulate_lti(m, t1, u).values
    y2 = simulate.simulate_lti(m, t2, u).values[::2]
    n = min(len(y1), len(y2))
    scale = np.abs(y1[:n]).max()
    assert np.allclose(y1[:n], y2[:n], rtol=1e-10, atol=1e-10 * scale)


def test_nonuniform_grid_rejected(pipe_params, op, gas):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    with pytest.raises(ConfigurationError):
        simulate.simulate_lti(m, np.array([0.0, 0.1, 0.3]), np.zeros(2))


@pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
def test_zoh_rejects_bad_step(pipe_params, op, gas, dt):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    with pytest.raises(ConfigurationError, match="time step must be positive and finite"):
        simulate.zoh_discretize(m, dt)


def test_nonlinear_preserves_steady_state(pipe_params, op, gas):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    t = np.arange(0.0, 100.0, safe_dt(m))
    x_ss = np.array([op.p_r_ss, op.q_ss])
    ts = simulate.simulate_nonlinear(simulate.pipe_rhs_2d(pipe_params, gas), t,
                                     np.array([op.p_l_ss, op.q_ss]), x_ss,
                                     ("p_r", "q_l"))
    assert np.abs((ts.values - x_ss) / x_ss).max() < 1e-6


def test_nonlinear_quadratic_remainder(pipe_params, op, gas):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    t = np.arange(0.0, 5.0, safe_dt(m))
    x_ss = np.array([op.p_r_ss, op.q_ss])
    u_ss = np.array([op.p_l_ss, op.q_ss])

    def max_dev(eps):
        du = np.array([0.0, eps * op.q_ss])
        nl = simulate.simulate_nonlinear(simulate.pipe_rhs_2d(pipe_params, gas),
                                         t, u_ss + du, x_ss, ("p_r", "q_l"))
        lin = simulate.simulate_lti(m, t, du)
        return np.abs((nl.values - x_ss - lin.values) / x_ss).max()

    ratio = max_dev(0.02) / max_dev(0.01)
    assert 3.2 <= ratio <= 4.8


def test_domain_exit_reported(pipe_params, op, gas):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    t = np.arange(0.0, 50.0, safe_dt(m))
    # drain the pipe hard: pressure must cross zero and trip the guard
    u = np.array([op.p_l_ss * 1e-3, 50.0 * op.q_ss])
    with pytest.raises(NumericalError, match="simulation left physical domain at t="):
        simulate.simulate_nonlinear(simulate.pipe_rhs_2d(pipe_params, gas), t, u,
                                    np.array([op.p_r_ss, op.q_ss]),
                                    ("p_r", "q_l"),
                                    check=simulate.positivity_check([0]))


def test_cascade_rhs_matches_series_linearization(gas, ref_lambda):
    from pipenet import composites, steady_state
    params = pn.PipeParams(L=10.0, d=0.7, lam=ref_lambda)
    segs, p_l = [], 25e5
    for _ in range(2):
        op = steady_state.isothermal_nominal(p_l, 21.0, gas.T_0, params, gas)
        segs.append((params, op))
        p_l = op.p_r_ss
    rhs = simulate.cascade_rhs_2d([p for p, _ in segs], gas)
    x_ss = np.array([segs[0][1].p_r_ss, segs[1][1].p_r_ss, 21.0, 21.0])
    u_ss = np.array([25e5, 21.0])
    assert np.abs(rhs(x_ss, u_ss)).max() < 1e-5  # second-order nominal residual

    comp = composites.make_series(segs, gas, member_ids=("A", "B"))
    h = 1e-3
    for j in range(4):
        e = np.zeros(4)
        e[j] = h * max(abs(x_ss[j]), 1.0)
        col = (rhs(x_ss + e, u_ss) - rhs(x_ss - e, u_ss)) / (2 * e[j])
        assert np.allclose(col, comp.model.A[:, j], rtol=1e-4,
                           atol=1e-7 * np.abs(comp.model.A).max())


def test_timeseries_csv_export(tmp_path):
    t = np.array([0.0, 0.1, 0.2])
    vals = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    ts = simulate.TimeSeries(t, vals, ("P.r.p", "P.l.q"))
    path = tmp_path / "out.csv"
    ts.to_csv(path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,P.r.p,P.l.q"
    assert "\r" not in text
    back = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert np.allclose(back[:, 1:], vals)


def test_timeseries_column_lookup():
    ts = simulate.TimeSeries(np.array([0.0, 1.0]), np.zeros((2, 1)), ("a",))
    assert np.all(ts.column("a") == 0.0)
    with pytest.raises(KeyError):
        ts.column("b")


def unflushed_outputs(model, dt, u):
    """Outputs of the ZOH recurrence on simulate.expm's matrices as they come, subnormals kept."""
    n, m = model.n_states, model.n_inputs
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = model.A
    aug[:n, n:] = model.B
    Phi = simulate.expm(aug * dt)
    Ad, Bd = Phi[:n, :n], Phi[:n, n:]
    X = np.zeros((len(u), n))
    for k in range(len(u) - 1):
        X[k + 1] = Ad @ X[k] + Bd @ u[k]
    return X @ model.C.T + u @ model.D.T


@pytest.mark.parametrize("text, dt", [
    (mesh_text(25, np.random.default_rng(5)), 0.5),
    (mesh_text(25, np.random.default_rng(5)), 0.05),
    (chain_text(200, np.random.default_rng(7)), 0.05),
], ids=["mesh25-0.5", "mesh25-0.05", "chain200-0.05"])
def test_zoh_has_no_subnormals(text, dt):
    # a subnormal operand costs a microcode assist per product: the 275-state
    # mesh stepped 1.8x slower with them
    Ad, Bd = simulate.zoh_discretize(pn.build_closed(pn.parse(text)), dt)
    for M in (Ad, Bd):
        assert not np.any((M != 0.0) & (np.abs(M) < np.finfo(float).tiny))


@pytest.mark.parametrize("dt", [0.05, 0.5, 5.0])
def test_flush_keeps_outputs_bit_identical(oracle_specs, dt):
    # the loop, criterion 5's 50 networks and the 10-diamond mesh
    for spec in oracle_specs[:-2] + oracle_specs[-1:]:
        model = pn.build_closed(spec)
        if model.n_states == 0:
            continue
        t = np.arange(201) * dt
        u = np.tile(np.linspace(1.0, 2.0, model.n_inputs), (len(t), 1))
        y = simulate.simulate_lti(model, t, u).values
        assert y.tobytes() == unflushed_outputs(model, dt, u).tobytes()


def test_flush_changes_only_negligible_outputs():
    # on the 200-pipe chain the far end is still ~1e-300 when the flushed
    # terms reach it; measured: 143 of 167618 cells, |y| <= 2.6e-289,
    # |dy| <= 9.1e-305 for a unit step on both inputs
    model = pn.build_closed(pn.parse(chain_text(200, np.random.default_rng(7))))
    t = np.arange(401) * 0.05
    u = np.ones((len(t), model.n_inputs))
    y = simulate.simulate_lti(model, t, u).values
    ref = unflushed_outputs(model, 0.05, u)
    changed = y != ref
    assert np.abs(ref[changed]).max(initial=0.0) < 1e-285
    assert np.abs(y[changed] - ref[changed]).max(initial=0.0) < 1e-300


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_input_or_initial_state_is_a_configuration_error(pipe_params, op, gas, bad):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    t = np.arange(0.0, 1.0, 0.01)
    u = np.zeros((len(t), 2))
    u[17, 1] = bad
    with pytest.raises(ConfigurationError, match="inputs must be finite"):
        simulate.simulate_lti(m, t, u)
    with pytest.raises(ConfigurationError, match="initial state must be finite"):
        simulate.simulate_lti(m, t, np.zeros(2), x0=np.array([0.0, bad]))


@pytest.mark.parametrize("dt", [1e6, 1e8])
def test_zoh_at_long_steps_reaches_dc_gain(loop_model, dt):
    # A_d vanishes and B_d = A^-1 (e^{A dt} - I) B tends to -A^-1 B; 32 squarings at
    # dt = 1e8 keep the rounding within the 1e-6 that zoh_discretize allows
    Ad, Bd = simulate.zoh_discretize(loop_model, dt)
    ref = -np.linalg.solve(loop_model.A, loop_model.B)
    assert not Ad.any()
    assert np.abs(Bd - ref).max() <= 1e-6 * np.abs(ref).max()


def test_zoh_refuses_too_many_squarings(loop_model):
    with pytest.raises(NumericalError, match=r"dt=1e\+09 needs 35 squarings"):
        simulate.zoh_discretize(loop_model, 1e9)


def test_pipe_rhs_3d_is_rhs_3d(gas, ref_lambda):
    # the array wrapper of the nonisothermal right-hand side, with every term active
    params = pn.PipeParams(L=500.0, d=0.7, d_out=0.75, h=3.0, lam=ref_lambda, k_rad=2.0)
    rhs = simulate.pipe_rhs_3d(params, gas)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = (rng.uniform(20e5, 30e5), rng.uniform(-30.0, 30.0), rng.uniform(280.0, 320.0))
        u = (rng.uniform(20e5, 30e5), rng.uniform(-30.0, 30.0), rng.uniform(280.0, 320.0))
        ref = pipe_dynamics.rhs_3d(pipe_dynamics.PipeState3D(*x), pipe_dynamics.PipeInput3D(*u),
                                   params, gas)
        got = rhs(np.array(x), np.array(u))
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert got.tobytes() == np.asarray(ref, dtype=float).tobytes()


def dense_feedthrough_model(n, m, p, rng):
    """A stable hand-built model whose every D row holds m > 1 nonzeros (no gather applies)."""
    A = rng.normal(size=(n, n)) - 2.0 * np.sqrt(n) * np.eye(n)
    model = pn.StateSpaceModel(A, rng.normal(size=(n, m)), rng.normal(size=(p, n)),
                               rng.uniform(0.5, 2.0, (p, m)), [f"x{i}" for i in range(n)],
                               [f"u{i}" for i in range(m)], [f"y{i}" for i in range(p)])
    assert row_gather(model.D)[0] is None  # lti_rows takes the dense product U @ D.T
    return model


@pytest.mark.parametrize("n, m, p", [(3, 2, 2), (40, 3, 5)])
def test_held_input_equals_its_tiled_grid(n, m, p):
    # a 1-D u is held as one row; its outputs equal, bit for bit, those of the
    # same row repeated on every step, on grids that end around the blocks' ends
    rng = np.random.default_rng(n)
    model = dense_feedthrough_model(n, m, p, rng)
    height = csvfmt.BLOCK_CELLS // max(n, 1 + p)
    for rows in (2, height, height + 1, 2 * height + 1):
        t = np.arange(rows) * 0.05
        u, x0 = rng.uniform(-2.0, 2.0, m), rng.uniform(-1.0, 1.0, n)
        held = simulate.simulate_lti(model, t, u, x0).values
        tiled = simulate.simulate_lti(model, t, np.tile(u, (rows, 1)), x0).values
        assert held.tobytes() == tiled.tobytes(), rows

        def rhs(x, uk):
            return model.A @ x + model.B @ uk

        held = simulate.simulate_nonlinear(rhs, t, u, x0, model.state_labels).values
        tiled = simulate.simulate_nonlinear(rhs, t, np.tile(u, (rows, 1)), x0,
                                            model.state_labels).values
        assert held.tobytes() == tiled.tobytes(), rows


def test_held_input_is_one_row_read_only():
    u = simulate._input_array([1.0, 2.0], 10 ** 6, 2)
    assert u.shape == (10 ** 6, 2) and u.strides[0] == 0 and not u.flags.writeable
    with pytest.raises(ConfigurationError, match=r"shape \(5, 3\), got \(5, 2\)"):
        simulate._input_array([1.0, 2.0], 5, 3)
