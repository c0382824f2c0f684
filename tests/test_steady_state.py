import math

import numpy as np
import pytest

import pipenet as pn
from pipenet import steady_state
from pipenet.errors import DomainError, NominalWarning, NumericalError


def implicit_residual(p_r, p_l, q, T_l, T_r, params, gas):
    # the downstream pressure must reproduce itself through the closed form
    coef = (params.require_lambda() * params.L * gas.z_0 * gas.R_s * T_r
            / (2.0 * params.d * params.A_c**2))
    grav = pn.G_STD * params.h / (gas.R_s * gas.z_0 * T_r)
    rhs = p_l ** (T_l / T_r) * math.exp(-coef * q * abs(q) / p_r**2 - grav)
    return abs(p_r - rhs) / p_r


def test_exact_satisfies_implicit_equation(pipe_params, gas):
    p_r = steady_state.exact_nominal_pr(25e5, 21.0, 300.0, 300.0, pipe_params, gas)
    assert implicit_residual(p_r, 25e5, 21.0, 300.0, 300.0, pipe_params, gas) < 1e-10


def test_pressure_drops_downstream(pipe_params, gas):
    p_r = steady_state.exact_nominal_pr(25e5, 21.0, 300.0, 300.0, pipe_params, gas)
    assert 0.0 < p_r < 25e5


def test_zero_flow_level_pipe_is_lossless(pipe_params, gas):
    p_r = steady_state.exact_nominal_pr(25e5, 0.0, 300.0, 300.0, pipe_params, gas)
    assert p_r == pytest.approx(25e5, rel=1e-12)


def test_elevation_adds_hydrostatic_drop(gas, ref_lambda):
    flat = pn.PipeParams(L=1000.0, d=0.7, lam=ref_lambda)
    uphill = pn.PipeParams(L=1000.0, d=0.7, lam=ref_lambda, h=100.0)
    p_flat = steady_state.exact_nominal_pr(25e5, 21.0, 300.0, 300.0, flat, gas)
    p_up = steady_state.exact_nominal_pr(25e5, 21.0, 300.0, 300.0, uphill, gas)
    assert p_up < p_flat


def test_approx_close_to_exact_for_short_pipe(pipe_params, gas):
    exact = steady_state.exact_nominal_pr(25e5, 21.0, 300.0, 300.0, pipe_params, gas)
    approx = steady_state.approx_nominal_pr(25e5, 21.0, 300.0, 300.0, pipe_params, gas)
    assert approx == pytest.approx(exact, rel=1e-6)


def test_reverse_flow_raises_downstream_pressure(pipe_params, gas):
    p_r = steady_state.exact_nominal_pr(25e5, -21.0, 300.0, 300.0, pipe_params, gas)
    assert p_r > 25e5


def test_isothermal_nominal_packs_operating_point(pipe_params, gas):
    op = steady_state.isothermal_nominal(25e5, 21.0, gas.T_0, pipe_params, gas)
    assert op.p_l_ss == 25e5
    assert op.q_ss == 21.0
    assert op.T_l_ss == op.T_r_ss == gas.T_0
    assert op.p_r_ss == pytest.approx(
        steady_state.exact_nominal_pr(25e5, 21.0, gas.T_0, gas.T_0, pipe_params, gas))


def test_rejects_nonpositive_pressure(pipe_params, gas):
    with pytest.raises(DomainError):
        steady_state.exact_nominal_pr(0.0, 21.0, 300.0, 300.0, pipe_params, gas)


def test_temperature_ratio_scales_pressure(gas, ref_lambda):
    # hotter outlet raises p_l^(Tl/Tr) toward a smaller exponent
    params = pn.PipeParams(L=10.0, d=0.7, lam=ref_lambda)
    cold = steady_state.exact_nominal_pr(25e5, 1.0, 300.0, 300.0, params, gas)
    hot = steady_state.exact_nominal_pr(25e5, 1.0, 300.0, 330.0, params, gas)
    assert hot != cold
    assert implicit_residual(hot, 25e5, 1.0, 300.0, 330.0, params, gas) < 1e-10


def test_bisection_takes_over_when_newton_leaves_positive_axis():
    # g(p) = tanh(4 (p - 0.6)): from p = 1 the first Newton step lands near -0.53
    def update(p):
        return p - math.tanh(4.0 * (p - 0.6))

    def slope(p, u):
        return 1.0 - 4.0 * (1.0 - math.tanh(4.0 * (p - 0.6)) ** 2)

    p = steady_state._newton_root(update, slope, 1.0)
    assert p == pytest.approx(0.6, rel=1e-11)


@pytest.mark.parametrize("solve", [steady_state.exact_nominal_pr,
                                   steady_state.approx_nominal_pr])
def test_no_root_in_bracket_raises(gas, ref_lambda, solve):
    # friction of this forward flow exceeds any exit pressure in [p_l/2, 2 p_l]
    params = pn.PipeParams(L=20000.0, d=0.7, lam=ref_lambda)
    with pytest.raises(NumericalError, match="steady-state solve diverged"):
        solve(25e5, 3000.0, 300.0, 300.0, params, gas)


@pytest.mark.parametrize("L, q", [(1000.0, -3000.0), (20000.0, -2600.0), (20000.0, -550.0)])
def test_strong_reverse_flow_has_a_root(gas, ref_lambda, L, q):
    # roots far above 2 p_l, outside the bisection bracket: Newton climbs to them
    params = pn.PipeParams(L=L, d=0.7, lam=ref_lambda)
    p_r = steady_state.exact_nominal_pr(25e5, q, 300.0, 300.0, params, gas)
    assert p_r > 2 * 25e5
    assert implicit_residual(p_r, 25e5, q, 300.0, 300.0, params, gas) <= 1e-15


def test_solves_take_few_evaluations(oracle_specs, loop_spec, monkeypatch):
    counts, residuals = [], []
    newton_root = steady_state._newton_root

    def counted(update, slope, base):
        calls = []

        def update_counted(p):
            calls.append(p)
            return update(p)

        p = newton_root(update_counted, slope, base)
        counts.append(len(calls))
        residuals.append(abs(p - update(p)) / np.spacing(p))
        return p

    monkeypatch.setattr(steady_state, "_newton_root", counted)
    for spec in oracle_specs:
        pn.build_closed(spec)
        pn.network_steady_state(spec)
    with pytest.warns(NominalWarning):
        pn.stability_margin_sweep(loop_spec, "C", np.linspace(4.0, 100.0, 49))
    assert len(counts) > 490
    assert max(counts) <= 6
    assert max(residuals) <= 4.0


@pytest.mark.parametrize("L, q", [(20000.0, -2800.0), (20000.0, -3000.0), (20.0, -1e5)])
def test_reverse_flow_past_exp_overflow_has_a_root(gas, ref_lambda, L, q):
    # Newton and bisection on p_r both overflow exp; the solve in ln p_r does not
    params = pn.PipeParams(L=L, d=0.7, lam=ref_lambda)
    p_r = steady_state.exact_nominal_pr(25e5, q, 300.0, 300.0, params, gas)
    assert p_r > 2 * 25e5
    assert implicit_residual(p_r, 25e5, q, 300.0, 300.0, params, gas) <= 1e-15
