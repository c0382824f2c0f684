"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (outside pytest's capture so it
always reaches the terminal) and then asserts, so the -v listing and the
printed summary agree.
"""

import numpy as np
import pytest

import pipenet as pn
from pipenet import analysis, composites, netspec, pipe_dynamics, simulate, steady_state

from conftest import LOOP_TEXT, random_network_text, random_pipe

# expected steady-state flow gains of the loop network, columns
# (fill pressure, distribution draw, vent draw), rows q_i,l for i = 1..10
FLOW_GAIN_TABLE = {
    "P1.l.q": (0.0, 1.0, 1.0),
    "P2.l.q": (0.184, -0.8, -1.022),
    "P3.l.q": (0.184, 0.2, -0.022),
    "P4.l.q": (0.184, 0.2, -0.022),
    "P5.l.q": (0.184, 0.2, -0.022),
    "P6.l.q": (0.0, 1.0, 0.0),
    "P7.l.q": (0.184, -0.8, -0.022),
    "P8.l.q": (0.184, -0.8, -0.022),
    "P9.l.q": (0.0, 0.0, 1.0),
    "P10.l.q": (0.184, -0.8, -1.022),
}


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        line = f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def flow_gains(model):
    G = analysis.dc_gain_to_states(model)
    return {str(lab): G[i] for i, lab in enumerate(model.state_labels)
            if lab.quantity == "q"}


def test_criterion_01_haaland_reproduction(report):
    lam = pn.haaland_lambda(4.57e-5, 0.7, 1.168e8)
    report(1, "Haaland friction factor in published band",
           0.0106 <= lam <= 0.0116, f"lambda={lam:.6f}")


def test_criterion_02_flow_gain_table(loop_model, report):
    got = flow_gains(loop_model)
    worst = max(abs(got[k][j] - v[j])
                for k, v in FLOW_GAIN_TABLE.items() for j in range(3))
    report(2, "loop steady-state flow gains match published table",
           worst < 1e-2, f"max abs dev={worst:.2e}")


def test_criterion_03_loop_stability(loop_model, report):
    eigs = analysis.eigenvalues(loop_model)
    report(3, "all closed-loop eigenvalues strictly stable",
           bool(np.all(eigs.real < 0.0)),
           f"n={len(eigs)}, max Re={eigs.real.max():.4f}")


def test_criterion_04_pipe_analytic_checks(gas, report):
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(100):
        params, op = random_pipe(rng, gas)
        c = pipe_dynamics.iso_coefficients(params, op, gas)
        m = pipe_dynamics.linearize_2d(params, op, gas)
        disc = np.lib.scimath.sqrt(c.gamma**2 / 4.0 - c.alpha * c.beta_pr)
        expected = np.sort_complex(np.array([c.gamma / 2 + disc, c.gamma / 2 - disc]))
        got = np.sort_complex(np.linalg.eigvals(m.A))
        ok &= bool(np.all(np.abs(got - expected) <= 1e-9 * np.abs(expected)))
        ab = c.alpha * c.beta_pr
        ref = gas.R_s * gas.z_0 * gas.T_0 / params.L**2
        ok &= abs(ab - ref) <= 1e-12 * abs(ref)
    report(4, "pipe eigenvalues and alpha*beta closed forms (100 random sets)", ok)


def test_criterion_05_mason_equivalence(loop_spec, report):
    grid = analysis.log_grid(1e-3, 1e3, 20)
    devs = [analysis.mason_check(*netspec.elaborate(loop_spec), grid)]
    rng = np.random.default_rng(2026)
    for _ in range(50):
        spec = netspec.parse(random_network_text(rng))
        devs.append(analysis.mason_check(*netspec.elaborate(spec), grid))
    worst = max(devs)
    report(5, "closed model equals signal-flow-graph solution (51 networks)",
           worst < 1e-8, f"max dev={worst:.2e}")


def test_criterion_06_mass_conservation(pipe_params, op, gas, loop_model, report):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    G = analysis.dc_gain(m)
    ok_a = abs(G[1, 0]) < 1e-10 and abs(G[1, 1] - 1.0) < 1e-10

    j0 = (pipe_params, steady_state.isothermal_nominal(25e5, 20.0, gas.T_0,
                                                       pipe_params, gas))
    j1 = (pipe_params, steady_state.isothermal_nominal(25e5, 12.0, gas.T_0,
                                                       pipe_params, gas))
    j2 = (pipe_params, steady_state.isothermal_nominal(25e5, 8.0, gas.T_0,
                                                       pipe_params, gas))
    joint = composites.make_joint(j0, j1, j2, gas, check_nominal=False)
    Gj = analysis.dc_gain(joint.model)  # outputs [p0r, q1l, q2l]
    ok_b = abs(Gj[1, 2] + Gj[2, 2] - 1.0) < 1e-10

    q = flow_gains(loop_model)
    ok_c = True
    for total, parts in (("P3.l.q", ("P1.l.q", "P2.l.q")),
                         ("P5.l.q", ("P6.l.q", "P7.l.q")),
                         ("P8.l.q", ("P9.l.q", "P10.l.q"))):
        resid = np.abs(q[total] - q[parts[0]] - q[parts[1]]).max()
        ok_c &= bool(resid < 1e-9)

    report(6, "mass conservation in DC gains (pipe, joint, loop nodes)",
           ok_a and ok_b and ok_c, f"a={ok_a} b={ok_b} c={ok_c}")


def test_criterion_07_cascade_refinement(gas, ref_lambda, report):
    c = pn.speed_of_sound(gas)
    Ltot = 30.0
    ws = np.logspace(-3, np.log10(0.1 * c / Ltot), 60)

    def model(n):
        segs, p_l = [], 25e5
        for i in range(n):
            params = pn.PipeParams(L=Ltot / n, d=0.7, lam=ref_lambda)
            op = steady_state.isothermal_nominal(p_l, 21.0, gas.T_0, params, gas)
            segs.append((params, op))
            p_l = op.p_r_ss
        comp = composites.make_series(segs, gas,
                                      member_ids=tuple(f"S{i}" for i in range(n)))
        return analysis.freq_response(comp.model, ws).H

    H1 = model(1)
    worst = 0.0
    for n in (2, 3):
        Hn = model(n)
        worst = max(worst, float(np.max(np.abs(np.abs(Hn) - np.abs(H1))
                                        / np.abs(H1))))
    report(7, "series refinement leaves low-frequency response within 1%",
           worst < 0.01, f"max rel magnitude dev={worst:.4f}")


def test_criterion_08_2d_3d_consistency(ref_lambda, report):
    # flow block: with temperature dynamics frozen out (very large c_v)
    # the three-state model's leading block must reduce to the two-state one
    gas_big = pn.GasProperties(R_s=518.28, z_0=0.95, c_v=1e12,
                               T_0=300.0, T_amb=300.0)
    params = pn.PipeParams(L=10.0, d=0.7, lam=ref_lambda)
    op = steady_state.isothermal_nominal(25e5, 21.0, 300.0, params, gas_big)
    e2 = np.sort_complex(np.linalg.eigvals(
        pipe_dynamics.linearize_2d(params, op, gas_big).A))
    e3 = np.sort_complex(np.linalg.eigvals(
        pipe_dynamics.linearize_3d(params, op, gas_big).A[:2, :2]))
    ok_match = bool(np.all(np.abs(e3 - e2) <= 1e-6 * np.abs(e2)))

    # temperature mode: real and slower than the acoustic pair for a
    # transmission-scale line
    gas = pn.GasProperties(R_s=518.28, z_0=0.95, c_v=1700.0,
                           T_0=300.0, T_amb=300.0)
    params_long = pn.PipeParams(L=1000.0, d=0.7, lam=ref_lambda)
    op_long = steady_state.isothermal_nominal(25e5, 21.0, 300.0, params_long, gas)
    eigs = np.linalg.eigvals(pipe_dynamics.linearize_3d(params_long, op_long, gas).A)
    real_modes = eigs[np.abs(eigs.imag) < 1e-9 * np.abs(eigs).max()]
    osc_modes = eigs[np.abs(eigs.imag) >= 1e-9 * np.abs(eigs).max()]
    ok_temp = (len(real_modes) == 1 and len(osc_modes) == 2
               and abs(real_modes[0].real) < abs(osc_modes[0].real))

    report(8, "3-state model reduces to 2-state flow block; slow real heat mode",
           ok_match and ok_temp,
           f"lead dev ok={ok_match}, temp Re={real_modes[0].real:.5f} "
           f"vs osc Re={osc_modes[0].real:.5f}")


def test_criterion_09_quadratic_remainder(pipe_params, op, gas, report):
    m = pipe_dynamics.linearize_2d(pipe_params, op, gas)
    dt = 0.1 / np.abs(np.linalg.eigvals(m.A).imag).max()
    t = np.arange(0.0, 5.0, dt)
    x_ss = np.array([op.p_r_ss, op.q_ss])
    u_ss = np.array([op.p_l_ss, op.q_ss])

    def max_dev(eps):
        du = np.array([0.0, eps * op.q_ss])
        nl = simulate.simulate_nonlinear(simulate.pipe_rhs_2d(pipe_params, gas),
                                         t, u_ss + du, x_ss, ("p_r", "q_l"))
        lin = simulate.simulate_lti(m, t, du)
        return np.abs((nl.values - x_ss - lin.values) / x_ss).max()

    ratio = max_dev(0.02) / max_dev(0.01)
    report(9, "nonlinear-vs-linear deviation scales quadratically",
           3.2 <= ratio <= 4.8, f"ratio={ratio:.3f}")


def test_criterion_10_instability_in_compressor_sweep(loop_spec, report):
    ks = np.linspace(4.0, 100.0, 49)
    margins = analysis.stability_margin_sweep(loop_spec, "C", ks)
    report(10, "compressor gain sweep over [4, 100] reaches instability",
           bool(np.max(margins) >= 0.0),
           f"max margin={np.max(margins):.6f} over {len(ks)} gains")
