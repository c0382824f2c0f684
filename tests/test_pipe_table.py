"""A sweep's (k, pipe) table equals its lanes taken one at a time, and the scalar path.

CompiledNetwork.spread carries the node pressures of K gain rows at once
and fill_spread fills all K system matrices with one node-rule fill;
every lane must be bit for bit what the one-row spread and fill, and the
one-pipe solves and linearizations behind them, give.
"""

import math

import numpy as np
import pytest

import pipenet as pn
from pipenet import analysis, composites, netspec, pipe_dynamics, steady_state
from pipenet.errors import NominalWarning, NumericalError

from test_build_errors import GAIN_BETWEEN


def gain_rows(net):
    """The declared gains, then each gain moved by +5 % and by -5 % in turn."""
    rows = [net.gains]
    for i in range(len(net.gains)):
        for f in (1.05, 0.95):
            rows.append(net.gains[:i] + (net.gains[i] * f,) + net.gains[i + 1:])
    return np.array(rows).reshape(len(rows), len(net.gains))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_lanes_equal_single_fills(oracle_specs):
    for spec in oracle_specs:
        net = netspec.CompiledNetwork(spec)
        rows = gain_rows(net)
        spread = net.spread(rows)
        A = net.fill_spread(spread)
        # every matrix of the node rule, and delta, from the same table
        rule, coef = net._closure[3], net._iso.at(spread.q, spread.p_l.T)
        stacks = rule.fill(coef, rows)
        assert same_bits(stacks[0], A)
        for lane, row in enumerate(rows):
            one = net.spread(row[None])
            assert same_bits(spread.p_l[:, lane], one.p_l[:, 0])
            assert same_bits(spread.p_r[:, lane], one.p_r[:, 0])
            assert spread.unmet_at(lane) == one.unmet_at(0)
            assert same_bits(A[lane], net.fill_spread(one)[0])
            for got, ref in zip(stacks, rule.fill(coef[lane:lane + 1], row[None])):
                assert same_bits(got[lane], ref[0])
            # the labelled one-lane model, filled from the operating points
            gains = tuple(row.tolist())
            model = net.model(net.steady_state(gains).ops, gains)
            for got, ref in zip(stacks, (model.A, model.B, model.C, model.D)):
                assert same_bits(got[lane], ref)


def test_table_coefficients_equal_iso_coefficients(oracle_specs):
    # the array expressions keep the operands and their order of the scalar ones
    for spec in oracle_specs:
        net = netspec.CompiledNetwork(spec)
        spread = net.spread(gain_rows(net))
        params = [net.params[pid] for pid in net.pipe_ids]
        table = pipe_dynamics.IsoTable(params, spec.gas).at(spread.q, spread.p_l.T)
        for lane in range(len(table)):
            ref = []
            for i, par in enumerate(params):
                op = pn.OperatingPoint(float(spread.p_l[i, lane]), float(spread.p_r[i, lane]),
                                       spread.q[i], spec.gas.T_0, spec.gas.T_0)
                c = pipe_dynamics.iso_coefficients(par, op, spec.gas)
                ref += [c.alpha, c.beta_pr, c.beta_pl, c.gamma]
            assert same_bits(table[lane], np.array(ref))


def test_table_coefficients_where_friction_dominates(gas):
    # beta_pl's friction term outweighs A_c/L here, so a p_l^2 rounded apart
    # from Python's p_l**2 (np.power squares) shows in the sum
    rng = np.random.default_rng(11)
    params = [pn.PipeParams(L=float(L), d=0.3, lam=0.03) for L in rng.uniform(500.0, 5000.0, 4)]
    q = rng.uniform(20.0, 60.0, 4)
    p_l = rng.uniform(1e5, 1e6, (2000, 4))
    table = pipe_dynamics.IsoTable(params, gas).at(q, p_l).reshape(2000, 4, 4)
    for lane, row in enumerate(p_l.tolist()):
        for i, par in enumerate(params):
            c = pipe_dynamics.iso_coefficients(
                par, pn.OperatingPoint(row[i], row[i], float(q[i]), gas.T_0, gas.T_0), gas)
            assert same_bits(table[lane, i], np.array([c.alpha, c.beta_pr, c.beta_pl, c.gamma]))


def test_steady_state_equals_chained_scalar_solves(oracle_specs):
    # the spread written out with the one-pipe API: isothermal_nominal along each step
    for spec in oracle_specs:
        net = netspec.CompiledNetwork(spec)
        starts, steps, n_nodes, owner, flows = net._program
        pressure = [0.0] * n_nodes
        for n, pl in starts:
            pressure[n] = pl
        ops, unmet = {}, []
        for name, gain, i, _, _, n, to, first in steps:
            if gain < 0:
                ops[name] = steady_state.isothermal_nominal(
                    pressure[n], flows[i], spec.gas.T_0, net.params[name], spec.gas)
                p_out = ops[name].p_r_ss
            else:
                p_out = net.gains[gain] * pressure[n]
            if first:
                pressure[to] = p_out
            elif not math.isclose(pressure[to], p_out, rel_tol=composites.NOMINAL_RTOL):
                unmet.append(netspec.UnmetConstraint(owner[name], f"{name}.r.p",
                                                     pressure[to], p_out))
        got = pn.network_steady_state(spec)
        assert list(got.ops) == list(ops)
        for pid, op in ops.items():
            assert np.array([*vars(got.ops[pid]).values()]).tobytes() == \
                np.array([*vars(op).values()]).tobytes()
        assert got.unmet == tuple(unmet)


BIG, TINY = 1e300, 5e-324
CLOSE_CASES = [
    (1.0, 1.0), (1.0, 1.0 + 1e-10), (1.0, 1.0 + 1e-9), (1.0, 1.0 + 2e-9), (1.0 + 1e-9, 1.0),
    # symmetric: the tolerance scales with the larger magnitude, not with b as np.isclose does
    (1.0, 1.0 - 1e-9), (1.0 - 1e-9, 1.0), (1e9, 1e9 + 1.0), (1e9 + 1.0, 1e9),
    # no absolute tolerance: np.isclose calls any two values within 1e-8 close
    (0.0, 1e-300), (0.0, 0.0), (0.0, -0.0), (1e-9, 2e-9), (TINY, 0.0),
    (math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan),
    (math.inf, math.inf), (math.inf, -math.inf), (math.inf, BIG), (BIG, -BIG), (-BIG, BIG),
    (25e5, 25e5 * (1.0 + 1e-9)), (25e5, 25e5 * (1.0 + 1.1e-9)),
]


def test_lane_check_keeps_math_isclose():
    a, b = (np.array(side) for side in zip(*CLOSE_CASES))
    ref = [math.isclose(x, y, rel_tol=composites.NOMINAL_RTOL) for x, y in CLOSE_CASES]
    assert netspec._isclose(a, b).tolist() == ref
    assert np.isclose(a, b, rtol=composites.NOMINAL_RTOL).tolist() != ref


@pytest.mark.parametrize("element, ks", [("C", np.linspace(4.0, 100.0, 13)),
                                         ("V", np.linspace(0.2, 2.0, 7))])
def test_sweep_in_chunks_of_one_k(loop_spec, monkeypatch, element, ks):
    with pytest.warns(NominalWarning) as one_chunk:
        margins = analysis.stability_margin_sweep(loop_spec, element, ks)
    monkeypatch.setattr(analysis, "_EIG_STACK_BYTES", 1)
    with pytest.warns(NominalWarning) as per_k:
        assert same_bits(analysis.stability_margin_sweep(loop_spec, element, ks), margins)
    assert [str(w.message) for w in per_k] == [str(w.message) for w in one_chunk]


def test_chunk_raises_the_first_failing_k(monkeypatch):
    # k = 1e13 fails in the fill (ill-posed), k = 1e-300 earlier in the spread
    # (B's inlet pressure underflows); one k at a time, 1e13 fails first
    spec = pn.parse(GAIN_BETWEEN)
    for bytes_ in (analysis._EIG_STACK_BYTES, 1):
        monkeypatch.setattr(analysis, "_EIG_STACK_BYTES", bytes_)
        with pytest.raises(NumericalError, match="ill-posed"):
            analysis.stability_margin_sweep(spec, "G", [1.0, 1e13, 1e-300])
        with pytest.raises(NumericalError, match="steady-state solve diverged"):
            analysis.stability_margin_sweep(spec, "G", [1.0, 1e-300, 1e13])


def test_steady_state_is_the_one_lane_spread(loop_spec):
    net = netspec.CompiledNetwork(loop_spec)
    gains = net.gains_with("C", 58.0)
    steady = net.steady_state(gains)
    spread = net.spread([gains])
    assert [net.pipe_ids[i] for i in spread.order] == list(steady.ops)
    assert steady.unmet == spread.unmet_at(0)
