import numpy as np
import pytest

import pipenet as pn
from pipenet import composites, interconnect, pipe_dynamics, steady_state
from pipenet.errors import ConfigurationError

from conftest import random_pipe


def member(gas, params, p_l, q):
    op = steady_state.isothermal_nominal(p_l, q, gas.T_0, params, gas)
    return params, op


def test_make_pipe_ports(pipe_params, op, gas):
    comp = composites.make_pipe(pipe_params, op, gas, "P1")
    assert comp.kind == "pipe"
    assert set(comp.ports) == {"l", "r"}
    assert comp.ports["l"].flange == "l"
    assert str(comp.ports["l"].input_label) == "P1.l.p"
    assert str(comp.ports["l"].output_label) == "P1.l.q"
    assert str(comp.ports["r"].input_label) == "P1.r.q"
    assert str(comp.ports["r"].output_label) == "P1.r.p"


def test_joint_shape_and_delta(pipe_params, gas):
    p0 = member(gas, pipe_params, 25e5, 20.0)
    p1 = member(gas, pipe_params, 25e5, 12.0)
    p2 = member(gas, pipe_params, 25e5, 8.0)
    comp = composites.make_joint(p0, p1, p2, gas, member_ids=("P0", "P1", "P2"),
                                 check_nominal=False)
    m = comp.model
    assert m.n_states == 5 and m.n_inputs == 3 and m.n_outputs == 3
    c1 = pipe_dynamics.iso_coefficients(*p1, gas)
    c2 = pipe_dynamics.iso_coefficients(*p2, gas)
    assert comp.delta == pytest.approx(c1.alpha / (c1.alpha + c2.alpha))
    # the reduced pressure row carries the parallel alpha combination
    a_parallel = c1.alpha * c2.alpha / (c1.alpha + c2.alpha)
    assert m.A[1, 2] == pytest.approx(a_parallel)
    assert m.A[1, 3] == pytest.approx(-a_parallel)
    assert m.A[1, 4] == pytest.approx(-a_parallel)
    assert [str(s) for s in m.output_labels] == ["P0.r.p", "P1.l.q", "P2.l.q"]
    assert set(comp.ports) == {"l1", "l2", "r"}


def test_joint_flow_consistency_enforced(pipe_params, gas):
    p0 = member(gas, pipe_params, 25e5, 30.0)
    p1 = member(gas, pipe_params, 25e5, 12.0)
    p2 = member(gas, pipe_params, 25e5, 8.0)
    with pytest.raises(ConfigurationError, match="inconsistent nominals"):
        composites.make_joint(p0, p1, p2, gas)


def test_joint_rejects_reverse_flow(pipe_params, gas):
    from pipenet import steady_state
    fwd = member(gas, pipe_params, 25e5, 20.0)
    op_rev = steady_state.isothermal_nominal(25e5, -12.0, gas.T_0, pipe_params, gas)
    with pytest.raises(ConfigurationError, match="positive nominal flow"):
        composites.make_joint(fwd, (pipe_params, op_rev), fwd, gas,
                              check_nominal=False)


def test_branch_shape(pipe_params, gas):
    p0 = member(gas, pipe_params, 25e5, 20.0)
    p1 = member(gas, pipe_params, 24e5, 12.0)
    p2 = member(gas, pipe_params, 24e5, 8.0)
    comp = composites.make_branch(p0, p1, p2, gas, member_ids=("P0", "P1", "P2"),
                                  check_nominal=False)
    m = comp.model
    assert m.n_states == 6 and m.n_inputs == 3 and m.n_outputs == 3
    assert [str(s) for s in m.input_labels] == ["P0.l.p", "P1.r.q", "P2.r.q"]
    assert [str(s) for s in m.output_labels] == ["P1.r.p", "P2.r.p", "P0.l.q"]
    assert set(comp.ports) == {"l", "r1", "r2"}


def test_series_single_pipe_reduces_to_pipe(pipe_params, op, gas):
    single = composites.make_pipe(pipe_params, op, gas, "S0")
    series = composites.make_series([(pipe_params, op)], gas, member_ids=("S0",))
    assert np.allclose(series.model.A, single.model.A)
    assert np.allclose(series.model.B, single.model.B)


def test_series_chained_structure(gas, ref_lambda):
    params = pn.PipeParams(L=10.0, d=0.7, lam=ref_lambda)
    segs = []
    p_l = 25e5
    for _ in range(3):
        op = steady_state.isothermal_nominal(p_l, 21.0, gas.T_0, params, gas)
        segs.append((params, op))
        p_l = op.p_r_ss
    comp = composites.make_series(segs, gas, member_ids=("A", "B", "C"))
    m = comp.model
    assert m.n_states == 6
    cs = [pipe_dynamics.iso_coefficients(par, op, gas) for par, op in segs]
    # pressure rows: -alpha_i on the diagonal, +alpha_i above it
    for i in range(3):
        assert m.A[i, 3 + i] == pytest.approx(-cs[i].alpha)
    assert m.A[0, 4] == pytest.approx(cs[0].alpha)
    assert m.A[1, 5] == pytest.approx(cs[1].alpha)
    # outputs select the last pressure state and the first flow state
    assert [str(s) for s in m.output_labels] == ["C.r.p", "A.l.q"]
    assert m.B[2, 1] == pytest.approx(cs[2].alpha)
    assert m.B[3, 0] == pytest.approx(cs[0].beta_pl)


def test_series_nominal_chain_enforced(pipe_params, gas):
    op1 = steady_state.isothermal_nominal(25e5, 21.0, gas.T_0, pipe_params, gas)
    op2 = steady_state.isothermal_nominal(25e5, 21.0, gas.T_0, pipe_params, gas)
    # second segment must start at the first segment's outlet pressure
    with pytest.raises(ConfigurationError, match="chained pressures"):
        composites.make_series([(pipe_params, op1), (pipe_params, op2)], gas)


def test_gain_static_model():
    comp = composites.make_gain(4.0, "C")
    m = comp.model
    assert m.n_states == 0
    assert np.allclose(m.D, [[4.0, 0.0], [0.0, 1.0]])
    assert [str(s) for s in m.input_labels] == ["C.l.p", "C.r.q"]
    assert [str(s) for s in m.output_labels] == ["C.r.p", "C.l.q"]


def test_gain_rejects_zero():
    with pytest.raises(ConfigurationError):
        composites.make_gain(0.0)


def test_composites_random_stability(gas):
    # every single-element model here is Hurwitz for positive flow
    rng = np.random.default_rng(3)
    for _ in range(10):
        params, op = random_pipe(rng, gas)
        comp = composites.make_pipe(params, op, gas)
        assert np.linalg.eigvals(comp.model.A).real.max() < 0.0


def _close_by_hand(pipes, ids, gas, feeds, externals):
    """Close member pipes through F built by hand.

    feeds maps an input label to the output labels summed into it; each
    external input drives one input label, in order.
    """
    stacked = interconnect.stack([pipe_dynamics.linearize_2d(par, op, gas, mid)
                                  for (par, op), mid in zip(pipes, ids)])
    m = stacked.model
    F = np.zeros((m.n_inputs, m.n_outputs))
    G = np.zeros((m.n_inputs, len(externals)))
    for dst, srcs in feeds.items():
        for src in srcs:
            F[m.input_index(dst), m.output_index(src)] = 1.0
    for j, lab in enumerate(externals):
        G[m.input_index(lab), j] = 1.0
    return interconnect.close(stacked, interconnect.ConnectionMatrices(F, G), tuple(externals))


def _assert_rel(X, Y, tol=1e-12):
    assert X.shape == Y.shape
    assert np.abs(X - Y).max(initial=0.0) <= tol * np.abs(Y).max(initial=0.0)


@pytest.mark.parametrize("kind", ["series", "branch"])
def test_node_rule_equals_interconnection(gas, kind):
    # the composite is the paper's interconnection of its member pipes,
    # with the states reordered; the branch's fan-out sums two flows into P0.r.q
    rng = np.random.default_rng(11)
    for _ in range(5):
        pipes = [random_pipe(rng, gas) for _ in range(3)]
        if kind == "series":
            ids = ("A", "B", "C")
            comp = composites.make_series(pipes, gas, member_ids=ids, check_nominal=False)
            feeds = {"B.l.p": ["A.r.p"], "A.r.q": ["B.l.q"],
                     "C.l.p": ["B.r.p"], "B.r.q": ["C.l.q"]}
            externals = ["A.l.p", "C.r.q"]
        else:
            ids = ("P0", "P1", "P2")
            comp = composites.make_branch(*pipes, gas, member_ids=ids, check_nominal=False)
            feeds = {"P1.l.p": ["P0.r.p"], "P2.l.p": ["P0.r.p"],
                     "P0.r.q": ["P1.l.q", "P2.l.q"]}
            externals = ["P0.l.p", "P1.r.q", "P2.r.q"]
        closed = _close_by_hand(pipes, ids, gas, feeds, externals)
        m = comp.model
        assert [str(s) for s in m.input_labels] == externals
        perm = [closed.state_index(s) for s in m.state_labels]
        rows = [closed.output_index(y) for y in m.output_labels]
        assert sorted(perm) == list(range(closed.n_states))
        _assert_rel(m.A, closed.A[np.ix_(perm, perm)])
        _assert_rel(m.B, closed.B[perm])
        _assert_rel(m.C, closed.C[np.ix_(rows, perm)])
        _assert_rel(m.D, closed.D[rows])
