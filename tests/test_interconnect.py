import numpy as np
import pytest

import pipenet as pn
from pipenet import composites, interconnect, steady_state
from pipenet.errors import ConfigurationError

from conftest import random_pipe


@pytest.fixture
def two_pipes(gas, ref_lambda):
    params = pn.PipeParams(L=10.0, d=0.7, lam=ref_lambda)
    op1 = steady_state.isothermal_nominal(25e5, 21.0, gas.T_0, params, gas)
    op2 = steady_state.isothermal_nominal(op1.p_r_ss, 21.0, gas.T_0, params, gas)
    a = composites.make_pipe(params, op1, gas, "A")
    b = composites.make_pipe(params, op2, gas, "B")
    return a, b


def test_stack_is_block_diagonal(two_pipes):
    a, b = two_pipes
    stacked = interconnect.stack([a.model, b.model])
    m = stacked.model
    assert m.n_states == 4 and m.n_inputs == 4 and m.n_outputs == 4
    assert np.allclose(m.A[:2, 2:], 0.0) and np.allclose(m.A[2:, :2], 0.0)
    union = np.sort_complex(np.concatenate([np.linalg.eigvals(a.model.A),
                                            np.linalg.eigvals(b.model.A)]))
    assert np.allclose(np.sort_complex(np.linalg.eigvals(m.A)), union)
    assert stacked.component_boundaries[1].states == range(2, 4)


def test_build_fg_rows_sum_to_one(two_pipes):
    a, b = two_pipes
    stacked = interconnect.stack([a.model, b.model])
    conn = interconnect.build_FG(stacked, [(a.ports["r"], b.ports["l"])],
                                 [("u_p", a.ports["l"]), ("u_q", b.ports["r"])])
    FG = np.hstack([conn.F, conn.G])
    assert np.allclose(FG.sum(axis=1), 1.0)
    assert set(np.unique(FG)) <= {0.0, 1.0}


def test_link_expands_to_two_signals(two_pipes):
    a, b = two_pipes
    stacked = interconnect.stack([a.model, b.model])
    conn = interconnect.build_FG(stacked, [(a.ports["r"], b.ports["l"])],
                                 [("u_p", a.ports["l"]), ("u_q", b.ports["r"])])
    m = stacked.model
    # pressure forward: A.r.p -> B.l.p; flow backward: B.l.q -> A.r.q
    assert conn.F[m.input_index("B.l.p"), m.output_index("A.r.p")] == 1.0
    assert conn.F[m.input_index("A.r.q"), m.output_index("B.l.q")] == 1.0


def test_incompatible_flanges_rejected(two_pipes):
    a, b = two_pipes
    stacked = interconnect.stack([a.model, b.model])
    with pytest.raises(ConfigurationError, match="incompatible flanges"):
        interconnect.build_FG(stacked, [(a.ports["l"], b.ports["l"])], [])


def test_conflicting_drivers_rejected(two_pipes):
    a, b = two_pipes
    stacked = interconnect.stack([a.model, b.model])
    with pytest.raises(ConfigurationError, match="conflicting drivers"):
        interconnect.build_FG(stacked, [(a.ports["r"], b.ports["l"])],
                              [("u", b.ports["l"]),
                               ("u_p", a.ports["l"]), ("u_q", b.ports["r"])])


def test_unconnected_input_rejected(two_pipes):
    a, b = two_pipes
    stacked = interconnect.stack([a.model, b.model])
    with pytest.raises(ConfigurationError, match="unconnected component input"):
        interconnect.build_FG(stacked, [(a.ports["r"], b.ports["l"])],
                              [("u_p", a.ports["l"])])


def test_closure_matches_transfer_function_composition(two_pipes):
    a, b = two_pipes
    stacked = interconnect.stack([a.model, b.model])
    conn = interconnect.build_FG(stacked, [(a.ports["r"], b.ports["l"])],
                                 [("u_p", a.ports["l"]), ("u_q", b.ports["r"])])
    closed = interconnect.close(stacked, conn, ("u_p", "u_q"))
    assert closed.n_states == 4 and closed.n_inputs == 2 and closed.n_outputs == 4
    # spot-check at one complex frequency against the raw signal equations
    from pipenet.analysis import transfer_at
    s = 0.3 + 1.7j
    H = transfer_at(stacked.model, s)
    IQ = np.eye(4) - H @ conn.F
    H_ref = np.linalg.solve(IQ, H @ conn.G)
    assert np.allclose(transfer_at(closed, s), H_ref, rtol=1e-10, atol=1e-12)


def test_closure_relabeling_invariance(two_pipes):
    # eigenvalues must not depend on stacking order
    a, b = two_pipes
    def build(order, links, ext):
        stacked = interconnect.stack([c.model for c in order])
        conn = interconnect.build_FG(stacked, links, ext)
        return interconnect.close(stacked, conn)
    links = [(a.ports["r"], b.ports["l"])]
    ext = [("u_p", a.ports["l"]), ("u_q", b.ports["r"])]
    e1 = np.sort_complex(np.linalg.eigvals(build([a, b], links, ext).A))
    e2 = np.sort_complex(np.linalg.eigvals(build([b, a], links, ext).A))
    assert np.allclose(e1, e2)


def test_static_loop_well_posedness_guard():
    # two pure gains in a loop with product 1: algebraic loop is singular
    g1 = composites.make_gain(2.0, "G1")
    g2 = composites.make_gain(0.5, "G2")
    stacked = interconnect.stack([g1.model, g2.model])
    conn = interconnect.build_FG(stacked,
                                 [(g1.ports["r"], g2.ports["l"]),
                                  (g2.ports["r"], g1.ports["l"])], [])
    with pytest.raises(pn.NumericalError, match="algebraic loop"):
        interconnect.close(stacked, conn)


def test_select_outputs(two_pipes):
    a, b = two_pipes
    stacked = interconnect.stack([a.model, b.model])
    sel = interconnect.select_outputs(stacked.model, ["B.l.q", "A.r.p"])
    assert [str(s) for s in sel.output_labels] == ["B.l.q", "A.r.p"]
    assert sel.C.shape == (2, 4)


def _explicit_close(stacked, conn):
    """The interconnection formula of the module docstring, term by term."""
    m = stacked.model
    F, G = conn.F, conn.G
    M = np.linalg.inv(np.eye(m.n_outputs) - m.D @ F)
    return (m.A + m.B @ F @ M @ m.C,
            m.B @ (np.eye(m.n_inputs) + F @ M @ m.D) @ G,
            M @ m.C,
            M @ m.D @ G)


def test_close_matches_explicit_formula(oracle_specs):
    for spec in oracle_specs:
        stacked, conn = pn.elaborate(spec)
        closed = interconnect.close(stacked, conn)
        assert closed.state_labels == stacked.model.state_labels
        assert closed.output_labels == stacked.model.output_labels
        for got, ref in zip((closed.A, closed.B, closed.C, closed.D),
                            _explicit_close(stacked, conn)):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def _static_loop(a, b):
    # one static element y = D w, every output fed back to its input: I - D F = [[1, -a], [-b, 1]]
    D = np.array([[0.0, a], [b, 0.0]])
    model = pn.StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), D,
                               (), ("w1", "w2"), ("y1", "y2"))
    return (interconnect.StackedSystem(model, ()),
            interconnect.ConnectionMatrices(np.eye(2), np.zeros((2, 0))))


def test_static_loop_condition_threshold():
    with pytest.raises(pn.NumericalError, match="algebraic loop"):
        interconnect.close(*_static_loop(1.0, 1.0 + 1e-14))  # cond ~ 4e14
    closed = interconnect.close(*_static_loop(1.0, 1.0 + 1e-9))  # cond ~ 4e9
    assert closed.D.shape == (2, 0)


def test_label_lookup_errors(two_pipes):
    a, b = two_pipes
    stacked = interconnect.stack([a.model, b.model])
    with pytest.raises(ConfigurationError, match="unknown output label 'C.r.p'"):
        interconnect.select_outputs(stacked.model, ["A.r.p", "C.r.p"])
    with pytest.raises(ConfigurationError, match="unknown input label"):
        stacked.model.input_index("A.r.p")
    with pytest.raises(ConfigurationError, match="duplicate state labels"):
        interconnect.stack([a.model, a.model])
