import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import pipenet as pn
from pipenet import analysis, composites, interconnect, netspec, steady_state
from pipenet.errors import ConfigurationError

from conftest import declared_pipes, mesh_text, random_pipe


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


def test_build_closed_matches_close(oracle_specs):
    # the build path (assemble) against the oracle path, by default and gain-aware
    for spec in oracle_specs:
        for steady in (None, pn.network_steady_state(spec)):
            got = pn.build_closed(spec, steady)
            ref = interconnect.close(*pn.elaborate(spec, steady),
                                     tuple(name for name, _ in spec.inputs))
            assert got.state_labels == ref.state_labels
            assert got.input_labels == ref.input_labels
            assert got.output_labels == ref.output_labels
            for a, b in zip((got.A, got.B, got.C, got.D), (ref.A, ref.B, ref.C, ref.D)):
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def _make(el, pipes, gas):
    """The public constructor's model of one element declaration, nominal checks off."""
    if el.kind == "gain":
        return composites.make_gain(el.k, el.name)
    if el.kind == "pipe":
        return composites.make_pipe(*pipes[el.name], gas, el.name)
    members = [pipes[pid] for pid in el.members]
    if el.kind == "series":
        return composites.make_series(members, gas, el.members, check_nominal=False)
    make = composites.make_joint if el.kind == "joint" else composites.make_branch
    return make(*members, gas, el.members, check_nominal=False)


@pytest.mark.parametrize("at", ["declared", "steady_state"])
def test_oracle_elements_equal_the_public_constructors(oracle_specs, at):
    # build_elements fills each element from its slice of the build's pipe table;
    # make_* takes iso_coefficients pipe by pipe at the one-pipe API's operating points
    for spec in [*oracle_specs, pn.parse(mesh_text(25, np.random.default_rng(13)))]:
        if at == "declared":
            steady, pipes = None, declared_pipes(spec)
        else:
            steady = pn.network_steady_state(spec)
            pipes = {pid: (par, steady.ops[pid])
                     for pid, par in netspec.CompiledNetwork(spec).params.items()}
        elements = netspec.build_elements(spec, steady)
        assert len(elements) == len(spec.elements)
        for el, got in zip(spec.elements, elements):
            ref = _make(el, pipes, spec.gas)
            assert (got.kind, got.member_ids, got.ports) == (ref.kind, ref.member_ids, ref.ports)
            assert repr(got.delta) == repr(ref.delta)
            for name in ("A", "B", "C", "D"):
                a, b = getattr(got.model, name), getattr(ref.model, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (el.name, name)
            for name in ("state_labels", "input_labels", "output_labels"):
                assert getattr(got.model, name) == getattr(ref.model, name)


def test_mason_check_takes_the_build_path_model(loop_spec):
    stacked, conn = pn.elaborate(loop_spec)
    omegas = analysis.log_grid(1e-3, 1e3, 7)
    model = pn.build_closed(loop_spec)
    assert analysis.mason_check(stacked, conn, omegas, model) < 1e-8
    skewed = replace(model, A=model.A * (1.0 + 1e-6))
    assert analysis.mason_check(stacked, conn, omegas, skewed) > 1e-8


GAIN_RING_TEXT = """\
gas Rs=518.28 z0=0.95 T0=300
pipe P L=10 d=0.7 lambda=0.01
gain G1 k=2
gain G2 k=3
nominal * pl=25e5 q=21
link G1.r G2.l
link G2.r G1.l
input up = P.l
input uq = P.r
"""


def test_gain_ring_is_an_algebraic_loop():
    # the pressures around the ring gain 6, but the flows pass it with gain 1
    spec = pn.parse(GAIN_RING_TEXT)
    with pytest.raises(pn.NumericalError, match="algebraic loop"):
        pn.build_closed(spec)
    with pytest.raises(pn.NumericalError, match="algebraic loop"):
        interconnect.close(*pn.elaborate(spec))


def test_ill_conditioned_gain_chain_is_rejected_like_close():
    # two gains of 1e7 in a row: ||I - D F||_F ||(I - D F)^-1||_F ~ 1e21
    spec = pn.parse("""\
gas Rs=518.28 z0=0.95 T0=300
pipe P L=10 d=0.7 lambda=0.01
gain G1 k=1e7
gain G2 k=1e7
nominal * pl=25e5 q=21
link P.r G1.l
link G1.r G2.l
input up = P.l
input uq = G2.r
""")
    with pytest.raises(pn.NumericalError, match="algebraic loop"):
        pn.build_closed(spec)
    with pytest.raises(pn.NumericalError, match="algebraic loop"):
        interconnect.close(*pn.elaborate(spec))


TWO_PIPES_TEXT = """\
gas Rs=518.28 z0=0.95 T0=300
pipe A L=10 d=0.7 lambda=0.01
pipe B L=10 d=0.7 lambda=0.01
nominal * pl=25e5 q=21
link A.r B.l
input up = A.l
input uq = B.r
"""


@pytest.mark.parametrize("edit, message", [
    (lambda s: replace(s, links=((netspec.PortRef("B", "l"), netspec.PortRef("A", "r")),)),
     "incompatible flanges"),
    (lambda s: replace(s, inputs=s.inputs + (("extra", netspec.PortRef("B", "l")),)),
     "conflicting drivers"),
    (lambda s: replace(s, inputs=s.inputs[:1]), "unconnected component input"),
])
def test_build_closed_wiring_errors_match_build_fg(edit, message):
    spec = edit(pn.parse(TWO_PIPES_TEXT))
    with pytest.raises(ConfigurationError, match=message) as fast:
        pn.build_closed(spec)
    with pytest.raises(ConfigurationError) as oracle:
        pn.elaborate(spec)
    assert str(fast.value) == str(oracle.value)


@pytest.mark.parametrize("build", ["build_closed", "elaborate"])
def test_build_closed_loads_numpy_only(build):
    # keeps the loop sweep, and the oracle path's assembly, free of scipy's import and memory
    src = os.path.dirname(os.path.dirname(pn.__file__))
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")
    code = (f"import sys, pipenet; pipenet.{build}(pipenet.load(sys.argv[1])); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code, demo], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"
