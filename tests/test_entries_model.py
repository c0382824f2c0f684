"""The built model holds the node rule's entries; dense A and C are made on first read.

A model of NodeRule.model keeps the fill's values; its entries sum A's
values at their distinct positions and gather C from the outputs' reads.
Each field must be what ModelEntries scans from the dense fill, and the
A, B, C and D read from the model must be the fill's, bit for bit.
"""

import dataclasses
import os

import numpy as np
import pytest

import pipenet as pn
from pipenet import analysis, composites, core, netspec
from pipenet.core import ModelEntries

from conftest import chain_text, mesh_text

DEMO = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")

GAS = "gas Rs=518.28 z0=0.95 T0=300\n"
GAIN_ONLY = GAS + "gain G k=2\ninput a = G.l\ninput b = G.r\n"
# the gain chain's factor underflows: A's entry on B's flow row and C's row
# of H's pressure output sum to exact zeros (signed, as k < 0 for H)
UNDERFLOW = (GAS + "pipe A L=10 d=0.7 lambda=0.01\ngain G k=1e-200\ngain H k=-1e-200\n"
             "pipe B L=10 d=0.7 lambda=0.01\ngain K k=1e-200\ngain M k=1e-200\n"
             "nominal * pl=25e5 q=21\nlink A.r G.l\nlink G.r H.l\nlink H.r B.l\n"
             "link B.r K.l\nlink K.r M.l\ninput up = A.l\ninput uq = M.r\n")


@pytest.fixture(scope="module")
def specs(oracle_specs):
    return [*oracle_specs, pn.parse(mesh_text(25, np.random.default_rng(13))),
            pn.parse(chain_text(200, np.random.default_rng(13))), pn.load(DEMO),
            pn.parse(GAIN_ONLY), pn.parse(UNDERFLOW)]


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def dense_fill(spec):
    """The one-lane A, B, C and D that NodeRule.fill scatters for build_closed(spec)."""
    net = netspec.CompiledNetwork(spec)
    pipes = [pipe for _, members, _ in net.members_at() for pipe in members]
    stacks = net._closure[3].fill(composites.coefficient_row(pipes, spec.gas), [net.gains])
    return [m[0] for m in stacks[:4]]


def test_entries_equal_the_scan_of_the_dense_fill(specs):
    for spec in specs:
        A, _, C, _ = dense_fill(spec)
        got, ref = pn.build_closed(spec).entries, ModelEntries(A, C)
        for name in ("rows", "cols", "values", "c_cols", "c_factors"):
            assert same_bits(getattr(got, name), getattr(ref, name)), name
        for a in (got.rows, got.cols, got.values, got.c_cols, got.c_factors):
            assert a is None or not a.flags.writeable


def test_read_matrices_equal_the_dense_fill(specs):
    for spec in specs:
        model = pn.build_closed(spec)
        assert "A" not in model.__dict__ and "C" not in model.__dict__
        n, m, p = netspec.CompiledNetwork(spec).shape
        assert (model.n_states, model.n_inputs, model.n_outputs) == (n, m, p)
        assert "A" not in model.__dict__ and "C" not in model.__dict__
        for got, ref in zip((model.A, model.B, model.C, model.D), dense_fill(spec)):
            assert same_bits(got, ref)
        assert model.A is model.A and model.C is model.entries._dense_c()


def test_underflowed_factors_are_dropped():
    spec = pn.parse(UNDERFLOW)
    model = pn.build_closed(spec)
    A = model.A
    positions = len(netspec.CompiledNetwork(spec)._closure[3]._positions[0])
    assert np.count_nonzero(A) == len(model.entries.values) < positions
    for M in (A, model.C):
        assert not np.signbit(M[M == 0]).any()
    assert (model.C == 0).all(axis=1).any()  # M's pressure output reads B's state times 0


def test_bode_leaves_a_and_c_unmade():
    model = pn.build_closed(pn.parse(chain_text(200, np.random.default_rng(13))))
    analysis.freq_response(model, analysis.log_grid(1e-3, 1e3, 20))
    assert "A" not in model.__dict__ and "C" not in model.__dict__
    assert model.entries._C is None


def test_nonfinite_states_read_the_dense_c():
    model = pn.build_closed(pn.parse(chain_text(200, np.random.default_rng(13))))
    X = np.random.default_rng(0).standard_normal((3, model.n_states))
    X[0, 5], X[1, 0], X[2, -1] = np.inf, np.nan, -np.inf
    with np.errstate(invalid="ignore"):
        got = model.entries.outputs(X)
        assert same_bits(got, X @ model.C.T)


def test_compiled_model_passes_the_label_checks(monkeypatch):
    seen = []
    post_init = core.StateSpaceModel.__post_init__
    monkeypatch.setattr(core.StateSpaceModel, "__post_init__",
                        lambda self: seen.append(self) or post_init(self))
    model = pn.build_closed(pn.load(DEMO))
    assert seen == [model]
    assert model.state_index(model.state_labels[3]) == 3
    assert model.output_index(model.output_labels[-1]) == model.n_outputs - 1


def test_replace_derives_dense_entries():
    model = pn.build_closed(pn.load(DEMO))
    doubled = dataclasses.replace(model, A=2 * model.A)
    assert "entries" not in doubled.__dict__
    assert same_bits(doubled.entries.values, 2 * model.entries.values)
    assert same_bits(doubled.C, model.C)


def test_build_renders_each_distinct_label_once(monkeypatch):
    # on the chain the outputs of pipes are also state labels
    spec = pn.parse(chain_text(200, np.random.default_rng(1)))
    renders = []
    label_str = core.SignalLabel.__str__
    monkeypatch.setattr(core.SignalLabel, "__str__",
                        lambda lab: renders.append(None) or label_str(lab))
    model = pn.build_closed(spec)
    held = {id(lab) for labels in (model.state_labels, model.input_labels, model.output_labels)
            for lab in labels if isinstance(lab, core.SignalLabel)}
    assert len(renders) == len(held) < model.n_states + model.n_outputs


def test_duplicate_label_texts_are_kept():
    A, B, C, D = np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2), np.zeros((2, 1))
    lab = core.SignalLabel("P", "l", "q")
    with pytest.raises(pn.ConfigurationError,
                       match=r"duplicate state labels: \['P.l.q', 'P.l.q'\]"):
        core.StateSpaceModel(A, B, C, D, (lab, lab), ("u",), ("y0", "y1"))
    with pytest.raises(pn.ConfigurationError,
                       match=r"duplicate output labels: \['P.l.q', 'P.l.q'\]"):
        core.StateSpaceModel(A, B, C, D, ("x0", "x1"), ("u",),
                             (lab, core.SignalLabel.parse("P.l.q")))


def test_positions_equal_np_unique(specs):
    # the stable argsort gives np.unique's distinct positions and inverse
    for spec in specs:
        rule = netspec.CompiledNetwork(spec)._closure[3]
        flat, slots = np.unique(rule._patterns[0][1], return_inverse=True)
        rows, cols, got_slots = rule._positions
        assert same_bits(rows * max(rule.shape[0], 1) + cols, flat)
        assert same_bits(got_slots, slots.astype(np.intp))
