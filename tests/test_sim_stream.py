"""`sim` streams its rows: the same bytes as the whole-array formula, in memory that does not grow.

The reference is the formula that held the whole trajectory: every state
of the ZOH recurrence in one array, then Y = X @ C.T + u @ D.T, printed by
csvfmt.table. The CLI and simulate_lti must give its bytes on grids
around the block height, with held and time-varying inputs.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

import pipenet as pn
from pipenet import cli, csvfmt, simulate

from conftest import chain_text, mesh_text, random_network_text

DEMO = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")
DT = 0.5


def _networks():
    """(name, text): the demo loop, a chain, a mesh and the random networks with a nonzero D."""
    with open(DEMO, encoding="utf-8") as fh:
        nets = [("loop", fh.read()), ("chain200", chain_text(200, np.random.default_rng(7))),
                ("mesh25", mesh_text(25, np.random.default_rng(7)))]
    rng = np.random.default_rng(2026)  # the random networks of oracle_specs
    for i in range(50):
        text = random_network_text(rng)
        if pn.build_closed(pn.parse(text)).D.any():
            nets.append((f"random{i}", text))
    return nets


NETWORKS = _networks()


def whole_array_outputs(model, t, u, x0=None):
    """Y = X @ C.T + u @ D.T over the whole trajectory X, from the model's dense matrices."""
    dense = dataclasses.replace(model)  # reads A and C: the ZOH takes the dense A
    Ad, Bd = simulate.zoh_discretize(dense, float(t[1] - t[0]))
    X = np.empty((len(t), dense.n_states))
    X[0] = 0.0 if x0 is None else x0
    for k in range(len(t) - 1):
        X[k + 1] = Ad @ X[k] + Bd @ u[k]
    return X @ dense.C.T + u @ dense.D.T


def block_height(model):
    """The number of rows in the first block of lti_rows."""
    t = np.arange(csvfmt.BLOCK_CELLS + 1) * DT
    return len(next(simulate.lti_rows(model, t, np.zeros(model.n_inputs))))


def write_inputs(path, labels, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(labels) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())


@pytest.mark.parametrize("name, text", NETWORKS, ids=[name for name, _ in NETWORKS])
def test_sim_bytes_equal_the_whole_array_formula(name, text, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PIPENET_PRECISION", "6")
    path = tmp_path / "net.pipenet"
    path.write_text(text, encoding="utf-8")
    model = pn.build_closed(pn.parse(text))
    labels = [str(s) for s in model.input_labels]
    header = ["t"] + [str(s) for s in model.output_labels]
    h = block_height(model)
    rng = np.random.default_rng(3)
    for rows in sorted({2, h - 1, h, h + 1, h + 2, h + 3, 2 * h + 1} - {1}):
        t = np.arange(rows) * DT
        scale = np.where([lab in ("fill", "supply") for lab in labels], 1e5, 1.0)
        for kind, u in (("held", rng.uniform(-2.0, 2.0, (1, len(labels))) * scale),
                        ("varying", rng.uniform(-2.0, 2.0, (rows, len(labels))) * scale)):
            write_inputs(tmp_path / "u.csv", labels, u)
            argv = ["sim", str(path), "--dt", repr(DT), "--T", repr((rows - 1) * DT),
                    "--inputs", str(tmp_path / "u.csv")]
            assert cli.main(argv) == 0
            got = capsys.readouterr().out.encode()
            Y = whole_array_outputs(model, t, np.broadcast_to(u, (rows, len(labels))))
            ref = b"".join(csvfmt.table(header, np.column_stack([t, Y]), 6))
            assert got == ref, f"{rows} rows, {kind} inputs"


@pytest.mark.parametrize("name, text", NETWORKS, ids=[name for name, _ in NETWORKS])
def test_simulate_lti_equals_the_whole_array_formula(name, text):
    model = pn.build_closed(pn.parse(text))
    h = block_height(model)
    rng = np.random.default_rng(5)
    for rows in sorted({2, h - 1, h, h + 1, 2 * h + 1} - {1}):
        t = np.arange(rows) * DT
        u = rng.uniform(-2.0, 2.0, (rows, model.n_inputs))
        x0 = rng.uniform(-1.0, 1.0, model.n_states)
        got = simulate.simulate_lti(model, t, u, x0).values
        assert got.tobytes() == whole_array_outputs(model, t, u, x0).tobytes(), rows


def test_sim_leaves_a_and_c_unmade():
    model = pn.build_closed(pn.parse(mesh_text(25, np.random.default_rng(7))))
    simulate.simulate_lti(model, np.arange(201) * DT, np.ones(model.n_inputs))
    assert "A" not in model.__dict__ and "C" not in model.__dict__


def test_errors_are_raised_before_the_first_block(loop_model):
    t = np.arange(10) * DT
    u = np.zeros((10, loop_model.n_inputs))
    u[-1, 0] = np.nan
    with pytest.raises(pn.ConfigurationError, match="inputs must be finite"):
        simulate.lti_rows(loop_model, t, u)
    with pytest.raises(pn.NumericalError, match="overflowed"):
        simulate.lti_rows(loop_model, np.array([0.0, 1e200]), np.zeros(loop_model.n_inputs))


def test_sim_memory_does_not_grow_with_the_horizon(tmp_path, monkeypatch):
    # a run 10x longer holds larger t and u arrays (8 bytes per step each and
    # per input) and nothing else that grows with the grid; small blocks keep
    # the blocks' own memory below what a temporary over the grid would add
    monkeypatch.setattr(csvfmt, "BLOCK_CELLS", 1024)
    m = pn.build_closed(pn.load(DEMO)).n_inputs
    out = str(tmp_path / "y.csv")

    def peak(steps):
        tracemalloc.start()
        try:
            assert cli.main(["sim", DEMO, "--dt", "0.05", "--T", repr(steps * 0.05), "-o", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # caches made on first use
    short, long = peak(2000), peak(20000)
    assert long - short <= 18000 * 8 * (1 + m) + 32 * 1024, (short, long)
