"""Each output check of the benchmark rejects a deliberately corrupted output.

    PYTHONPATH=src python -m pytest -q perfbench

The jobs run on the workloads' own generators at reduced sizes (a chain
of 40 pipes, a mesh of 2 diamonds) so the checks see real CLI output.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest

import workloads as W
from pipenet import analysis, cli, netspec


def run_job(wl, inp, tmp_path):
    csv = tmp_path / f"{wl.name}.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(wl.argv(inp, csv)) == 0
    return csv.read_text(encoding="utf-8"), err.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = {}
    for name, make in (("loop_sweep", W._loop_inputs),
                       ("chain_bode", lambda d, s: W._chain_inputs(d, s, n_pipes=40)),
                       ("mesh_sim", lambda d, s: W._mesh_inputs(d, s, n_diamonds=2))):
        tmp = tmp_path_factory.mktemp(name)
        wl = W.WORKLOADS[name]
        inp = make(tmp, 7)
        out[name] = (wl, inp, *run_job(wl, inp, tmp))
    return out


def edit_cell(text, row, col, fn):
    """Copy of a CSV text with body cell (row, col) replaced by fn(old text)."""
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = fn(cells[col])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def scaled(factor):
    return lambda cell: repr(float(cell) * factor)


def problems(outputs, name, text=None, stderr=None):
    wl, inp, good_text, good_stderr = outputs[name]
    text = good_text if text is None else text
    stderr = good_stderr if stderr is None else stderr
    return wl.quick_check(inp, text, stderr) + wl.full_check(inp, text, stderr)


def has(found, fragment):
    return any(fragment in p for p in found)


@pytest.mark.parametrize("name", ["loop_sweep", "chain_bode", "mesh_sim"])
def test_clean_output_passes(outputs, name):
    assert problems(outputs, name) == []


@pytest.mark.parametrize("name", ["loop_sweep", "chain_bode", "mesh_sim"])
def test_quick_check_rejects_broken_tables(outputs, name):
    wl, inp, text, stderr = outputs[name]
    header, _, body = text.partition("\n")
    renamed = header.replace(header.split(",")[1], "other", 1) + "\n" + body
    assert has(wl.quick_check(inp, renamed, stderr), "header")
    short = text.rstrip("\n").rsplit("\n", 1)[0] + "\n"
    assert has(wl.quick_check(inp, short, stderr), "shape")
    assert has(wl.quick_check(inp, edit_cell(text, 0, 1, lambda c: "nan"), stderr), "non-finite")
    ragged = edit_cell(text, 0, 1, lambda c: c + ",1")
    assert has(wl.quick_check(inp, ragged, stderr), "not a table")


def test_loop_checks(outputs, monkeypatch):
    wl, inp, text, stderr = outputs["loop_sweep"]
    assert has(problems(outputs, "loop_sweep", stderr=""), "NominalWarning")
    assert has(problems(outputs, "loop_sweep", text=edit_cell(text, 3, 0, scaled(1.01))),
               "k column")
    assert has(problems(outputs, "loop_sweep", text=edit_cell(text, 0, 1, scaled(-1.0))),
               "not negative")
    i = inp.extra["samples"][1]
    assert has(problems(outputs, "loop_sweep", text=edit_cell(text, i, 1, scaled(1.001))),
               "eigenvalues give")

    real = netspec.network_steady_state

    def unbalanced(spec):
        steady = real(spec)
        ops = dict(steady.ops, P8=replace(steady.ops["P8"], q_ss=steady.ops["P8"].q_ss * 1.1))
        return replace(steady, ops=ops)

    monkeypatch.setattr(netspec, "network_steady_state", unbalanced)
    assert has(problems(outputs, "loop_sweep"), "not balanced")

    def compressor_off(spec):
        steady = real(spec)
        ops = dict(steady.ops, P4=replace(steady.ops["P4"], p_l_ss=steady.ops["P4"].p_l_ss * 1.1))
        return replace(steady, ops=ops)

    monkeypatch.setattr(netspec, "network_steady_state", compressor_off)
    assert has(problems(outputs, "loop_sweep"), "k * P3.p_r")


def test_mason_checks_catch_a_wrong_closure(outputs, monkeypatch):
    real = analysis.close

    def skewed(stacked, conn, labels=None):
        model = real(stacked, conn, labels)
        return replace(model, A=model.A * (1.0 + 1e-6))

    monkeypatch.setattr(analysis, "close", skewed)
    for name in ("loop_sweep", "chain_bode", "mesh_sim"):
        assert has(problems(outputs, name), "differs from the flow graph by"), name


def test_chain_checks(outputs):
    wl, inp, text, stderr = outputs["chain_bode"]
    mag = inp.extra["header"].index("mag:P3.r.p<-supply")
    assert has(problems(outputs, "chain_bode", text=edit_cell(text, 10, mag, scaled(1.001))),
               "flow-graph solution")
    assert has(problems(outputs, "chain_bode", text=edit_cell(text, 10, mag + 1, scaled(1.01))),
               "flow-graph solution")
    assert has(problems(outputs, "chain_bode", text=edit_cell(text, 4, 0, scaled(1.01))),
               "omega column")
    draw = inp.extra["header"].index("mag:P0.l.q<-draw")
    assert has(problems(outputs, "chain_bode", text=edit_cell(text, 0, draw, scaled(0.99))),
               "inlet flow follows the draw")


def test_mesh_checks(outputs):
    wl, inp, text, stderr = outputs["mesh_sim"]
    last = len(text.rstrip("\n").split("\n")) - 2
    assert has(problems(outputs, "mesh_sim", text=edit_cell(text, last, 5, scaled(1.001))),
               "last row")
    k_flow = inp.extra["header"].index("K1.l.q")
    assert has(problems(outputs, "mesh_sim", text=edit_cell(text, 0, k_flow, scaled(1.01))),
               "first row")
    assert has(problems(outputs, "mesh_sim", text=edit_cell(text, last, 0, scaled(1.01))),
               "last time")
    assert not np.isclose(inp.extra["u"], 0.0).any()
