"""A network compiled once and refilled per gain equals one rebuilt from its text."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pipenet as pn
from pipenet import analysis, core, interconnect, netspec
from pipenet.errors import NominalWarning

GAIN_CHAIN_TEXT = """\
gas Rs=518.28 z0=0.95 T0=300
pipe A L=10 d=0.7 lambda=0.01
gain G1 k=1.5
gain G2 k=2
gain G3 k=0.7
pipe B L=12 d=0.7 lambda=0.01
nominal * pl=25e5 q=21
link A.r G1.l
link G1.r G2.l
link G2.r G3.l
link G3.r B.l
input up = A.l
input uq = B.r
"""


def test_refill_matches_rebuild(loop_spec):
    net = netspec.CompiledNetwork(loop_spec)
    names = tuple(name for name, _ in loop_spec.inputs)
    models = []
    for k in (4.0, 58.0, 100.0, 4.0):
        gains = net.gains_with("C", k)
        steady = net.steady_state(gains)
        got = net.model(steady.ops, gains)
        varied = netspec.override_gain(loop_spec, "C", k)
        ref_steady = netspec.network_steady_state(varied)
        assert steady == ref_steady
        ref = interconnect.close(*netspec.elaborate(varied, ref_steady), names)
        assert got.state_labels == ref.state_labels
        assert got.input_labels == ref.input_labels
        assert got.output_labels == ref.output_labels
        for a, b in zip((got.A, got.B, got.C, got.D), (ref.A, ref.B, ref.C, ref.D)):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
        models.append(got)
    first, again = models[0], models[-1]
    for a, b in zip((first.A, first.B, first.C, first.D), (again.A, again.B, again.C, again.D)):
        assert a.tobytes() == b.tobytes()


def margins_from_scratch(spec, element, ks):
    """The sweep written out: rebuild the description and its model at every k."""
    out = []
    for k in ks:
        varied = netspec.override_gain(spec, element, float(k))
        model = netspec.build_closed(varied, netspec.network_steady_state(varied))
        out.append(float(np.max(analysis.eigenvalues(model).real)))
    return np.array(out)


@pytest.mark.parametrize("text, element, ks", [
    ("loop", "C", np.linspace(4.0, 100.0, 13)),
    ("loop", "V", np.linspace(0.2, 2.0, 13)),
    (GAIN_CHAIN_TEXT, "G2", np.linspace(0.5, 3.0, 11)),
])
def test_sweep_equals_rebuild_per_gain(loop_spec, text, element, ks):
    spec = loop_spec if text == "loop" else pn.parse(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NominalWarning)
        got = analysis.stability_margin_sweep(spec, element, ks)
    assert np.array_equal(got, margins_from_scratch(spec, element, ks))


def test_sweep_in_stacks_of_one_equals_one_stack(loop_spec, monkeypatch):
    ks = np.linspace(4.0, 100.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NominalWarning)
        one_stack = analysis.stability_margin_sweep(loop_spec, "C", ks)
        monkeypatch.setattr(analysis, "_EIG_STACK_BYTES", 1)
        per_step = analysis.stability_margin_sweep(loop_spec, "C", ks)
    assert np.array_equal(one_stack, per_step)


def test_sweep_builds_no_labelled_model(loop_spec, monkeypatch):
    built = []
    init = core.StateSpaceModel.__post_init__
    monkeypatch.setattr(core.StateSpaceModel, "__post_init__",
                        lambda self: built.append(1) or init(self))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NominalWarning)
        analysis.stability_margin_sweep(loop_spec, "C", np.linspace(4.0, 100.0, 5))
    assert built == []


def test_sweep_of_no_gains_is_empty(loop_spec):
    got = analysis.stability_margin_sweep(loop_spec, "C", [])
    assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_sweep_warns_as_before(loop_spec):
    varied = netspec.override_gain(loop_spec, "C", 4.0)
    first = netspec.network_steady_state(varied).unmet[0]
    with pytest.warns(NominalWarning) as caught:
        analysis.stability_margin_sweep(loop_spec, "C", [4.0, 50.0])
    assert [str(w.message) for w in caught] == [
        f"unmet steady-state constraints at 2 of 2 values of C.k; first at k=4: {first}"]


def test_sweep_loads_numpy_only():
    # keeps loop_sweep free of scipy's import and memory
    src = os.path.dirname(os.path.dirname(pn.__file__))
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")
    code = ("import sys, warnings, numpy, pipenet; warnings.simplefilter('ignore'); "
            "pipenet.stability_margin_sweep(pipenet.load(sys.argv[1]), 'C', "
            "numpy.linspace(4.0, 100.0, 5)); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code, demo], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"
