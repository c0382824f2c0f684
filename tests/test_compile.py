"""The build path compiles on integers and equals the label route it replaced.

CompiledNetwork._closure wires each input by port offset and places the
node rule's entries from one template per element kind and size; _table
takes the pipe coefficients from IsoTable. Each must give what the
label route gives: interconnect._drivers over rendered labels,
composites.element_signals' labels and composites.coefficient_row's
coefficients, bit for bit.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

import pipenet as pn
from pipenet import composites, core, interconnect, netspec
from pipenet.errors import ConfigurationError

from conftest import chain_text, declared_pipes, mesh_text

DEMO = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")


@pytest.fixture(scope="module")
def specs(oracle_specs):
    return [*oracle_specs, pn.parse(mesh_text(25, np.random.default_rng(13))),
            pn.parse(chain_text(200, np.random.default_rng(13))), pn.load(DEMO)]


def label_route(spec):
    """(states, outputs, drivers) of the closed network over labels and port tables."""
    signals = [composites.element_signals(el.kind, netspec._ids(el)) for el in spec.elements]
    states, inputs, outputs = ([lab for sig in signals for lab in sig[i]] for i in range(3))
    in_index = core.label_index(inputs, "input")
    out_index = core.label_index(outputs, "output")
    links, externals = netspec._wiring(spec, {el.name: sig[3]
                                              for el, sig in zip(spec.elements, signals)})
    drivers = interconnect._drivers(inputs, lambda lab: core._index_of(in_index, lab, "input"),
                                    lambda lab: core._index_of(out_index, lab, "output"),
                                    links, externals)
    return tuple(states), tuple(outputs), drivers


def test_integer_drivers_equal_label_route(specs, monkeypatch):
    seen = []

    class Spy(composites.NodeRule):
        def __init__(self, elements, drivers, n_external):
            seen.append(drivers)
            super().__init__(elements, drivers, n_external)

    monkeypatch.setattr(netspec, "NodeRule", Spy)
    for spec in specs:
        states, outputs, drivers = label_route(spec)
        seen.clear()
        got_states, names, got_outputs, _ = netspec.CompiledNetwork(spec)._closure
        assert seen == [drivers]
        assert got_states == states and got_outputs == outputs
        assert names == tuple(name for name, _ in spec.inputs)


def element_entries(elements):
    """A's own entries, the parallel pairs, each input's feed and each output's source.

    One element at a time, in the order NodeRule adds them: (row, column,
    coefficient column or -1 - two-feeder node, scale slot) entries; a
    feed is (row, coefficient column) or None for a gain's input; a source
    is (gain or -1, reads a state, state or the input it passes).
    """
    a, parallel, feeds, sources = [], [], [], []
    n_states = n_pipes = n_gains = 0
    for kind, n in elements:
        if kind == "gain":
            i = len(feeds)
            sources += [(n_gains, False, i), (-1, False, i + 1)]
            feeds += [None, None]
            n_gains += 1
            continue
        nodes, at, lefts, rights, _ = composites._layout(kind, n)
        s0, f0 = n_states, n_states + len(nodes)
        slot = [4 * (n_pipes + i) for i in range(n)]
        for k, (feeders, takers) in enumerate(nodes):
            if len(feeders) == 1:
                alpha = slot[feeders[0]]
            else:
                alpha = -1 - len(parallel)
                parallel.append([slot[i] for i in feeders])
            a += [(s0 + k, f0 + i, alpha, 0) for i in takers]
            a += [(s0 + k, f0 + i, alpha, 1) for i in feeders]
        for i in range(n):
            a.append((f0 + i, s0 + at["r", i], slot[i] + 1, 0))
            if ("l", i) in at:
                a.append((f0 + i, s0 + at["l", i], slot[i] + 2, 0))
            a.append((f0 + i, f0 + i, slot[i] + 3, 0))
        feeds += [(f0 + i, slot[i] + 2) for i in lefts]
        feeds += [(s0 + at["r", i], slot[i]) for i in rights]
        sources += [(-1, True, s0 + at["r", i]) for i in rights]
        sources += [(-1, True, f0 + i) for i in lefts]
        n_states, n_pipes = f0 + n, n_pipes + n
    return a, parallel, feeds, sources, n_states, 4 * n_pipes


def reference_patterns(elements, drivers, n_external):
    """Per matrix (flat positions, coefficient columns, scale slots); parallel pairs; shape."""
    a, parallel, feeds, sources, n_states, n_slots = element_entries(elements)

    def resolve(j):
        steps = []
        while True:
            gain, is_state, k = sources[j]
            steps.append(gain)
            if is_state:
                return tuple(steps), True, k
            kind, k = drivers[k]
            if kind == "u":
                return tuple(steps), False, k
            j = k

    resolved = [resolve(j) for j in range(len(sources))]
    chains = [steps for steps in dict.fromkeys(steps for steps, _, _ in resolved)
              if max(steps) >= 0]
    scale = {steps: 2 + c for c, steps in enumerate(chains)}
    b = []
    for (kind, k), feed in zip(drivers, feeds):
        if feed is not None:
            if kind == "u":
                b.append((feed[0], k, feed[1], 0))
            else:
                steps, on_state, k = resolved[k]
                (a if on_state else b).append((feed[0], k, feed[1], scale.get(steps, 0)))
    c = [(j, k, scale.get(steps, 0)) for j, (steps, on, k) in enumerate(resolved) if on]
    d = [(j, k, scale.get(steps, 0)) for j, (steps, on, k) in enumerate(resolved) if not on]
    out = []
    for entries, width, coefs in ((a, n_states, True), (b, n_external, True),
                                  (c, n_states, False), (d, n_external, False)):
        # C and D hold a factor alone; column 4 P + j is node j's parallel alpha
        cols = [s if s >= 0 else n_slots - 1 - s for _, _, s, _ in entries] if coefs else None
        out.append(([row * width + col for row, col, *_ in entries], cols,
                    [entry[-1] for entry in entries]))
    return out, parallel, (n_states, n_external, len(sources))


def test_templates_place_the_entries_in_order(specs, monkeypatch):
    # shared positions add in entry order, so the order is part of the bits
    seen = []

    class Spy(composites.NodeRule):
        def __init__(self, elements, drivers, n_external):
            seen.append((elements, drivers, n_external))
            super().__init__(elements, drivers, n_external)

    monkeypatch.setattr(netspec, "NodeRule", Spy)
    for spec in specs:
        seen.clear()
        rule = netspec.CompiledNetwork(spec)._closure[3]
        patterns, parallel, shape = reference_patterns(*seen[0])
        assert rule.shape == shape
        assert rule._parallel.T.tolist() == parallel
        for (_, flat, cols, scales), (ref_flat, ref_cols, ref_scales) in zip(rule._patterns,
                                                                           patterns):
            assert flat.tolist() == ref_flat and scales.tolist() == ref_scales
            assert (None if cols is None else cols.tolist()) == ref_cols


def test_fill_equals_coefficient_row(specs):
    for spec in specs:
        net = netspec.CompiledNetwork(spec)
        model = pn.build_closed(spec)
        pipes = list(declared_pipes(spec).values())
        ref = net._closure[3].fill(composites.coefficient_row(pipes, spec.gas), [net.gains])
        for got, want in zip((model.A, model.B, model.C, model.D), ref):
            assert got.shape == want[0].shape and got.tobytes() == want[0].tobytes()


def test_declared_exit_pressures_equal_isothermal_nominal(specs, monkeypatch):
    # the build solves each pipe's exit pressure on its held relation constants,
    # in pipe order; the one-pipe solve takes the declared nominal from scratch
    seen = []
    exit_pressure = netspec._exit_pressure
    monkeypatch.setattr(netspec, "_exit_pressure",
                        lambda *args: seen.append(exit_pressure(*args)) or seen[-1])
    for spec in specs:
        seen.clear()
        pn.build_closed(spec)
        p_r = np.array([op.p_r_ss for _, op in declared_pipes(spec).values()])
        assert np.array(seen).tobytes() == p_r.tobytes()


# two faults: a gain of k = 0, then a pipe with no nominal
ZERO_GAIN_NO_NOMINAL = ("gas Rs=518.28 z0=0.95 T0=300\ngain G k=0\n"
                        "pipe P1 L=10 d=0.7 lambda=0.01\n"
                        "link G.r P1.l\ninput up = G.l\ninput uq = P1.r\n")


@pytest.mark.parametrize("link, message", [  # links the parser would refuse, set on the spec
    (("P1", "l"), "no nominal point for pipe 'P1'"),
    (("P1", "r"),
     "incompatible flanges: link must connect a right flange to a left flange (got 'r'-'r')"),
    (("Q", "l"), "unknown element 'Q'"),
], ids=["nominal", "flanges", "element"])
def test_oracle_path_raises_the_builds_first_error(link, message):
    # the oracle path reads the links, the inputs and the nominals from the
    # compile, as the build does, before it makes any element
    spec = pn.parse(ZERO_GAIN_NO_NOMINAL)
    spec = replace(spec, links=((netspec.PortRef("G", "r"), netspec.PortRef(*link)),))
    for build in (pn.build_closed, pn.elaborate):
        with pytest.raises(ConfigurationError) as err:
            build(spec)
        assert str(err.value) == message


def test_build_renders_each_label_once(monkeypatch):
    # the build path looks nothing up by its rendered label: only the model's
    # own label index renders, once per label
    spec = pn.parse(chain_text(200, np.random.default_rng(1)))
    renders = []
    label_str = core.SignalLabel.__str__
    monkeypatch.setattr(core.SignalLabel, "__str__",
                        lambda lab: renders.append(None) or label_str(lab))
    model = pn.build_closed(spec)
    held = len(model.state_labels) + len(model.input_labels) + len(model.output_labels)
    assert 0 < len(renders) <= held
