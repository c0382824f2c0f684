"""Error texts of the build path and the sweep, from .pipenet text.

Each case goes through build_closed or stability_margin_sweep, so a
refactor of either keeps the message a user sees.
"""

import numpy as np
import pytest

import pipenet as pn
from pipenet import netspec, steady_state
from pipenet.errors import ConfigurationError

GAS = "gas Rs=518.28 z0=0.95 T0=300\n"


def pipes(*names):
    return "".join(f"pipe {n} L=10 d=0.7 lambda=0.01\n" for n in names)


JOINT = (GAS + pipes("P1", "P2", "P3") + "joint J feeds=[P1,P2] into=P3\n"
         "input a = J.l1\ninput b = J.l2\ninput c = J.r\n")
BRANCH = (GAS + pipes("P0", "P1", "P2") + "branch B from=P0 into=[P1,P2]\n"
          "input a = B.l\ninput b = B.r1\ninput c = B.r2\n")
SERIES = GAS + pipes("A", "B") + "series S pipes=[A,B]\ninput a = S.l\ninput b = S.r\n"
GAIN_AT_END = (GAS + pipes("P") + "gain G k=2\nnominal * pl=25e5 q=21\n"
               "link P.r G.l\ninput up = P.l\ninput uq = G.r\n")
GAIN_BETWEEN = (GAS + pipes("A") + "gain G k=2\n" + pipes("B") + "nominal * pl=25e5 q=21\n"
                "link A.r G.l\nlink G.r B.l\ninput up = A.l\ninput uq = B.r\n")


@pytest.mark.parametrize("text, message", [
    (SERIES + "nominal * pl=25e5 q=0\n", "composite requires positive nominal flow"),
    (JOINT + "nominal P1 pl=25e5 q=10\nnominal P2 pl=25e5 q=10\nnominal P3 pl=25e5 q=25\n",
     "inconsistent nominals: joint requires q0_ss = q1_ss + q2_ss"),
    (JOINT + "nominal P1 pl=25e5 q=10\nnominal P2 pl=30e5 q=10\nnominal P3 pl=25e5 q=20\n",
     "inconsistent nominals: joint requires p1_r_ss = p2_r_ss"),
    (BRANCH + "nominal P0 pl=25e5 q=20\nnominal P1 pl=25e5 q=10\nnominal P2 pl=25e5 q=5\n",
     "inconsistent nominals: branch requires q0_ss = q1_ss + q2_ss"),
    (SERIES + "nominal A pl=25e5 q=21\nnominal B pl=25e5 q=20\n",
     "inconsistent nominals: series requires equal flow"),
    (SERIES + "nominal A pl=25e5 q=21\nnominal B pl=30e5 q=21\n",
     "inconsistent nominals: series requires chained pressures"),
    (SERIES + "nominal A pl=25e5 q=21\n", "no nominal point for pipe 'B'"),
])
def test_build_closed_error_text(text, message):
    with pytest.raises(ConfigurationError) as err:
        pn.build_closed(pn.parse(text))
    assert str(err.value) == message


def test_default_nominal_skips_junction_checks():
    # a composite's junctions are checked only when each member has its own
    # nominal: with P3 on the '*' default, P1 and P2 may disagree in q and p_r
    spec = pn.parse(JOINT + "nominal * pl=25e5 q=20\nnominal P1 pl=25e5 q=10\n"
                            "nominal P2 pl=30e5 q=15\n")
    assert pn.build_closed(spec).A.shape == (5, 5)
    assert pn.elaborate(spec)[0].model.A.shape == (5, 5)


def test_sweep_to_zero_gain():
    spec = pn.parse(GAIN_AT_END)
    with pytest.raises(ConfigurationError) as err:
        pn.stability_margin_sweep(spec, "G", np.array([1.0, 0.0]))
    assert str(err.value) == "gain k must be nonzero"


@pytest.mark.parametrize("text", [GAIN_AT_END, GAIN_BETWEEN], ids=["at_end", "between"])
@pytest.mark.parametrize("k, message", [(0.0, "gain k must be nonzero"),
                                        (float("nan"), "gain k must be finite, got nan")],
                         ids=["zero", "nan"])
def test_sweep_checks_every_gain_before_solving(monkeypatch, text, k, message):
    # a bad k is one ConfigurationError wherever the gain sits, raised before any solve
    solves = []
    monkeypatch.setattr(steady_state, "_newton_root", lambda *args: solves.append(args))
    with pytest.raises(ConfigurationError) as err:
        pn.stability_margin_sweep(pn.parse(text), "G", np.array([1.0, 2.0, k]))
    assert str(err.value) == message
    assert solves == []


@pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
def test_non_finite_gain(k):
    spec = pn.parse(GAIN_AT_END.replace("k=2", f"k={k}"))
    message = f"gain k must be finite, got {float(k)!r}"
    with pytest.raises(ConfigurationError) as err:
        pn.build_closed(spec)
    assert str(err.value) == message
    net = pn.CompiledNetwork(pn.parse(GAIN_AT_END))
    with pytest.raises(ConfigurationError) as err:
        net.model(gains=(float(k),))
    assert str(err.value) == message
    with pytest.raises(ConfigurationError) as err:
        pn.stability_margin_sweep(pn.parse(GAIN_AT_END), "G", np.array([1.0, float(k)]))
    assert str(err.value) == message


def test_sweep_of_unknown_element():
    spec = pn.parse(GAIN_AT_END)
    with pytest.raises(ConfigurationError) as err:
        pn.stability_margin_sweep(spec, "K", np.array([1.0]))
    assert str(err.value) == "no gain element named 'K'"


def two_pipes(links, inputs, elements="AB"):
    """pipe A and pipe B as a NetworkSpec built directly, without parse."""
    pipes = {n: netspec.PipeDecl(n, L=10.0, d=0.7, lam=0.01) for n in "AB"}
    return netspec.NetworkSpec(pn.GasProperties(R_s=518.28, z_0=0.95, c_v=1700.0, T_0=300.0,
                                                T_amb=300.0),
                               pipes, tuple(pipes[n] for n in elements),
                               {"*": netspec.NominalDecl("*", 25e5, 21.0)}, links, inputs)


R = netspec.PortRef
LINK = ((R("A", "r"), R("B", "l")),)
INPUTS = (("up", R("A", "l")), ("uq", R("B", "r")))


@pytest.mark.parametrize("links, inputs, message", [
    (((R("A", "r"), R("C", "l")),), INPUTS, "unknown element 'C'"),
    (LINK, (("up", R("X", "l")), ("uq", R("B", "r"))), "unknown element 'X'"),
    (((R("A", "r2"), R("B", "l")),), INPUTS, "element 'A' has no port 'r2'"),
    (LINK, (("up", R("A", "l1")), ("uq", R("B", "r"))), "element 'A' has no port 'l1'"),
    (((R("B", "l"), R("A", "r")),), INPUTS,
     "incompatible flanges: link must connect a right flange to a left flange (got 'l'-'r')"),
    (((R("A", "r"), R("B", "r")),), INPUTS,
     "incompatible flanges: link must connect a right flange to a left flange (got 'r'-'r')"),
    (LINK, INPUTS + (("extra", R("B", "l")),), "conflicting drivers for B.l.p"),
    (LINK + ((R("A", "r"), R("B", "l")),), INPUTS, "conflicting drivers for B.l.p"),
    (LINK, INPUTS[:1], "unconnected component input B.r.q"),
    ((), INPUTS, "unconnected component input A.r.q"),
], ids=["link_element", "input_element", "link_port", "input_port", "left_to_right",
        "right_to_right", "input_on_link", "link_twice", "unconnected_input",
        "unconnected_link"])
def test_wiring_error_text(links, inputs, message):
    # the build path wires by port offset; the oracle path (elaborate) by port
    # labels: both give one text
    spec = two_pipes(links, inputs)
    for build in (pn.build_closed, pn.elaborate):
        with pytest.raises(ConfigurationError) as err:
            build(spec)
        assert str(err.value) == message


@pytest.mark.parametrize("links, inputs", [
    (((R("A", "r"), R("C", "l")),), INPUTS),
    (LINK, (("up", R("X", "l")), ("uq", R("B", "r")))),
    (((R("A", "r2"), R("B", "l")),), INPUTS),
    (LINK, (("up", R("A", "l1")), ("uq", R("B", "r")))),
    (((R("B", "l"), R("A", "r")),), INPUTS),
    (((R("A", "r"), R("B", "r")),), INPUTS),
], ids=["link_element", "input_element", "link_port", "input_port", "left_to_right",
        "right_to_right"])
def test_steady_state_wiring_error_text(links, inputs):
    # the steady state reads the ports the build reads: a bad element, port or
    # flange is the build's ConfigurationError, not a KeyError or a quiet return
    spec = two_pipes(links, inputs)
    with pytest.raises(ConfigurationError) as built:
        pn.build_closed(spec)
    with pytest.raises(ConfigurationError) as steady:
        pn.network_steady_state(spec)
    assert str(steady.value) == str(built.value)


def test_duplicate_element_error_text():
    # two elements named A: their input labels collide before any wiring
    with pytest.raises(ConfigurationError) as err:
        pn.build_closed(two_pipes(LINK, INPUTS, "AAB"))
    assert str(err.value) == ("duplicate input labels: "
                              "['A.l.p', 'A.r.q', 'A.l.p', 'A.r.q', 'B.l.p', 'B.r.q']")
