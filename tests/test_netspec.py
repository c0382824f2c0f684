import numpy as np
import pytest

import pipenet as pn
from pipenet import netspec
from pipenet.errors import ConfigurationError, ParseError

from conftest import LOOP_TEXT

MINI = """\
gas Rs=518.28 z0=0.95 T0=300
pipe P L=10 d=0.7 lambda=0.0111
nominal P pl=25e5 q=21
input up = P.l
input uq = P.r
"""


def test_parse_loop_counts(loop_spec):
    assert len(loop_spec.elements) == 6
    assert len(loop_spec.links) == 6
    assert len(loop_spec.inputs) == 3
    assert [name for name, _ in loop_spec.inputs] == ["fill", "dist", "vent"]
    assert len(loop_spec.pipes) == 10


def test_missing_gas_block():
    with pytest.raises(ParseError, match="no gas block"):
        netspec.parse("pipe P L=1 d=0.1 lambda=0.01\n")


def test_empty_file():
    with pytest.raises(ParseError, match="no gas block"):
        netspec.parse("")


def test_incompatible_flanges():
    bad = MINI.replace("input up = P.l\ninput uq = P.r\n",
                       "pipe Q L=10 d=0.7 lambda=0.0111\nlink P.l Q.l\n")
    with pytest.raises(ParseError, match="incompatible flanges"):
        netspec.parse(bad)


def test_consumed_pipe_not_linkable():
    text = LOOP_TEXT.replace("link J.r C.l", "link P3.r C.l")
    with pytest.raises(ParseError, match="belongs to"):
        netspec.parse(text)


def test_duplicate_element():
    text = MINI + "pipe P L=20 d=0.5 lambda=0.01\n"
    with pytest.raises(ParseError, match="duplicate element"):
        netspec.parse(text)


def test_unknown_statement_positioned():
    with pytest.raises(ParseError) as err:
        netspec.parse("gas Rs=1 z0=1 T0=300\nbogus X\n")
    assert err.value.line == 2


def test_unknown_key():
    with pytest.raises(ParseError, match="unknown key"):
        netspec.parse("gas Rs=1 z0=1 T0=300 color=red\n")


def test_bad_number():
    with pytest.raises(ParseError, match="bad numeric value"):
        netspec.parse("gas Rs=abc z0=1 T0=300\n")


def test_render_roundtrip(loop_spec):
    text = netspec.render(loop_spec)
    again = netspec.parse(text)
    assert again == loop_spec
    assert netspec.render(again) == text


def test_deterministic_elaboration(loop_spec):
    s1, c1 = netspec.elaborate(loop_spec)
    s2, c2 = netspec.elaborate(netspec.parse(LOOP_TEXT))
    assert np.array_equal(s1.model.A, s2.model.A)
    assert np.array_equal(c1.F, c2.F)
    assert np.array_equal(c1.G, c2.G)


def test_single_pipe_trivial_connection():
    spec = netspec.parse(MINI)
    stacked, conn = netspec.elaborate(spec)
    assert np.allclose(conn.F, 0.0)
    assert np.allclose(conn.G, np.eye(2))


def test_missing_external_reported():
    text = MINI.replace("input uq = P.r\n", "")
    spec = netspec.parse(text)
    with pytest.raises(ConfigurationError, match="unconnected component input"):
        netspec.elaborate(spec)


def test_loop_dimensions(loop_spec):
    stacked, conn = netspec.elaborate(loop_spec)
    assert stacked.model.n_states == 19
    assert conn.G.shape[1] == 3
    closed = pn.build_closed(loop_spec)
    assert closed.n_inputs == 3
    assert closed.n_outputs == 15


def test_wildcard_nominal_applies_everywhere(loop_spec):
    # all ten pipes share the wildcard operating point
    stacked, _ = netspec.elaborate(loop_spec)
    assert stacked.model.n_states == 19


def test_override_gain(loop_spec):
    varied = netspec.override_gain(loop_spec, "C", 7.5)
    names = {el.name: el for el in varied.elements}
    assert names["C"].k == 7.5
    assert names["V"].k == 0.8
    with pytest.raises(ConfigurationError):
        netspec.override_gain(loop_spec, "P4", 2.0)


def test_pipe_needs_friction_source():
    text = MINI.replace(" lambda=0.0111", "")
    spec = netspec.parse(text)
    with pytest.raises(ConfigurationError):
        netspec.elaborate(spec)


def test_comments_and_blanks_ignored():
    text = "# header\n\n" + MINI + "   # trailing comment line\n"
    spec = netspec.parse(text)
    assert len(spec.elements) == 1


@pytest.mark.parametrize("k", [4.0, 58.0])
def test_steady_state_follows_gain(loop_spec, k):
    steady = netspec.network_steady_state(netspec.override_gain(loop_spec, "C", k))
    ops = steady.ops
    assert ops["P4"].p_l_ss == pytest.approx(k * ops["P3"].p_r_ss, rel=1e-12)
    # links and junctions are pressure identities
    assert ops["P3"].p_l_ss == ops["P1"].p_r_ss
    assert ops["P2"].p_l_ss == ops["P10"].p_r_ss
    # flows balance at every node that carries no external input
    q = {pid: op.q_ss for pid, op in ops.items()}
    for total, parts in (("P3", ("P1", "P2")), ("P5", ("P6", "P7")),
                         ("P8", ("P9", "P10"))):
        assert q[total] == pytest.approx(q[parts[0]] + q[parts[1]], rel=1e-12)
    for a, b in (("P3", "P4"), ("P4", "P5"), ("P7", "P8"), ("P10", "P2")):
        assert q[a] == pytest.approx(q[b], rel=1e-12)
    # the ring's gains admit no steady state: the return leg meets J high
    assert [(u.element, u.signal) for u in steady.unmet] == [("J", "P2.r.p")]
    (u,) = steady.unmet
    assert u.node_value == ops["P1"].p_r_ss
    assert u.signal_value == ops["P2"].p_r_ss > u.node_value


def test_steady_state_keeps_balanced_flows():
    text = MINI.replace("pipe P L=10 d=0.7 lambda=0.0111\nnominal P pl=25e5 q=21\n",
                        "pipe A L=10 d=0.7 lambda=0.0111\n"
                        "pipe B L=10 d=0.7 lambda=0.0111\n"
                        "series P pipes=[A,B]\n"
                        "nominal A pl=25e5 q=21\n"
                        "nominal B pl=30e5 q=21\n")
    steady = netspec.network_steady_state(netspec.parse(text))
    a, b = steady.ops["A"], steady.ops["B"]
    assert a.q_ss == b.q_ss == 21.0
    assert a.p_l_ss == 25e5
    assert b.p_l_ss == a.p_r_ss  # propagated, not B's declared pl
    assert steady.unmet == ()


def test_nominal_of_unknown_pipe_positioned():
    text = MINI + "nominal Q9 pl=25e5 q=21\n"
    with pytest.raises(ParseError, match="nominal names unknown pipe 'Q9'") as err:
        netspec.parse(text)
    assert err.value.line == 6
