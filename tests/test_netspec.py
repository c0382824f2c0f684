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


def test_output_statement_is_unknown():
    with pytest.raises(ParseError, match="unknown statement 'output'") as err:
        netspec.parse(MINI + "output y = P.r.p\n")
    assert err.value.line == 6


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


GAS = "gas Rs=518.28 z0=0.95 T0=300\n"
AB = "pipe A L=10 d=0.7 lambda=0.01\npipe B L=10 d=0.7 lambda=0.01\n"
ABC = AB + "pipe C L=10 d=0.7 lambda=0.01\n"


@pytest.mark.parametrize("text, line, fragment", [
    (GAS + GAS, 2, "duplicate gas block"),
    (GAS + "pipe\n", 2, "pipe needs a name"),
    (GAS + "gain\n", 2, "gain needs a name"),
    (GAS + ABC + "joint\n", 5, "joint needs a name"),
    (GAS + "nominal\n", 2, "nominal needs a target"),
    (GAS + "pipe 9P L=10 d=0.7\n", 2, "invalid identifier '9P'"),
    (GAS + "pipe P L=10\n", 2, "missing required key 'd'"),
    (GAS + "pipe P L=10 L=20 d=0.7\n", 2, "duplicate key 'L'"),
    (GAS + "pipe P L=10 d\n", 2, "expected key=value, got 'd'"),
    (GAS + ABC + "pipe D L=1 d=1\njoint J feeds=[A,B,D] into=C\n", 6,
     "feeds expects exactly 2 pipes"),
    (GAS + AB + "branch S from=A into=[B]\n", 4, "into expects exactly 2 pipes"),
    (GAS + AB + "series S pipes=A,B\n", 4, "pipes expects a bracketed list, got 'A,B'"),
    (GAS + AB + "series S pipes=[]\n", 4, "pipes list is empty"),
    (GAS + AB + "series S pipes=[A,Z]\n", 4, "unknown pipe 'Z'"),
    (GAS + ABC + "series S pipes=[A,B]\nseries T pipes=[C,A]\n", 6,
     "pipe 'A' already used by 'S'"),
    (GAS + AB + "series S pipes=[A]\nseries S pipes=[B]\n", 5, "duplicate element 'S'"),
    (GAS + AB + "nominal A pl=25e5 q=21\nnominal A pl=25e5 q=20\n", 5,
     "duplicate nominal for 'A'"),
    (GAS + AB + "link A.r\n", 4, "link takes exactly two ports"),
    (GAS + AB + "input up A.l\n", 4, "input statement needs <name> = <target>"),
    (GAS + AB + "input up = A.x\n", 4, "unknown port name 'x'"),
    (GAS + AB + "input up = A\n", 4, "expected <elem>.<port>, got 'A'"),
    (GAS + AB + "input up = A.l\ninput up = B.l\n", 5, "duplicate input 'up'"),
    (GAS + AB + "link A.r Z.l\n", 4, "unknown element 'Z'"),
    (GAS + AB + "input up = A.l2\n", 4, "element 'A' has no port 'l2'"),
    (GAS + "pipe P L=abc d=0.7\n", 2, "bad numeric value for L: 'abc'"),
    (GAS + "gain G k=2 m=3\n", 2, "unknown key 'm'"),
])
def test_parse_error_line_and_message(text, line, fragment):
    with pytest.raises(ParseError) as err:
        netspec.parse(text)
    assert err.value.line == line
    assert fragment in str(err.value)


EVERY_KEY = """\
gas Rs=518.28 z0=0.95 T0=300 cv=1650 Tamb=280
pipe A L=10 d=0.7 dout=0.72 eps=4.57e-5 dh=-3 Re=1.168e8 krad=2.5
pipe B L=12 d=0.6 eps=-0.0 lambda=0.012
pipe C L=14 d=0.5 lambda=0.013
joint J feeds=[A,B] into=C
pipe D L=9 d=0.4 lambda=0.014
pipe E L=8 d=0.4 lambda=0.015
pipe F L=7 d=0.4 lambda=0.016
branch S from=D into=[E,F]
gain K k=1.5
pipe G L=20 d=0.3 lambda=0.02
nominal A pl=30e5 q=10 Tl=290 Tr=285.5
nominal * pl=25e5 q=21
link J.r K.l
link K.r S.l
link S.r1 G.l
input a = J.l1
"""

EVERY_KEY_RENDERED = """\
gas Rs=518.28 z0=0.95 T0=300.0 cv=1650.0 Tamb=280.0
pipe A L=10.0 d=0.7 dout=0.72 eps=4.57e-05 dh=-3.0 Re=116800000.0 krad=2.5
pipe B L=12.0 d=0.6 lambda=0.012
pipe C L=14.0 d=0.5 lambda=0.013
joint J feeds=[A,B] into=C
pipe D L=9.0 d=0.4 lambda=0.014
pipe E L=8.0 d=0.4 lambda=0.015
pipe F L=7.0 d=0.4 lambda=0.016
branch S from=D into=[E,F]
gain K k=1.5
pipe G L=20.0 d=0.3 lambda=0.02
nominal * pl=2500000.0 q=21.0
nominal A pl=3000000.0 q=10.0 Tl=290.0 Tr=285.5
link J.r K.l
link K.r S.l
link S.r1 G.l
input a = J.l1
"""


def test_render_golden():
    spec = netspec.parse(EVERY_KEY)
    assert netspec.render(spec) == EVERY_KEY_RENDERED
    assert netspec.parse(EVERY_KEY_RENDERED) == spec


def test_render_roundtrip_oracle_specs(oracle_specs):
    for spec in oracle_specs:
        text = netspec.render(spec)
        assert netspec.parse(text) == spec
        assert netspec.render(netspec.parse(text)) == text
