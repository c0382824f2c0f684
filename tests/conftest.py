import numpy as np
import pytest

import pipenet as pn
from pipenet import steady_state

LOOP_TEXT = """\
gas Rs=518.28 z0=0.95 T0=300

pipe P1 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
pipe P2 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
pipe P3 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
joint J feeds=[P1,P2] into=P3
gain C k=4
pipe P4 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
gain V k=0.8
pipe P5 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
pipe P6 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
pipe P7 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
branch B1 from=P5 into=[P6,P7]
pipe P8 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
pipe P9 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
pipe P10 L=10 d=0.7 eps=4.57e-5 Re=1.168e8
branch B2 from=P8 into=[P9,P10]

nominal * pl=25e5 q=21

link J.r C.l
link C.r P4.l
link P4.r V.l
link V.r B1.l
link B1.r2 B2.l
link B2.r2 J.l2

input fill = J.l1
input dist = B1.r1
input vent = B2.r1
"""


@pytest.fixture(scope="session")
def gas():
    return pn.GasProperties(R_s=518.28, z_0=0.95, c_v=1700.0,
                            T_0=300.0, T_amb=300.0)


@pytest.fixture(scope="session")
def ref_lambda():
    return pn.haaland_lambda(4.57e-5, 0.7, 1.168e8)


@pytest.fixture(scope="session")
def pipe_params(ref_lambda):
    return pn.PipeParams(L=10.0, d=0.7, lam=ref_lambda)


@pytest.fixture(scope="session")
def op(pipe_params, gas):
    return steady_state.isothermal_nominal(25e5, 21.0, gas.T_0, pipe_params, gas)


@pytest.fixture(scope="session")
def loop_spec():
    return pn.parse(LOOP_TEXT)


@pytest.fixture(scope="session")
def loop_model(loop_spec):
    return pn.build_closed(loop_spec)


def random_pipe(rng, gas):
    """Random but physically sane pipe and operating point."""
    params = pn.PipeParams(L=float(rng.uniform(5.0, 2000.0)),
                           d=float(rng.uniform(0.1, 1.0)),
                           lam=float(rng.uniform(0.005, 0.03)))
    p_l = float(rng.uniform(5e5, 80e5))
    q = float(rng.uniform(0.5, 30.0) * params.d**2)
    op_ = steady_state.isothermal_nominal(p_l, q, gas.T_0, params, gas)
    return params, op_


def random_network_text(rng):
    """A small well-posed network description, random topology and data."""
    def pipe_line(name):
        L = rng.uniform(5.0, 2000.0)
        d = rng.uniform(0.1, 1.0)
        lam = rng.uniform(0.005, 0.03)
        return f"pipe {name} L={L:.6g} d={d:.6g} lambda={lam:.6g}"

    lines = ["gas Rs=518.28 z0=0.95 T0=300"]
    if rng.random() < 0.5:
        # open chain of pipes, gains and series runs
        kinds = rng.choice(["pipe", "gain", "series"], size=rng.integers(1, 6))
        names = []
        for i, kind in enumerate(kinds):
            name = f"E{i}"
            if kind == "pipe":
                lines.append(pipe_line(name))
            elif kind == "gain":
                lines.append(f"gain {name} k={rng.uniform(0.5, 5.0):.4g}")
            else:
                lines.append(pipe_line(f"{name}a"))
                lines.append(pipe_line(f"{name}b"))
                lines.append(f"series {name} pipes=[{name}a,{name}b]")
            names.append(name)
        for a, b in zip(names, names[1:]):
            lines.append(f"link {a}.r {b}.l")
        lines.append(f"input up = {names[0]}.l")
        lines.append(f"input uq = {names[-1]}.r")
    else:
        # feedback loop: joint -> gain -> branch, one leg fed back
        for name in ("P1", "P2", "P3", "P5", "P6", "P7"):
            lines.append(pipe_line(name))
        lines.append("joint J feeds=[P1,P2] into=P3")
        lines.append(f"gain V k={rng.uniform(0.5, 5.0):.4g}")
        lines.append("branch B from=P5 into=[P6,P7]")
        lines.append("link J.r V.l")
        lines.append("link V.r B.l")
        lines.append("link B.r2 J.l2")
        lines.append("input fill = J.l1")
        lines.append("input draw = B.r1")
    lines.append(f"nominal * pl={rng.uniform(5e5, 80e5):.6g} "
                 f"q={rng.uniform(0.5, 5.0):.6g}")
    return "\n".join(lines) + "\n"


def chain_text(n_pipes, rng):
    """Pipes P0..P{n-1} in a row, with a compressor after every 20th pipe."""
    lines = ["gas Rs=518.28 z0=0.95 T0=300"]
    prev = None
    for i in range(n_pipes):
        lines.append(f"pipe P{i} L={rng.uniform(900.0, 1100.0):.6g} d=0.7 "
                     "eps=4.57e-5 Re=1.168e8")
        if prev is not None:
            lines.append(f"link {prev}.r P{i}.l")
        prev = f"P{i}"
        if (i + 1) % 20 == 0 and i + 1 < n_pipes:
            lines.append(f"gain K{i} k={rng.uniform(1.05, 1.25):.4g}")
            lines.append(f"link {prev}.r K{i}.l")
            prev = f"K{i}"
    lines += ["nominal * pl=50e5 q=30", "input supply = P0.l",
              f"input draw = P{n_pipes - 1}.r"]
    return "\n".join(lines) + "\n"


def mesh_text(n_diamonds, rng):
    """Diamonds D0..: branch B{i} -> two legs -> joint J{i} -> compressor K{i}."""
    lines, links = ["gas Rs=518.28 z0=0.95 T0=300"], []
    for i in range(n_diamonds):
        a, b, c, d, e, f = (f"P{i}{x}" for x in "abcdef")
        lines += [f"pipe {p} L={rng.uniform(900.0, 1100.0):.6g} d=0.7 eps=4.57e-5 Re=1.168e8"
                  for p in (a, b, c, d, e, f)]
        lines += [f"branch B{i} from={a} into=[{b},{c}]",
                  f"joint J{i} feeds=[{d},{e}] into={f}",
                  f"gain K{i} k={rng.uniform(1.0, 1.1):.4g}"]
        if i:
            links.append(f"link K{i - 1}.r B{i}.l")
        links += [f"link B{i}.r1 J{i}.l1", f"link B{i}.r2 J{i}.l2", f"link J{i}.r K{i}.l"]
    lines += ["nominal * pl=50e5 q=30", *links,
              "input supply = B0.l", f"input draw = K{n_diamonds - 1}.r"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def oracle_specs(loop_spec):
    """The loop, criterion 5's 50 random networks, a 200-pipe chain and a 10-diamond mesh."""
    rng = np.random.default_rng(2026)
    specs = [loop_spec] + [pn.parse(random_network_text(rng)) for _ in range(50)]
    return specs + [pn.parse(chain_text(200, np.random.default_rng(7))),
                    pn.parse(mesh_text(10, np.random.default_rng(5)))]
