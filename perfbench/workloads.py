"""The three benchmark workloads: seeded inputs, one CLI job each, output checks.

Every input is made from the seed with the standard library's random, so
the same seed writes the same bytes. The seed moves only pipe lengths,
gains and step sizes within a few percent; the work a job does (network
size, grid size, row count) is fixed by the workload, so figures from
different seeds measure the same work.

Each workload has two checks. quick_check runs after every job on the CSV
the job wrote: header, row count, finite values. full_check runs outside
the timed jobs and compares the output against computations made apart
from the program's own closure, analysis and simulation code.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GAS = "gas Rs=518.28 z0=0.95 T0=300"
PIPE_KW = "eps=4.57e-5 Re=1.168e8"

# loop_sweep: the command of the demo loop's gain sweep
LOOP_K = (4.0, 100.0, 49)
# chain_bode: pipes, a compressor after every CHAIN_GAIN_EVERY pipes, grid
CHAIN_PIPES = 200
CHAIN_GAIN_EVERY = 20
CHAIN_GRID = (1e-8, 1e1, 20)
# mesh_sim: diamonds (branch -> two legs -> joint -> compressor), time grid
MESH_DIAMONDS = 25
MESH_DT = 0.5  # 500 s: the step reaches the far end of the mesh
MESH_STEPS = 1000

MASON_LIMIT = 1e-8


@dataclass(frozen=True)
class Inputs:
    """Files one workload writes for its jobs, plus what the checks need."""

    network: Path
    extra: dict


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: Callable[[Path, int], Inputs]
    argv: Callable[[Inputs, Path], list]
    quick_check: Callable[[Inputs, str, str], list]
    full_check: Callable[[Inputs, str, str], list]


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and body of one CLI CSV output."""
    first, _, body = text.partition("\n")
    return first.split(","), np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _shape_problems(text: str, header: list[str], n_rows: int) -> list[str]:
    try:
        got_header, data = read_csv(text)
    except ValueError as exc:
        return [f"body is not a table of numbers: {exc}"]
    problems = []
    if got_header != header:
        problems.append(f"header differs from the expected {len(header)} columns")
    if data.shape != (n_rows, len(header)):
        problems.append(f"body has shape {data.shape}, expected {(n_rows, len(header))}")
    elif not np.all(np.isfinite(data)):
        problems.append("body holds non-finite values")
    return problems


def _close(stacked, conn):
    """A, B, C, D of the closed network, by the interconnection formula."""
    m = stacked.model
    F, G = conn.F, conn.G
    M = np.linalg.inv(np.eye(m.n_outputs) - m.D @ F)
    A = m.A + m.B @ F @ M @ m.C
    B = m.B @ (np.eye(m.n_inputs) + F @ M @ m.D) @ G
    return A, B, M @ m.C, M @ m.D @ G


def _pipe(name, L, d=0.7):
    return f"pipe {name} L={L!r} d={d!r} {PIPE_KW}"


# ---------------------------------------------------------------- loop_sweep

def loop_text(lengths: list[float]) -> str:
    """The demo loop (joint J, compressor C, valve V, branches B1 and B2)."""
    P = [None] + [_pipe(f"P{i}", lengths[i - 1]) for i in range(1, 11)]
    return "\n".join([
        GAS, P[1], P[2], P[3], "joint J feeds=[P1,P2] into=P3", "gain C k=4",
        P[4], "gain V k=0.8", P[5], P[6], P[7], "branch B1 from=P5 into=[P6,P7]",
        P[8], P[9], P[10], "branch B2 from=P8 into=[P9,P10]",
        "nominal * pl=25e5 q=21",
        "link J.r C.l", "link C.r P4.l", "link P4.r V.l", "link V.r B1.l",
        "link B1.r2 B2.l", "link B2.r2 J.l2",
        "input fill = J.l1", "input dist = B1.r1", "input vent = B2.r1", ""])


def _loop_inputs(out: Path, seed: int) -> Inputs:
    rng = random.Random(seed)
    lengths = [round(10.0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)), 6) for _ in range(10)]
    path = out / "loop.pipenet"
    path.write_text(loop_text(lengths), encoding="utf-8")
    # one step beyond the fixed first, middle and last is drawn from the seed
    samples = sorted({0, LOOP_K[2] // 2, LOOP_K[2] - 1, rng.randrange(1, LOOP_K[2] - 1)})
    return Inputs(path, {"samples": samples})


def _loop_argv(inp: Inputs, csv: Path) -> list:
    kmin, kmax, n = LOOP_K
    return ["sweep", str(inp.network), "--element", "C", "--kmin", repr(kmin),
            "--kmax", repr(kmax), "--n", str(n), "-o", str(csv)]


def _loop_quick(inp: Inputs, text: str, stderr: str) -> list:
    problems = _shape_problems(text, ["k", "max_re"], LOOP_K[2])
    if problems:
        return problems
    _, data = read_csv(text)
    if not np.allclose(data[:, 0], np.linspace(*LOOP_K), rtol=1e-5, atol=0.0):
        problems.append("k column is not the requested grid")
    if "warning:" not in stderr or " J: " not in stderr:
        problems.append("no NominalWarning naming joint J on stderr")
    return problems


# steady-state flow identities of the loop at every node without an input:
# (pipe whose flow enters, pipes whose flows leave); gains pass flow through
LOOP_BALANCE = (("P1 P2", "P3"), ("P3", "P4"), ("P4", "P5"), ("P5", "P6 P7"),
                ("P7", "P8"), ("P8", "P9 P10"), ("P10", "P2"))


def _loop_full(inp: Inputs, text: str, stderr: str) -> list:
    from pipenet import analysis, netspec

    _, data = read_csv(text)
    problems = []
    if not data[0, 1] < 0.0:
        problems.append(f"margin at k={data[0, 0]:g} is {data[0, 1]:g}, not negative")
    spec = netspec.load(inp.network)
    omegas = np.logspace(-3, 3, 7)
    for i in inp.extra["samples"]:
        k, margin = data[i]
        varied = netspec.override_gain(spec, "C", k)
        steady = netspec.network_steady_state(varied)
        stacked, conn = netspec.elaborate(varied, steady)
        ref = np.linalg.eigvals(_close(stacked, conn)[0]).real.max()
        if not abs(margin - ref) <= 1e-5 * abs(ref) + 1e-12:
            problems.append(f"k={k:g}: margin {margin:g}, eigenvalues give {ref:.9g}")
        dev = analysis.mason_check(stacked, conn, omegas)
        if not dev < MASON_LIMIT:
            problems.append(f"k={k:g}: closed model differs from the flow graph by {dev:.2e}")
        ops = steady.ops
        if not math.isclose(ops["P4"].p_l_ss, k * ops["P3"].p_r_ss, rel_tol=1e-9):
            problems.append(f"k={k:g}: P4.p_l != k * P3.p_r")
        if not math.isclose(ops["P5"].p_l_ss, 0.8 * ops["P4"].p_r_ss, rel_tol=1e-9):
            problems.append(f"k={k:g}: P5.p_l != 0.8 * P4.p_r")
        for into, out in LOOP_BALANCE:
            q_in = sum(ops[p].q_ss for p in into.split())
            q_out = sum(ops[p].q_ss for p in out.split())
            if not math.isclose(q_in, q_out, rel_tol=1e-9):
                problems.append(f"k={k:g}: flow {into} -> {out} not balanced")
    return problems


# ---------------------------------------------------------------- chain_bode

def chain_text(lengths: list[float], gains: list[float]) -> str:
    """Pipes P0..P{n-1} in a row, compressor K{j} after every CHAIN_GAIN_EVERY pipes."""
    lines = [GAS]
    links, prev = [], None
    for i, L in enumerate(lengths):
        lines.append(_pipe(f"P{i}", L))
        if prev is not None:
            links.append(f"link {prev}.r P{i}.l")
        prev = f"P{i}"
        j, last = divmod(i + 1, CHAIN_GAIN_EVERY)
        if last == 0 and i + 1 < len(lengths):
            lines.append(f"gain K{j - 1} k={gains[j - 1]!r}")
            links.append(f"link {prev}.r K{j - 1}.l")
            prev = f"K{j - 1}"
    lines.append("nominal * pl=50e5 q=30")
    lines += links
    lines += ["input supply = P0.l", f"input draw = P{len(lengths) - 1}.r", ""]
    return "\n".join(lines)


def chain_outputs(n_pipes: int) -> list[str]:
    """Output labels of the chain, in declaration order."""
    out = []
    for i in range(n_pipes):
        out += [f"P{i}.r.p", f"P{i}.l.q"]
        j, last = divmod(i + 1, CHAIN_GAIN_EVERY)
        if last == 0 and i + 1 < n_pipes:
            out += [f"K{j - 1}.r.p", f"K{j - 1}.l.q"]
    return out


def _chain_inputs(out: Path, seed: int, n_pipes: int = CHAIN_PIPES) -> Inputs:
    rng = random.Random(seed)
    lengths = [round(rng.uniform(900.0, 1100.0), 3) for _ in range(n_pipes)]
    gains = [round(rng.uniform(1.05, 1.25), 4) for _ in range(n_pipes // CHAIN_GAIN_EVERY)]
    path = out / "chain.pipenet"
    path.write_text(chain_text(lengths, gains), encoding="utf-8")
    header = ["omega"]
    for o in chain_outputs(n_pipes):
        for i in ("supply", "draw"):
            header += [f"mag:{o}<-{i}", f"phase:{o}<-{i}"]
    return Inputs(path, {"header": header})


def _chain_argv(inp: Inputs, csv: Path) -> list:
    wmin, wmax, n = CHAIN_GRID
    return ["bode", str(inp.network), "--wmin", repr(wmin), "--wmax", repr(wmax),
            "--n", str(n), "-o", str(csv)]


def _chain_quick(inp: Inputs, text: str, stderr: str) -> list:
    return _shape_problems(text, inp.extra["header"], CHAIN_GRID[2])


def _chain_full(inp: Inputs, text: str, stderr: str) -> list:
    from pipenet import analysis, netspec

    _, data = read_csv(text)
    wmin, wmax, n_omega = CHAIN_GRID
    # the printed omegas carry 6 digits; near a resonance that moves the
    # response by more than the check's tolerance, so compare on the exact grid
    omegas = np.logspace(np.log10(wmin), np.log10(wmax), n_omega)
    problems = []
    if not np.allclose(data[:, 0], omegas, rtol=1e-5, atol=0.0):
        problems.append("omega column is not the requested grid")
    H_csv = data[:, 1::2] * np.exp(1j * data[:, 2::2])  # (n_omega, outputs * inputs)
    stacked, conn = netspec.elaborate(netspec.load(inp.network))
    m = stacked.model
    n = m.n_states
    for k, w in enumerate(omegas):
        # signal-flow-graph solution on the open stacked model, no closure
        H_open = m.C @ np.linalg.solve(1j * w * np.eye(n) - m.A, m.B.astype(complex)) + m.D
        H = np.linalg.solve(np.eye(m.n_outputs) - H_open @ conn.F, H_open @ conn.G).ravel()
        err = np.abs(H_csv[k] - H)
        if not np.all(err <= 5e-5 * np.abs(H) + 1e-9 * np.abs(H).max()):
            problems.append(f"omega={w:g}: response differs from the flow-graph "
                            f"solution by up to {err.max():.3g}")
    dev = analysis.mason_check(stacked, conn, omegas[::4])
    if not dev < MASON_LIMIT:
        problems.append(f"closed model differs from the flow graph by {dev:.2e}")
    # mass conservation: at the lowest frequency the inlet flow follows the draw
    col = inp.extra["header"].index("mag:P0.l.q<-draw")
    gain = data[0, col] * np.exp(1j * data[0, col + 1])
    if not abs(gain - 1.0) < 1e-3:
        problems.append(f"inlet flow follows the draw with gain {gain:.6g}, not 1")
    return problems


# ---------------------------------------------------------------- mesh_sim

def mesh_text(lengths: list[float], gains: list[float]) -> str:
    """Diamonds D0..: branch B{i} -> legs -> joint J{i} -> compressor K{i}."""
    lines, links = [GAS], []
    L = iter(lengths)
    for i in range(len(gains)):
        a, b, c, d, e, f = (f"P{i}{x}" for x in "abcdef")
        lines += [_pipe(a, next(L)), _pipe(b, next(L)), _pipe(c, next(L)),
                  f"branch B{i} from={a} into=[{b},{c}]",
                  _pipe(d, next(L)), _pipe(e, next(L)), _pipe(f, next(L)),
                  f"joint J{i} feeds=[{d},{e}] into={f}",
                  f"gain K{i} k={gains[i]!r}"]
        if i:
            links.append(f"link K{i - 1}.r B{i}.l")
        links += [f"link B{i}.r1 J{i}.l1", f"link B{i}.r2 J{i}.l2", f"link J{i}.r K{i}.l"]
    lines.append("nominal * pl=50e5 q=30")
    lines += links
    lines += ["input supply = B0.l", f"input draw = K{len(gains) - 1}.r", ""]
    return "\n".join(lines)


def mesh_outputs(n_diamonds: int) -> list[str]:
    out = []
    for i in range(n_diamonds):
        a, b, c, d, e, f = (f"P{i}{x}" for x in "abcdef")
        out += [f"{b}.r.p", f"{c}.r.p", f"{a}.l.q",
                f"{f}.r.p", f"{d}.l.q", f"{e}.l.q",
                f"K{i}.r.p", f"K{i}.l.q"]
    return out


def _mesh_inputs(out: Path, seed: int, n_diamonds: int = MESH_DIAMONDS) -> Inputs:
    rng = random.Random(seed)
    lengths = [round(rng.uniform(900.0, 1100.0), 3) for _ in range(6 * n_diamonds)]
    gains = [round(rng.uniform(1.0, 1.1), 4) for _ in range(n_diamonds)]
    path = out / "mesh.pipenet"
    path.write_text(mesh_text(lengths, gains), encoding="utf-8")
    u = {"supply": round(rng.uniform(0.5e5, 1.5e5), 1), "draw": round(rng.uniform(0.5, 2.0), 4)}
    step = out / "step.csv"
    step.write_text("supply,draw\n" + f"{u['supply']!r},{u['draw']!r}\n", encoding="utf-8")
    return Inputs(path, {"step": step, "u": np.array([u["supply"], u["draw"]]),
                         "header": ["t"] + mesh_outputs(n_diamonds)})


def _mesh_argv(inp: Inputs, csv: Path) -> list:
    T = MESH_DT * MESH_STEPS
    return ["sim", str(inp.network), "--dt", repr(MESH_DT), "--T", repr(T),
            "--inputs", str(inp.extra["step"]), "-o", str(csv)]


def _mesh_quick(inp: Inputs, text: str, stderr: str) -> list:
    return _shape_problems(text, inp.extra["header"], MESH_STEPS + 1)


def _mesh_full(inp: Inputs, text: str, stderr: str) -> list:
    from scipy.linalg import expm

    from pipenet import analysis, netspec

    _, data = read_csv(text)
    problems = []
    spec = netspec.load(inp.network)
    stacked, conn = netspec.elaborate(spec)
    A, B, C, D = _close(stacked, conn)
    u = inp.extra["u"]
    T = MESH_DT * MESH_STEPS
    if not math.isclose(data[-1, 0], T, rel_tol=1e-6):
        problems.append(f"last time is {data[-1, 0]:g}, not {T:g}")
    # step response from rest: x(T) = A^-1 (e^{AT} - I) B u, exact for a held input
    x = np.linalg.solve(A, (expm(A * T) - np.eye(len(A))) @ (B @ u))
    last = C @ x + D @ u
    # pressures and flows differ by 1e5 in size: each is compared on the
    # scale of its own kind in the last row
    kinds = np.array([label[-1] for label in inp.extra["header"][1:]])
    scale = np.zeros_like(last)
    for kind in set(kinds):
        scale[kinds == kind] = np.abs(last[kinds == kind]).max()
    for name, got, ref in (("first", data[0, 1:], D @ u), ("last", data[-1, 1:], last)):
        err = np.abs(got - ref) / (np.abs(ref) + 1e-3 * scale)
        if not err.max() < 2e-5:
            problems.append(f"{name} row differs from the exact step response by "
                            f"{err.max():.2e} (rel.) in {inp.extra['header'][1 + err.argmax()]}")
    dev = analysis.mason_check(stacked, conn, np.logspace(-3, 2, 6))
    if not dev < MASON_LIMIT:
        problems.append(f"closed model differs from the flow graph by {dev:.2e}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("loop_sweep", _loop_inputs, _loop_argv, _loop_quick, _loop_full),
    Workload("chain_bode", _chain_inputs, _chain_argv, _chain_quick, _chain_full),
    Workload("mesh_sim", _mesh_inputs, _mesh_argv, _mesh_quick, _mesh_full),
)}
