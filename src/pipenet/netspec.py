"""Parser and elaborator for the `.pipenet` network description format.

The format is line oriented. `#` starts a comment, blank lines are
ignored, and each statement is one line:

    gas Rs=<f> z0=<f> T0=<f> [cv=<f>] [Tamb=<f>]
    pipe <id> L=<f> d=<f> [dout=<f>] [eps=<f>] [dh=<f>] [lambda=<f>] [Re=<f>] [krad=<f>]
    gain <id> k=<f>
    joint <id> feeds=[<idA>,<idB>] into=<idC>
    branch <id> from=<idA> into=[<idB>,<idC>]
    series <id> pipes=[<id1>,...]
    nominal <id|*> pl=<f> q=<f> [Tl=<f>] [Tr=<f>]
    link <elem>.<port> <elem>.<port>
    input <name> = <elem>.<port>
    output <name> = <signal-label>

Links name a right-flange port first and a left-flange port second.
Pipes consumed by a joint, branch or series are parameter donors only;
they are not elements and may not be linked directly. Element
declaration order determines state ordering, so identical files yield
identical matrices.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .composites import (JUNCTIONS, NOMINAL_RTOL, CompositeModel, make_branch, make_gain,
                         make_joint, make_pipe, make_series, port_ends)
from .core import GasProperties, OperatingPoint, PipeParams, SignalLabel
from .errors import ConfigurationError, ParseError
from .friction import resolve_lambda
# close stays importable here although nothing here calls it: perfbench/tracer.py wraps
# netspec.close, netspec.stack and netspec.build_FG by name
from .interconnect import (ConnectionMatrices, StackedSystem, assemble, build_FG,  # noqa: F401
                           close, stack)
from .steady_state import isothermal_nominal

_DEFAULT_CV = 1700.0

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class PipeDecl:
    name: str
    L: float
    d: float
    dout: float | None = None
    eps: float = 0.0
    dh: float = 0.0
    lam: float | None = None
    Re: float | None = None
    krad: float = 0.0


@dataclass(frozen=True)
class GainDecl:
    name: str
    k: float


@dataclass(frozen=True)
class JointDecl:
    name: str
    feeds: tuple[str, str]
    into: str


@dataclass(frozen=True)
class BranchDecl:
    name: str
    from_: str
    into: tuple[str, str]


@dataclass(frozen=True)
class SeriesDecl:
    name: str
    pipes: tuple[str, ...]


@dataclass(frozen=True)
class NominalDecl:
    target: str  # element id or '*'
    pl: float
    q: float
    Tl: float | None = None
    Tr: float | None = None


@dataclass(frozen=True)
class PortRef:
    element: str
    port: str

    def __str__(self):
        return f"{self.element}.{self.port}"


@dataclass(frozen=True)
class NetworkSpec:
    """Validated network description, ready for elaboration."""

    gas: GasProperties
    pipes: dict[str, PipeDecl]           # all pipe declarations, by name
    elements: tuple                      # stacked elements, declaration order
    nominals: dict[str, NominalDecl]     # per-id nominals; '*' is the default
    links: tuple[tuple[PortRef, PortRef], ...]
    inputs: tuple[tuple[str, PortRef], ...]
    outputs: tuple[tuple[str, str], ...]


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(tok: str, line: int, key: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"bad numeric value for {key}: {tok!r}", line) from None


def _parse_kv(tokens, line, allowed, required):
    """Parse key=value tokens into a dict, enforcing the allowed key set."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}", line)
        key, _, val = tok.partition("=")
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}", line)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line)
        out[key] = (val, line)
    for key in required:
        if key not in out:
            raise ParseError(f"missing required key {key!r}", line)
    return out


def _kv_float(kv, key, default=None):
    if key not in kv:
        return default
    val, line = kv[key]
    return _parse_float(val, line, key)


def _parse_id(tok: str, line: int) -> str:
    if not _ID_RE.match(tok):
        raise ParseError(f"invalid identifier {tok!r}", line)
    return tok


def _parse_id_list(val: str, line: int, key: str) -> tuple[str, ...]:
    if not (val.startswith("[") and val.endswith("]")):
        raise ParseError(f"{key} expects a bracketed list, got {val!r}", line)
    inner = val[1:-1]
    if not inner:
        raise ParseError(f"{key} list is empty", line)
    return tuple(_parse_id(part, line) for part in inner.split(","))


def _parse_portref(tok: str, line: int) -> PortRef:
    parts = tok.split(".")
    if len(parts) != 2:
        raise ParseError(f"expected <elem>.<port>, got {tok!r}", line)
    elem = _parse_id(parts[0], line)
    port = parts[1]
    if port[:1] not in ("l", "r"):
        raise ParseError(f"unknown port name {port!r}", line)
    return PortRef(elem, port)


def parse(text: str) -> NetworkSpec:
    """Parse a `.pipenet` document into a validated NetworkSpec."""
    gas_kv = None
    pipes: dict[str, PipeDecl] = {}
    elements = []
    element_names: dict[str, object] = {}
    nominals: dict[str, NominalDecl] = {}
    links = []
    inputs = []
    outputs = []
    consumed: dict[str, str] = {}  # pipe id -> consuming composite

    def declare(decl, line):
        if decl.name in element_names or decl.name in pipes:
            raise ParseError(f"duplicate element {decl.name!r}", line)
        element_names[decl.name] = decl
        elements.append(decl)

    def consume(pid, owner, line):
        decl = pipes.get(pid)
        if decl is None:
            raise ParseError(f"unknown pipe {pid!r}", line)
        if pid in consumed:
            raise ParseError(
                f"pipe {pid!r} already used by {consumed[pid]!r}", line)
        consumed[pid] = owner
        return decl

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        tokens = stmt.split()
        kind, args = tokens[0], tokens[1:]

        if kind == "gas":
            if gas_kv is not None:
                raise ParseError("duplicate gas block", lineno)
            gas_kv = _parse_kv(args, lineno, {"Rs", "z0", "T0", "cv", "Tamb"},
                               {"Rs", "z0", "T0"})
        elif kind == "pipe":
            if not args:
                raise ParseError("pipe needs a name", lineno)
            name = _parse_id(args[0], lineno)
            kv = _parse_kv(args[1:], lineno,
                           {"L", "d", "dout", "eps", "dh", "lambda", "Re", "krad"},
                           {"L", "d"})
            decl = PipeDecl(name, _kv_float(kv, "L"), _kv_float(kv, "d"),
                            dout=_kv_float(kv, "dout"),
                            eps=_kv_float(kv, "eps", 0.0),
                            dh=_kv_float(kv, "dh", 0.0),
                            lam=_kv_float(kv, "lambda"),
                            Re=_kv_float(kv, "Re"),
                            krad=_kv_float(kv, "krad", 0.0))
            declare(decl, lineno)
            pipes[name] = decl
        elif kind == "gain":
            if not args:
                raise ParseError("gain needs a name", lineno)
            name = _parse_id(args[0], lineno)
            kv = _parse_kv(args[1:], lineno, {"k"}, {"k"})
            decl = GainDecl(name, _kv_float(kv, "k"))
            declare(decl, lineno)
        elif kind == "joint":
            if not args:
                raise ParseError("joint needs a name", lineno)
            name = _parse_id(args[0], lineno)
            kv = _parse_kv(args[1:], lineno, {"feeds", "into"}, {"feeds", "into"})
            feeds = _parse_id_list(kv["feeds"][0], lineno, "feeds")
            if len(feeds) != 2:
                raise ParseError("joint feeds exactly two pipes", lineno)
            into = _parse_id(kv["into"][0], lineno)
            decl = JointDecl(name, feeds, into)
            declare(decl, lineno)
            for pid in (*feeds, into):
                consume(pid, name, lineno)
        elif kind == "branch":
            if not args:
                raise ParseError("branch needs a name", lineno)
            name = _parse_id(args[0], lineno)
            kv = _parse_kv(args[1:], lineno, {"from", "into"}, {"from", "into"})
            from_ = _parse_id(kv["from"][0], lineno)
            into = _parse_id_list(kv["into"][0], lineno, "into")
            if len(into) != 2:
                raise ParseError("branch splits into exactly two pipes", lineno)
            decl = BranchDecl(name, from_, into)
            declare(decl, lineno)
            for pid in (from_, *into):
                consume(pid, name, lineno)
        elif kind == "series":
            if not args:
                raise ParseError("series needs a name", lineno)
            name = _parse_id(args[0], lineno)
            kv = _parse_kv(args[1:], lineno, {"pipes"}, {"pipes"})
            members = _parse_id_list(kv["pipes"][0], lineno, "pipes")
            decl = SeriesDecl(name, members)
            declare(decl, lineno)
            for pid in members:
                consume(pid, name, lineno)
        elif kind == "nominal":
            if not args:
                raise ParseError("nominal needs a target", lineno)
            target = args[0]
            if target != "*":
                target = _parse_id(target, lineno)
            kv = _parse_kv(args[1:], lineno, {"pl", "q", "Tl", "Tr"}, {"pl", "q"})
            if target in nominals:
                raise ParseError(f"duplicate nominal for {target!r}", lineno)
            nominals[target] = NominalDecl(target, _kv_float(kv, "pl"),
                                           _kv_float(kv, "q"),
                                           Tl=_kv_float(kv, "Tl"),
                                           Tr=_kv_float(kv, "Tr"))
        elif kind == "link":
            if len(args) != 2:
                raise ParseError("link takes exactly two ports", lineno)
            a = _parse_portref(args[0], lineno)
            b = _parse_portref(args[1], lineno)
            if a.port[0] != "r" or b.port[0] != "l":
                raise ParseError(
                    "incompatible flanges: link is <right port> <left port>", lineno)
            links.append((a, b, lineno))
        elif kind in ("input", "output"):
            rest = stmt[len(kind):].strip()
            name, eq, value = rest.partition("=")
            name, value = name.strip(), value.strip()
            if not eq or not name or not value:
                raise ParseError(f"{kind} statement needs <name> = <target>", lineno)
            name = _parse_id(name, lineno)
            if kind == "input":
                inputs.append((name, _parse_portref(value, lineno), lineno))
            else:
                outputs.append((name, value, lineno))
        else:
            raise ParseError(f"unknown statement {kind!r}", lineno, column=1)

    if gas_kv is None:
        raise ParseError("no gas block")
    gkv = {k: _kv_float(gas_kv, k) for k in gas_kv}
    T0 = gkv["T0"]
    gas = GasProperties(R_s=gkv["Rs"], z_0=gkv["z0"],
                        c_v=gkv.get("cv", _DEFAULT_CV), T_0=T0,
                        T_amb=gkv.get("Tamb", T0))

    def check_portref(ref: PortRef, lineno: int):
        decl = element_names.get(ref.element)
        if decl is None:
            raise ParseError(f"unknown element {ref.element!r}", lineno)
        if isinstance(decl, PipeDecl) and ref.element in consumed:
            raise ParseError(
                f"pipe {ref.element!r} belongs to {consumed[ref.element]!r} "
                f"and may not be referenced directly", lineno)
        if ref.port not in _ends(decl):
            raise ParseError(
                f"element {ref.element!r} has no port {ref.port!r}", lineno)

    for a, b, lineno in links:
        check_portref(a, lineno)
        check_portref(b, lineno)
    seen_inputs = set()
    for name, ref, lineno in inputs:
        if name in seen_inputs:
            raise ParseError(f"duplicate input {name!r}", lineno)
        seen_inputs.add(name)
        check_portref(ref, lineno)
    for nom_target in nominals:
        if nom_target != "*" and nom_target not in pipes:
            raise ParseError(f"nominal names unknown pipe {nom_target!r}")

    # pipes consumed by a composite are parameter donors, not elements
    elements = [el for el in elements
                if not (isinstance(el, PipeDecl) and el.name in consumed)]

    return NetworkSpec(gas=gas, pipes=pipes, elements=tuple(elements),
                       nominals=nominals,
                       links=tuple((a, b) for a, b, _ in links),
                       inputs=tuple((n, r) for n, r, _ in inputs),
                       outputs=tuple((n, v) for n, v, _ in outputs))


def render(spec: NetworkSpec) -> str:
    """Canonical text form; parse(render(parse(t))) == parse(t)."""
    g = spec.gas
    lines = [f"gas Rs={_fmt(g.R_s)} z0={_fmt(g.z_0)} T0={_fmt(g.T_0)} "
             f"cv={_fmt(g.c_v)} Tamb={_fmt(g.T_amb)}"]
    emitted = set()

    def emit_pipe(p: PipeDecl):
        parts = [f"pipe {p.name} L={_fmt(p.L)} d={_fmt(p.d)}"]
        if p.dout is not None:
            parts.append(f"dout={_fmt(p.dout)}")
        if p.eps:
            parts.append(f"eps={_fmt(p.eps)}")
        if p.dh:
            parts.append(f"dh={_fmt(p.dh)}")
        if p.lam is not None:
            parts.append(f"lambda={_fmt(p.lam)}")
        if p.Re is not None:
            parts.append(f"Re={_fmt(p.Re)}")
        if p.krad:
            parts.append(f"krad={_fmt(p.krad)}")
        lines.append(" ".join(parts))
        emitted.add(p.name)

    for el in spec.elements:
        if isinstance(el, GainDecl):
            lines.append(f"gain {el.name} k={_fmt(el.k)}")
        elif isinstance(el, JointDecl):
            for pid in (*el.feeds, el.into):
                if pid not in emitted:
                    emit_pipe(spec.pipes[pid])
            lines.append(f"joint {el.name} feeds=[{','.join(el.feeds)}] into={el.into}")
        elif isinstance(el, BranchDecl):
            for pid in (el.from_, *el.into):
                if pid not in emitted:
                    emit_pipe(spec.pipes[pid])
            lines.append(f"branch {el.name} from={el.from_} into=[{','.join(el.into)}]")
        elif isinstance(el, SeriesDecl):
            for pid in el.pipes:
                if pid not in emitted:
                    emit_pipe(spec.pipes[pid])
            lines.append(f"series {el.name} pipes=[{','.join(el.pipes)}]")
        elif isinstance(el, PipeDecl):
            emit_pipe(el)
    for p in spec.pipes.values():
        if p.name not in emitted:
            emit_pipe(p)
    if "*" in spec.nominals:
        lines.append(_render_nominal(spec.nominals["*"]))
    for target in sorted(t for t in spec.nominals if t != "*"):
        lines.append(_render_nominal(spec.nominals[target]))
    for a, b in spec.links:
        lines.append(f"link {a} {b}")
    for name, ref in spec.inputs:
        lines.append(f"input {name} = {ref}")
    for name, label in spec.outputs:
        lines.append(f"output {name} = {label}")
    return "\n".join(lines) + "\n"


def _render_nominal(n: NominalDecl) -> str:
    parts = [f"nominal {n.target} pl={_fmt(n.pl)} q={_fmt(n.q)}"]
    if n.Tl is not None:
        parts.append(f"Tl={_fmt(n.Tl)}")
    if n.Tr is not None:
        parts.append(f"Tr={_fmt(n.Tr)}")
    return " ".join(parts)


def _pipe_params(decl: PipeDecl) -> PipeParams:
    params = PipeParams(L=decl.L, d=decl.d, d_out=decl.dout, eps=decl.eps,
                        h=decl.dh, lam=decl.lam, k_rad=decl.krad)
    return resolve_lambda(params, decl.Re)


def _nominal(spec: NetworkSpec, pid: str) -> tuple[NominalDecl, bool]:
    """Declared nominal of one pipe, and whether it names the pipe (not '*')."""
    nom = spec.nominals.get(pid)
    if nom is not None:
        return nom, True
    nom = spec.nominals.get("*")
    if nom is None:
        raise ConfigurationError(f"no nominal point for pipe {pid!r}")
    return nom, False


_KIND = {PipeDecl: "pipe", GainDecl: "gain", JointDecl: "joint", BranchDecl: "branch",
         SeriesDecl: "series"}


def _members(el) -> tuple[str, ...]:
    """Pipe ids inside one element, in the order its constructor takes them."""
    if isinstance(el, PipeDecl):
        return (el.name,)
    if isinstance(el, JointDecl):
        return (el.into, *el.feeds)
    if isinstance(el, BranchDecl):
        return (el.from_, *el.into)
    if isinstance(el, SeriesDecl):
        return el.pipes
    return ()


def _ends(el) -> dict[str, tuple[str, str]]:
    """Port name -> (pipe or gain id, flange) of one element."""
    return port_ends(_KIND[type(el)], _members(el) or (el.name,))


def _group(ends, joins) -> dict:
    """Number the classes of ends that the joins make equal (union-find)."""
    parent = {e: e for e in ends}

    def root(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for a, b in joins:
        parent[root(a)] = root(b)
    index: dict = {}
    return {e: index.setdefault(root(e), len(index)) for e in ends}


@dataclass(frozen=True)
class UnmetConstraint:
    """A steady-state identity that the declared data cannot satisfy.

    signal arrives at a node that already holds node_value from an earlier
    arrival, and brings signal_value; element owns the arriving signal.
    """

    element: str
    signal: str
    node_value: float
    signal_value: float

    def __str__(self):
        return (f"{self.element}: {self.signal} arrives at {self.signal_value:.6g}, "
                f"node holds {self.node_value:.6g}")


@dataclass(frozen=True)
class NetworkSteadyState:
    """Operating point of every pipe, plus the constraints they leave unmet."""

    ops: dict[str, OperatingPoint]
    unmet: tuple[UnmetConstraint, ...]


def network_steady_state(spec: NetworkSpec) -> NetworkSteadyState:
    """Gain-aware linearization points for every pipe of the network.

    A node is a class of pipe and gain ends held at one pressure: by a
    link (a pressure and a flow identity, see interconnect.build_FG) or by
    the junctions inside joints, branches and series.

    Flows: the declared nominal q of every pipe is projected onto mass
    balance at each node that carries no external input; a gain passes
    its flow through, so its two nodes balance as one. The projection is
    the least-squares nearest balanced flow vector, which fixes the free
    circulation of each loop. Declared flows that already balance are
    kept unchanged.

    Pressures: a pipe driven by a pressure input starts at its declared
    pl, in input order. Pressure then spreads breadth-first along the
    flow: a pipe maps its inlet pressure to exact_nominal_pr, a gain
    multiplies it by k, links and junctions pass it unchanged. A node
    keeps the first pressure that reaches it; a later arrival that
    differs (relative NOMINAL_RTOL) is returned as an UnmetConstraint at
    that node, so no link identity is broken to hide it. A pipe whose
    inlet nothing reaches (behind a gain at a pressure input, or in a
    ring without one) starts from its own declared pl. The declared pl
    of every other pipe is not used.

    Costs one steady-state solve per pipe.
    """
    ports = {el.name: _ends(el) for el in spec.elements}
    pipe_ids = [pid for el in spec.elements for pid in _members(el)]
    gains = [el for el in spec.elements if isinstance(el, GainDecl)]
    owner = {pid: el.name for el in spec.elements for pid in _members(el)}
    owner.update((g.name, g.name) for g in gains)
    ends = [(name, flange) for name in owner for flange in "lr"]

    def end(ref: PortRef):
        return ports[ref.element][ref.port]

    joins = [(end(a), end(b)) for a, b in spec.links]
    for el in spec.elements:  # each junction of a composite holds its ends at one pressure
        ids = _members(el)
        for feeders, takers in JUNCTIONS[_KIND[type(el)]](len(ids)):
            meet = [(ids[i], "r") for i in feeders] + [(ids[i], "l") for i in takers]
            joins += [(meet[0], e) for e in meet[1:]]
    node = _group(ends, joins)
    flow_node = _group(ends, joins + [((g.name, "l"), (g.name, "r")) for g in gains])

    declared = {pid: _nominal(spec, pid)[0] for pid in pipe_ids}
    q0 = np.array([declared[pid].q for pid in pipe_ids])
    boundary = {flow_node[end(ref)] for _, ref in spec.inputs}
    balanced = [n for n in sorted(set(flow_node.values())) if n not in boundary]
    row = {n: i for i, n in enumerate(balanced)}
    N = np.zeros((len(balanced), len(pipe_ids)))
    for j, pid in enumerate(pipe_ids):
        for flange, sign in (("l", -1.0), ("r", 1.0)):
            i = row.get(flow_node[(pid, flange)])
            if i is not None:
                N[i, j] += sign
    resid = N @ q0
    q = q0
    if np.any(np.abs(resid) > NOMINAL_RTOL * max(np.abs(q0).max(initial=0.0), 1.0)):
        q = q0 - np.linalg.lstsq(N, resid, rcond=None)[0]
    flow = dict(zip(pipe_ids, q.tolist()))

    leaving = {}  # node -> [(pipe or gain id, gain k or None for a pipe)]
    for pid in pipe_ids:
        leaving.setdefault(node[(pid, "l")], []).append((pid, None))
    for g in gains:
        leaving.setdefault(node[(g.name, "l")], []).append((g.name, g.k))

    pressure, ops, unmet = {}, {}, []

    def spread(start, p):
        pressure[start] = p
        queue = deque([start])
        while queue:
            n = queue.popleft()
            for name, k in leaving.get(n, ()):
                if k is None:
                    ops[name] = isothermal_nominal(pressure[n], flow[name], spec.gas.T_0,
                                                   _pipe_params(spec.pipes[name]), spec.gas)
                    p_out = ops[name].p_r_ss
                else:
                    p_out = k * pressure[n]
                to = node[(name, "r")]
                if to not in pressure:
                    pressure[to] = p_out
                    queue.append(to)
                elif not math.isclose(pressure[to], p_out, rel_tol=NOMINAL_RTOL):
                    unmet.append(UnmetConstraint(owner[name], str(SignalLabel(name, "r", "p")),
                                                 pressure[to], p_out))

    fed = [end(ref)[0] for _, ref in spec.inputs if ref.port[0] == "l"]
    for pid in fed + pipe_ids:  # pressure inputs first, then inlets nothing reached
        if pid in declared and pid not in ops:
            spread(node[(pid, "l")], declared[pid].pl)
    return NetworkSteadyState(ops, tuple(unmet))


def build_elements(spec: NetworkSpec,
                   steady: NetworkSteadyState | None = None) -> list[CompositeModel]:
    """Instantiate every element model in declaration order.

    With steady (from network_steady_state) every pipe is linearized at
    its gain-aware operating point; that pass reports the constraints it
    leaves unmet, so the composites' own nominal checks are off. Without
    it each pipe is linearized at its declared nominal, and a composite
    checks consistency only when each member has its own nominal
    statement ('*' defaults are not checked).
    """
    def member(pid):
        params = _pipe_params(spec.pipes[pid])
        if steady is not None:
            return (params, steady.ops[pid]), False
        nom, named = _nominal(spec, pid)
        op = isothermal_nominal(nom.pl, nom.q, spec.gas.T_0, params, spec.gas)
        return (params, op), named

    out = []
    for el in spec.elements:
        if isinstance(el, GainDecl):
            out.append(make_gain(el.k, el.name))
            continue
        ids = _members(el)
        pipes, named = zip(*(member(pid) for pid in ids))
        if isinstance(el, PipeDecl):
            out.append(make_pipe(*pipes[0], spec.gas, el.name))
        elif isinstance(el, JointDecl):
            out.append(make_joint(*pipes, spec.gas, member_ids=ids,
                                  check_nominal=all(named)))
        elif isinstance(el, BranchDecl):
            out.append(make_branch(*pipes, spec.gas, member_ids=ids,
                                   check_nominal=all(named)))
        elif isinstance(el, SeriesDecl):
            out.append(make_series(pipes, spec.gas, member_ids=ids,
                                   check_nominal=all(named)))
    return out


def _wiring(spec: NetworkSpec, composites: list[CompositeModel]):
    """Port pairs of the links and (name, port) of the external inputs."""
    by_name = {el.name: comp
               for el, comp in zip(spec.elements, composites)}

    def port(ref: PortRef):
        comp = by_name.get(ref.element)
        if comp is None:
            raise ConfigurationError(f"unknown element {ref.element!r}")
        try:
            return comp.ports[ref.port]
        except KeyError:
            raise ConfigurationError(
                f"element {ref.element!r} has no port {ref.port!r}") from None

    link_ports = [(port(a), port(b)) for a, b in spec.links]
    external_ports = [(name, port(ref)) for name, ref in spec.inputs]
    return link_ports, external_ports


def elaborate(spec: NetworkSpec, steady: NetworkSteadyState | None = None):
    """Build the stacked open-loop system and its connection matrices.

    This is the oracle path (interconnect.close, analysis.mason_check);
    build_closed does not use it. steady is passed on to build_elements.
    """
    composites = build_elements(spec, steady)
    stacked = stack([c.model for c in composites])
    conn = build_FG(stacked, *_wiring(spec, composites))
    return stacked, conn


def build_closed(spec: NetworkSpec, steady: NetworkSteadyState | None = None):
    """Build the element models and close them along their links into one labeled LTI model.

    interconnect.assemble does the closing; the model equals
    close(*elaborate(spec, steady)) with the inputs named. steady is passed
    on to build_elements.
    """
    composites = build_elements(spec, steady)
    return assemble([c.model for c in composites], *_wiring(spec, composites),
                    tuple(name for name, _ in spec.inputs))


def override_gain(spec: NetworkSpec, element_id: str, k: float) -> NetworkSpec:
    """Copy of spec with one gain element's k replaced."""
    new_elements = []
    found = False
    for el in spec.elements:
        if isinstance(el, GainDecl) and el.name == element_id:
            el = replace(el, k=k)
            found = True
        new_elements.append(el)
    if not found:
        raise ConfigurationError(f"no gain element named {element_id!r}")
    return replace(spec, elements=tuple(new_elements))


def load(path) -> NetworkSpec:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())
