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

One statement table drives parse and render: a NUMBERS row gives the
keys of pipe, gain and nominal (each takes a number), a COMPOSITES row
the keys of joint, branch and series (each takes pipe ids). Every
element declaration carries its kind and its member pipes, which is
all the element dispatch reads. Outputs are not declared in the text;
`pipenet build --select` chooses them.

Links name a right-flange port first and a left-flange port second.
Pipes consumed by a joint, branch or series are parameter donors only;
they are not elements and may not be linked directly. Element
declaration order determines state ordering, so identical files yield
identical matrices.

The parser takes each statement in one pass over its tokens (a port
reference is one regular-expression match) and re-reads a malformed
statement only to raise its errors in their order.

A parsed description is compiled once (CompiledNetwork), on integers:
each element's inputs and outputs are numbered after those of the
elements before it, and a port names its member position and its input
and output index within its element (composites.port_index). The pipe
table is a set of columns, on one route: one pass over the pipe
declarations gives every pipe's friction factor and A_c as arrays
(_pipe_columns), screened by the one rule for a valid pipe
(core.PIPE_RULES), and from them the relation constants and the
IsoTable; no path makes a PipeParams. The compile resolves and checks
each link and input end once, beside each pipe's declared nominal; the
node graph, the labels (from each element kind's cached plan) and the
node rule pattern (composites.NodeRule) are built from that, and no
label is looked up by its rendered text. Fills
evaluate the pattern from the pipe table (pipe_dynamics.IsoTable):
spread and fill_spread at K rows of gain values at once (a gain sweep,
one table per chunk), model at one operating point (build_closed,
network_steady_state). The oracle path (build_elements, elaborate;
interconnect.close, analysis.mason_check) takes the same one-point
table after the same checks (CompiledNetwork.checked_table) and fills
each element's own node rule from its slice. So the two routes share
the element data and the checks, and differ only in the
interconnection: the whole-network node rule against stack, build_FG
and close, which `pipenet mason` compares.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import deque, namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import core
from .composites import (NOMINAL_RTOL, CompositeModel, NodeRule, _assemble, _check_junctions,
                         _layout, check_flows, check_gain, input_labels, network_labels,
                         port_index)
# the make_* constructors stay importable here although nothing here calls them:
# perfbench/tracer.py wraps netspec.make_pipe, make_joint, make_branch, make_series
# and make_gain by name
from .composites import make_branch, make_gain, make_joint, make_pipe, make_series  # noqa: F401
from .core import PIPE_RULES, GasProperties, OperatingPoint, PipeParams, SignalLabel, StateSpaceModel
from .errors import ConfigurationError, DomainError, ParseError
from .friction import friction_factor
# close stays importable here although nothing here calls it: perfbench/tracer.py wraps
# netspec.close, netspec.stack and netspec.build_FG by name
from .interconnect import (ConnectionMatrices, StackedSystem, _check_flanges, build_FG,  # noqa: F401
                           close, stack, wire)
from .pipe_dynamics import IsoTable
# isothermal_nominal stays importable here although nothing here calls it:
# perfbench/tracer.py wraps netspec.isothermal_nominal by name
from .steady_state import exact_root, isothermal_nominal, relation_columns  # noqa: F401

_DEFAULT_CV = 1700.0

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# <elem>.<port>: an identifier, one dot, and a port name that starts with its flange
_PORT_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\.([lr][^.]*)\Z")


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

    kind = "pipe"  # every element declaration has a kind and its member pipe ids

    @property
    def members(self) -> tuple[str, ...]:
        return (self.name,)


@dataclass(frozen=True)
class GainDecl:
    name: str
    k: float

    kind = "gain"
    members = ()


@dataclass(frozen=True)
class NominalDecl:
    target: str  # element id or '*'
    pl: float
    q: float
    Tl: float | None = None
    Tr: float | None = None


# keyword -> (declaration class, text key -> field in text order, required keys)
NUMBERS = {
    "pipe": (PipeDecl, {"L": "L", "d": "d", "dout": "dout", "eps": "eps", "dh": "dh",
                        "lambda": "lam", "Re": "Re", "krad": "krad"}, ("L", "d")),
    "gain": (GainDecl, {"k": "k"}, ("k",)),
    "nominal": (NominalDecl, {"pl": "pl", "q": "q", "Tl": "Tl", "Tr": "Tr"}, ("pl", "q")),
}

# keyword -> (text key -> pipe count in text order, 0 for any; the keys in the
# member order that make_<keyword> takes). A key of count 1 takes a bare id,
# any other a bracketed list.
COMPOSITES = {
    "joint": ({"feeds": 2, "into": 1}, ("into", "feeds")),
    "branch": ({"from": 1, "into": 2}, ("from", "into")),
    "series": ({"pipes": 0}, ("pipes",)),
}


@dataclass(frozen=True)
class CompositeDecl:
    kind: str                            # a COMPOSITES keyword
    name: str
    pipes: tuple[tuple[str, ...], ...]   # pipe ids of each key, in text order

    @cached_property  # read by each pass of the compile
    def members(self) -> tuple[str, ...]:
        """Pipe ids in the order make_<kind> takes them."""
        counts, order = COMPOSITES[self.kind]
        by_key = dict(zip(counts, self.pipes))
        return tuple(pid for key in order for pid in by_key[key])


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
        out[key] = val
    for key in required:
        if key not in out:
            raise ParseError(f"missing required key {key!r}", line)
    return out


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
    match = _PORT_RE.match(tok)
    if match is not None:
        return PortRef(*match.groups())
    elem, dot, port = tok.partition(".")
    if not dot or "." in port:
        raise ParseError(f"expected <elem>.<port>, got {tok!r}", line)
    _parse_id(elem, line)
    raise ParseError(f"unknown port name {port!r}", line)


def _parse_numbers(kind: str, name: str, args, line: int):
    """The declaration of one NUMBERS statement, from its key=value tokens.

    One pass takes each token's number. A statement that pass does not
    take is read again by the checked path, which raises its errors in
    their order: its keys (_parse_kv), then its values in the row's key
    order.
    """
    cls, keys, required = NUMBERS[kind]
    values = {}
    for tok in args:
        key, eq, val = tok.partition("=")
        field = keys.get(key)
        if not eq or field is None or field in values:
            break
        try:
            values[field] = float(val)
        except ValueError:
            break
    else:
        for key in required:
            if keys[key] not in values:
                break
        else:
            return cls(name, **values)
    kv = _parse_kv(args, line, keys, required)
    return cls(name, **{field: _parse_float(kv[key], line, key)
                        for key, field in keys.items() if key in kv})


def _parse_decl(kind: str, name: str, args, line: int):
    """The declaration of one NUMBERS or COMPOSITES statement, from its row."""
    if kind in NUMBERS:
        return _parse_numbers(kind, name, args, line)
    counts = COMPOSITES[kind][0]
    kv = _parse_kv(args, line, counts, counts)
    pipes = []
    for key, count in counts.items():
        ids = (_parse_id(kv[key], line),) if count == 1 else _parse_id_list(kv[key], line, key)
        if count and len(ids) != count:
            raise ParseError(f"{key} expects exactly {count} pipes", line)
        pipes.append(ids)
    return CompositeDecl(kind, name, tuple(pipes))


def parse(text: str) -> NetworkSpec:
    """Parse a `.pipenet` document into a validated NetworkSpec."""
    gas_kv = None
    pipes: dict[str, PipeDecl] = {}
    elements: dict[str, object] = {}  # every declared element and pipe, by name, in order
    nominals: dict[str, NominalDecl] = {}
    nominal_lines: dict[str, int] = {}
    links, link_lines = [], []
    inputs = []
    consumed: dict[str, str] = {}  # pipe id -> consuming composite

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        kind = tokens[0]

        if kind == "link":
            if len(tokens) != 3:
                raise ParseError("link takes exactly two ports", lineno)
            a = _parse_portref(tokens[1], lineno)
            b = _parse_portref(tokens[2], lineno)
            if a.port[0] != "r" or b.port[0] != "l":
                raise ParseError(
                    "incompatible flanges: link is <right port> <left port>", lineno)
            links.append((a, b))
            link_lines.append(lineno)
        elif kind in NUMBERS and kind != "nominal" or kind in COMPOSITES:
            if len(tokens) < 2:
                raise ParseError(f"{kind} needs a name", lineno)
            name = _parse_id(tokens[1], lineno)
            decl = _parse_decl(kind, name, tokens[2:], lineno)
            if name in elements:
                raise ParseError(f"duplicate element {name!r}", lineno)
            elements[name] = decl
            if kind == "pipe":
                pipes[name] = decl
            elif kind in COMPOSITES:
                for pid in (pid for ids in decl.pipes for pid in ids):
                    if pid not in pipes:
                        raise ParseError(f"unknown pipe {pid!r}", lineno)
                    if pid in consumed:
                        raise ParseError(
                            f"pipe {pid!r} already used by {consumed[pid]!r}", lineno)
                    consumed[pid] = name
        elif kind == "gas":
            if gas_kv is not None:
                raise ParseError("duplicate gas block", lineno)
            gas_kv = _parse_kv(tokens[1:], lineno, {"Rs", "z0", "T0", "cv", "Tamb"},
                               ("Rs", "z0", "T0"))
            gas_line = lineno
        elif kind == "nominal":
            if len(tokens) < 2:
                raise ParseError("nominal needs a target", lineno)
            target = tokens[1] if tokens[1] == "*" else _parse_id(tokens[1], lineno)
            decl = _parse_decl(kind, target, tokens[2:], lineno)
            if target in nominals:
                raise ParseError(f"duplicate nominal for {target!r}", lineno)
            nominals[target] = decl
            nominal_lines[target] = lineno
        elif kind == "input":
            stmt = raw.partition("#")[0].strip()
            name, eq, value = stmt[len(kind):].partition("=")
            name, value = name.strip(), value.strip()
            if not eq or not name or not value:
                raise ParseError("input statement needs <name> = <target>", lineno)
            inputs.append((_parse_id(name, lineno), _parse_portref(value, lineno), lineno))
        else:
            raise ParseError(f"unknown statement {kind!r}", lineno, column=1)

    if gas_kv is None:
        raise ParseError("no gas block")
    gkv = {k: _parse_float(v, gas_line, k) for k, v in gas_kv.items()}
    T0 = gkv["T0"]
    gas = GasProperties(R_s=gkv["Rs"], z_0=gkv["z0"],
                        c_v=gkv.get("cv", _DEFAULT_CV), T_0=T0,
                        T_amb=gkv.get("Tamb", T0))

    ports: dict[str, object] = {}  # element id -> port_index, of each element referenced

    def check_portref(ref: PortRef, lineno: int):
        table = ports.get(ref.element)
        if table is None:
            decl = elements.get(ref.element)
            if decl is None:
                raise ParseError(f"unknown element {ref.element!r}", lineno)
            if ref.element in consumed:
                raise ParseError(
                    f"pipe {ref.element!r} belongs to {consumed[ref.element]!r} "
                    f"and may not be referenced directly", lineno)
            table = ports[ref.element] = port_index(decl.kind, len(_ids(decl)))
        if ref.port not in table:
            raise ParseError(
                f"element {ref.element!r} has no port {ref.port!r}", lineno)

    for (a, b), lineno in zip(links, link_lines):
        check_portref(a, lineno)
        check_portref(b, lineno)
    seen_inputs = set()
    for name, ref, lineno in inputs:
        if name in seen_inputs:
            raise ParseError(f"duplicate input {name!r}", lineno)
        seen_inputs.add(name)
        check_portref(ref, lineno)
    for nom_target, lineno in nominal_lines.items():
        if nom_target != "*" and nom_target not in pipes:
            raise ParseError(f"nominal names unknown pipe {nom_target!r}", lineno)

    # pipes consumed by a composite are parameter donors, not elements
    return NetworkSpec(gas=gas, pipes=pipes,
                       elements=tuple(el for name, el in elements.items()
                                      if name not in consumed),
                       nominals=nominals,
                       links=tuple(links),
                       inputs=tuple((n, r) for n, r, _ in inputs))


def _render_numbers(kind: str, head: str, decl) -> str:
    """One NUMBERS statement: the required keys, and every other key off its default."""
    _, keys, required = NUMBERS[kind]
    parts = [kind, head]
    for key, field in keys.items():
        value = getattr(decl, field)
        # a dataclass keeps each field's default as a class attribute
        if key in required or value != getattr(type(decl), field):
            parts.append(f"{key}={_fmt(value)}")
    return " ".join(parts)


def render(spec: NetworkSpec) -> str:
    """Canonical text form; parse(render(parse(t))) == parse(t)."""
    g = spec.gas
    lines = [f"gas Rs={_fmt(g.R_s)} z0={_fmt(g.z_0)} T0={_fmt(g.T_0)} "
             f"cv={_fmt(g.c_v)} Tamb={_fmt(g.T_amb)}"]
    for el in spec.elements:
        if el.kind in NUMBERS:
            lines.append(_render_numbers(el.kind, el.name, el))
            continue
        parts = [el.kind, el.name]
        for (key, count), ids in zip(COMPOSITES[el.kind][0].items(), el.pipes):
            lines += [_render_numbers("pipe", pid, spec.pipes[pid]) for pid in ids]
            parts.append(f"{key}={ids[0]}" if count == 1 else f"{key}=[{','.join(ids)}]")
        lines.append(" ".join(parts))
    for target in sorted(spec.nominals, key=lambda t: (t != "*", t)):
        lines.append(_render_numbers("nominal", target, spec.nominals[target]))
    for a, b in spec.links:
        lines.append(f"link {a} {b}")
    for name, ref in spec.inputs:
        lines.append(f"input {name} = {ref}")
    return "\n".join(lines) + "\n"


def _pipe_params(decl: PipeDecl) -> PipeParams:
    lam = friction_factor(decl.lam, decl.eps, decl.d, decl.Re)
    return PipeParams(L=decl.L, d=decl.d, d_out=decl.dout, eps=decl.eps,
                      h=decl.dh, lam=lam, k_rad=decl.krad)


# the pipe columns that core.PIPE_RULES reads, by PipeParams field name
_PipeColumns = namedtuple("_PipeColumns", "L d d_out eps h lam k_rad")


def _pipe_columns(decls):
    """(L, d, h, lambda, A_c) of the pipe declarations as float arrays, in one pass.

    lambda is resolved as _pipe_params resolves it, Haaland's once per
    distinct (eps, d, Re). The columns are screened by core.PIPE_RULES, the
    rule that PipeParams checks. If a pipe fails it, or friction_factor
    refuses one, _pipe_params runs over the pipes in order, only to raise
    the first fault. A_c is math.pi * d^2 / 4 with d^2 as
    np.float_power(d, 2.0), the pow that Python's ** calls, so it equals
    PipeParams.A_c bit for bit.
    """
    haaland, rows = {}, []
    try:
        for p in decls:
            lam = p.lam
            if lam is None:
                key = (p.eps, p.d, p.Re)
                lam = haaland.get(key)
                if lam is None:
                    lam = haaland[key] = friction_factor(None, p.eps, p.d, p.Re)
            rows.append((p.L, p.d, p.d if p.dout is None else p.dout, p.eps, p.dh, lam, p.krad))
        pipes = _PipeColumns(*np.array(rows, dtype=float).reshape(-1, 7).T)
        faulty = np.any([fault(pipes) for _, fault, _ in PIPE_RULES])
    except (ArithmeticError, TypeError, ValueError):  # ValueError: PipenetErrors among them
        faulty = True
    if faulty:
        for p in decls:
            _pipe_params(p)  # raises the first pipe fault, in pipe order
    return pipes.L, pipes.d, pipes.h, pipes.lam, math.pi * np.float_power(pipes.d, 2.0) / 4.0


def _ids(el) -> tuple[str, ...]:
    """Member pipe ids of one element; (id,) for a gain, which has none."""
    return el.members or (el.name,)


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


def _isclose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """math.isclose(a, b, rel_tol=NOMINAL_RTOL) lane by lane.

    Equal, or both finite and apart by at most NOMINAL_RTOL times the
    larger magnitude: no absolute tolerance, and nan is close to nothing
    (np.isclose differs in all three).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        near = np.abs(a - b) <= NOMINAL_RTOL * np.maximum(np.abs(a), np.abs(b))
    return (a == b) | (near & np.isfinite(a) & np.isfinite(b))


@dataclass(frozen=True)
class Spread:
    """The pressure spread of network_steady_state at K rows of gain values.

    p_l and p_r are (P, K): the inlet and exit pressure of every pipe, in
    CompiledNetwork.pipe_ids order, in each lane. q holds the P pipe
    flows, which no gain moves; order lists the pipe indices in the order
    the spread reached them. unmet holds (element, signal, node values,
    arriving values, unmet lanes) of every later arrival at a node, in
    spread order.
    """

    gains: np.ndarray
    p_l: np.ndarray
    p_r: np.ndarray
    q: tuple[float, ...]
    order: tuple[int, ...]
    unmet: tuple

    def unmet_at(self, lane: int) -> tuple[UnmetConstraint, ...]:
        """The constraints that one lane leaves unmet, in spread order."""
        return tuple(UnmetConstraint(element, signal, float(held[lane]), float(came[lane]))
                     for element, signal, held, came, lanes in self.unmet if lanes[lane])


def _port(tables: dict, ref: PortRef):
    """tables[ref.element][ref.port], or the ConfigurationError of an unknown element or port."""
    table = tables.get(ref.element)
    if table is None:
        raise ConfigurationError(f"unknown element {ref.element!r}")
    try:
        return table[ref.port]
    except KeyError:
        raise ConfigurationError(
            f"element {ref.element!r} has no port {ref.port!r}") from None


def _wiring(spec: NetworkSpec, ports: dict):
    """Port pairs of the links and (name, port) of the external inputs.

    ports maps each element id to its port table.
    """
    link_ports = [(_port(ports, a), _port(ports, b)) for a, b in spec.links]
    external_ports = [(name, _port(ports, ref)) for name, ref in spec.inputs]
    return link_ports, external_ports


def _exit_pressure(p_l: float, c: float, grav: float) -> float:
    """isothermal_nominal's exit pressure at inlet p_l from held c and grav, with its DomainErrors."""
    if not p_l > 0.0:
        raise DomainError("nominal left pressure must be strictly positive")
    p_r = exact_root(p_l, c, grav)
    if not p_r > 0.0:
        raise DomainError("OperatingPoint.p_r_ss must be strictly positive")
    return p_r


def _unknown_gain(element_id: str) -> ConfigurationError:
    return ConfigurationError(f"no gain element named {element_id!r}")


class CompiledNetwork:
    """A network description compiled once: what it fixes before any operating point is known.

    Holds the pipes' columns (_pipe_columns: L, d, h, the resolved
    friction factor and A_c, from one pass over the declarations), their
    relation constants (_constants, steady_state.relation_columns) and the
    declared gain values. A pipe that PipeParams or friction_factor
    refuses raises, while the compile is made, the first error of a
    pipe-by-pipe build (_pipe_params in pipe_ids order). Where an
    intermediate overflows or underflows, the columns keep the IEEE
    result that Python's floats give the per-pipe formulas. params, the
    PipeParams of every pipe, is made on first read; neither the build
    nor the oracle path reads it. It stays as the per-pipe reference that
    the tests check the columns and the table against.

    On first use it reads the spec once (_resolved): the ends of the links
    and inputs, checked, and per pipe its declared nominal and relation
    constants. The steady-state program (_program), the model's labels and
    node rule pattern (_closure) and the fills read only that, and the
    pipes' linearization constants as arrays (pipe_dynamics.IsoTable).
    None of these depend on a gain value.

    A gain sweep compiles once and fills a table of K gain rows at a time
    (analysis.stability_margin_sweep): spread checks every k first, then
    carries the node pressures as (node, K) arrays, and fill_spread
    scatters all K system matrices with one node-rule fill. Memory grows with K,
    so the caller bounds it. steady_state and model are the one-row case.
    """

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.pipe_ids = [pid for el in spec.elements for pid in el.members]
        self._columns = _pipe_columns([spec.pipes[pid] for pid in self.pipe_ids])
        # Python's floats overflow to inf and underflow to subnormals or 0 without a word
        with np.errstate(over="ignore", under="ignore"):
            self._constants = relation_columns(spec.gas.T_0, *self._columns, spec.gas)
        gains = [el for el in spec.elements if el.kind == "gain"]
        self._gain_index = {g.name: i for i, g in enumerate(gains)}
        self.gains = tuple(g.k for g in gains)

    def gains_with(self, element_id: str, k: float) -> tuple:
        """The declared gain values with one gain element's k replaced."""
        i = self._gain_index.get(element_id)
        if i is None:
            raise _unknown_gain(element_id)
        return self.gains[:i] + (k,) + self.gains[i + 1:]

    @cached_property
    def params(self) -> dict:
        """Pipe id -> PipeParams, in pipe_ids order; made on first read (the per-pipe reference)."""
        return {pid: _pipe_params(self.spec.pipes[pid]) for pid in self.pipe_ids}

    @property
    def shape(self) -> tuple[int, int, int]:
        """(states, inputs, outputs) of the closed model."""
        return self._closure[3].shape

    @cached_property
    def _resolved(self):
        """The spec read once, on integers: (elements, links, inputs, pipes).

        elements: per element (kind, member ids, first input and output, slice
        of pipe_ids). links: (right end, left end); inputs: one end each. An
        end is (element, member position, flange, input, output index), the
        indices counted over the network (composites.port_index). pipes: per
        pipe (declared q, declared pl, own nominal?, coef, grav), the last two
        its relation constants (_constants).
        Raises the label route's ConfigurationErrors (_port,
        interconnect._check_flanges) for an unknown element or port and for
        a link's flanges, then for a pipe with no nominal.
        """
        spec = self.spec
        elements, tables, offsets, port, pipe = [], {}, {}, 0, 0
        for e, el in enumerate(spec.elements):
            ids = _ids(el)
            n_pipes = len(el.members)
            tables[el.name] = table = port_index(el.kind, len(ids))
            offsets[el.name] = e, port
            elements.append((el.kind, ids, port, slice(pipe, pipe + n_pipes)))
            port += len(table)
            pipe += n_pipes

        def end(ref):
            flange, i, u, y = _port(tables, ref)
            e, first = offsets[ref.element]
            return e, i, flange, first + u, first + y

        links = [(end(a), end(b)) for a, b in spec.links]
        inputs = [end(ref) for _, ref in spec.inputs]
        for right, left in links:
            _check_flanges(right[2], left[2])
        pipes, default = [], spec.nominals.get("*")
        for pid, coef, grav in zip(self.pipe_ids, *(c.tolist() for c in self._constants)):
            nom = spec.nominals.get(pid, default)
            if nom is None:
                raise ConfigurationError(f"no nominal point for pipe {pid!r}")
            pipes.append((nom.q, nom.pl, pid in spec.nominals, coef, grav))
        return elements, links, inputs, pipes

    @cached_property
    def _program(self):
        """(starts, steps, node count, owners, flows) of the pressure spread (network_steady_state).

        The spread visits the same nodes in the same order at every gain
        value, so it is recorded once, from _resolved. starts are (node,
        declared pl); steps are (pipe or gain id, gain index or -1 for a
        pipe, pipe index or -1 for a gain, the pipe's c = coef q|q| and
        grav of steady_state.exact_root, from node, to node, whether this
        is the first arrival at to); owners map each pipe and gain id to
        its element; flows are the pipe flows in pipe_ids order.
        """
        elements, links, inputs, declared = self._resolved
        pipe_ids = self.pipe_ids
        owner = {pid: el.name for el in self.spec.elements for pid in el.members}
        owner.update((g, g) for g in self._gain_index)
        ends = [(name, flange) for name in owner for flange in "lr"]

        def end(e, i, flange, *_):
            return elements[e][1][i], flange

        joins = [(end(*a), end(*b)) for a, b in links]
        # each pressure node of an element holds its ends at one pressure; a
        # boundary right end is a node of one end and joins nothing
        for kind, ids, _, _ in elements:
            for feeders, takers in _layout(kind, len(ids))[0]:
                meet = [(ids[i], "r") for i in feeders] + [(ids[i], "l") for i in takers]
                joins += [(meet[0], e) for e in meet[1:]]
        node = _group(ends, joins)
        flow_node = _group(ends, joins + [((g, "l"), (g, "r")) for g in self._gain_index])

        q0 = np.array([row[0] for row in declared])
        boundary = {flow_node[end(*ref)] for ref in inputs}
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
        flows = tuple(q.tolist())

        leaving = {}  # node -> [(pipe or gain id, gain index, pipe index, c, grav)]
        for i, (pid, (_, _, _, coef, grav)) in enumerate(zip(pipe_ids, declared)):
            c = coef * flows[i] * abs(flows[i])
            leaving.setdefault(node[(pid, "l")], []).append((pid, -1, i, c, grav))
        for g, i in self._gain_index.items():
            leaving.setdefault(node[(g, "l")], []).append((g, i, -1, None, None))

        fed = [elements[e][3].start + i for e, i, flange, _, _ in inputs
               if flange == "l" and elements[e][0] != "gain"]
        starts, steps, reached = [], [], set()
        for i in fed + list(range(len(pipe_ids))):  # pressure inputs first, then inlets nothing reached
            start = node[(pipe_ids[i], "l")]
            if start in reached:
                continue
            starts.append((start, declared[i][1]))
            reached.add(start)
            queue = deque([start])
            while queue:
                n = queue.popleft()
                for name, gain, i, c, grav in leaving.get(n, ()):
                    to = node[(name, "r")]
                    steps.append((name, gain, i, c, grav, n, to, to not in reached))
                    if to not in reached:
                        reached.add(to)
                        queue.append(to)
        return starts, steps, len(set(node.values())), owner, flows

    def spread(self, gains) -> Spread:
        """The pressure spread of network_steady_state at each row of gains, (K, n_gains).

        Every k is checked first (composites.check_gain), so a bad one
        gives the same ConfigurationError wherever its gain sits. The node
        pressures are (node, K) arrays: a gain multiplies a row by its k,
        and a pipe's exit row takes one _exit_pressure per lane, so each
        lane equals a spread of its row alone, bit for bit. Later arrivals
        are checked lane-wise (_isclose).
        """
        gains = np.asarray(gains, dtype=float)
        for k in gains.ravel().tolist():
            check_gain(k)
        starts, steps, n_nodes, owner, flows = self._program
        pressure = np.zeros((n_nodes, len(gains)))
        for n, pl in starts:
            pressure[n] = pl
        p_l, p_r = np.empty((2, len(flows), len(gains)))
        order, unmet = [], []
        for name, gain, i, c, grav, n, to, first in steps:
            x = pressure[n]
            if gain < 0:
                y = np.array([_exit_pressure(base, c, grav) for base in x.tolist()])
                p_l[i], p_r[i] = x, y
                order.append(i)
            else:
                y = gains[:, gain] * x
            if first:
                pressure[to] = y
                continue
            met = _isclose(pressure[to], y)
            if not met.all():
                unmet.append((owner[name], str(SignalLabel(name, "r", "p")), pressure[to], y, ~met))
        return Spread(gains, p_l, p_r, flows, tuple(order), tuple(unmet))

    def steady_state(self, gains=None) -> NetworkSteadyState:
        """network_steady_state at the given gain values (default: the declared ones)."""
        spread = self.spread([self.gains if gains is None else gains])
        T_0 = self.spec.gas.T_0
        p_l, p_r = spread.p_l[:, 0].tolist(), spread.p_r[:, 0].tolist()
        ops = {self.pipe_ids[i]: OperatingPoint(p_l_ss=p_l[i], p_r_ss=p_r[i], q_ss=spread.q[i],
                                                T_l_ss=T_0, T_r_ss=T_0)
               for i in spread.order}
        return NetworkSteadyState(ops, spread.unmet_at(0))

    def fill_spread(self, spread: Spread) -> np.ndarray:
        """The (K, n, n) stack of the closed network's A at every lane of spread (see _table).

        B, C and D are not scattered: a gain sweep reads only A.
        """
        return self._closure[3].fill(self._table(spread.q, spread.p_l.T), spread.gains,
                                     matrices=1)[0]

    @cached_property
    def _closure(self):
        """(state labels, input names, output labels, node rule) of the closed model.

        Wired by port offset (_resolved, interconnect.wire), with the error
        texts of the label route (_wiring, _drivers).
        """
        elements, links, inputs, _ = self._resolved
        states, outputs = network_labels([(kind, ids) for kind, ids, _, _ in elements])
        members = [pid for _, ids, _, _ in elements for pid in ids]
        if len(set(members)) < len(members):  # labels may collide: the label route's checks
            core.label_index([lab for kind, ids, _, _ in elements
                              for lab in input_labels(kind, ids)], "input")
            core.label_index(outputs, "output")

        def input_label(i):
            kind, ids, first, _ = elements[bisect_right([el[2] for el in elements], i) - 1]
            return input_labels(kind, ids)[i - first]

        drivers = wire(len(outputs), [(a[3:], b[3:]) for a, b in links],
                       [end[3:] for end in inputs], input_label)
        rule = NodeRule([(kind, len(ids)) for kind, ids, _, _ in elements], drivers, len(inputs))
        return tuple(states), tuple(name for name, _ in self.spec.inputs), tuple(outputs), rule

    @cached_property
    def _iso(self) -> IsoTable:
        """The pipes' linearization constants as arrays, in pipe_ids order, made on the first fill.

        numpy warns where a value leaves the float range (A_c * L of a pipe
        with L = 1e-320), and only a build that gets this far prints it.
        """
        return IsoTable.of_columns(*self._columns, self.spec.gas)

    def _table(self, q, p_l):
        """The (K, 4 P) pipe table of NodeRule at pipe flows q and (K, P) inlet pressures p_l.

        First checks each composite's member flows (composites.check_flows),
        in declaration order. The pipe table (_iso) equals
        composites.coefficient_row bit for bit.
        """
        for kind, _, _, pipes in self._resolved[0]:
            if kind != "pipe" and kind != "gain":  # no member checks
                check_flows(kind, q[pipes])
        return self._iso.at(q, p_l)

    def checked_table(self, ops=None, gains=None) -> np.ndarray:
        """The (1, 4 P) pipe table at ops (default: the declared nominals), after the build's checks.

        Both routes read it: model fills the whole network's node rule from
        it, build_elements each element's own rule from its slice. The
        checks run in one order: the wiring (_closure), every k of gains
        (default: the declared ones), then each composite in declaration
        order, as make_* would check it. At ops that is its member flows
        (_table). At the declared nominal it is its members' exit pressures
        (_exit_pressure), its member flows, and its junctions if each
        member has its own nominal statement ('*' defaults are not checked).
        """
        self._closure
        for k in self.gains if gains is None else gains:
            check_gain(k)
        if ops is not None:
            points = [ops[pid] for pid in self.pipe_ids]
            return self._table([op.q_ss for op in points], [[op.p_l_ss for op in points]])
        elements, _, _, nominal = self._resolved
        q = [row[0] for row in nominal]
        for kind, _, _, pipes in elements:
            rows = nominal[pipes]
            p_r = [_exit_pressure(pl, coef * flow * abs(flow), grav)
                   for flow, pl, _, coef, grav in rows]
            if kind == "pipe" or kind == "gain":  # no member checks
                continue
            check_flows(kind, q[pipes])
            if all(row[2] for row in rows):
                _check_junctions(kind, q[pipes], [row[1] for row in rows], p_r)
        return self._iso.at(q, [[row[1] for row in nominal]])

    def model(self, ops=None, gains=None) -> StateSpaceModel:
        """The closed network model at ops and gains (default: declared nominals and gains).

        Checks as checked_table does, and takes the node rule's model of
        its one lane: it holds A and C as the fill's entries and makes them
        dense on first read (NodeRule.model). Equals
        close(*elaborate(spec, steady)) with the inputs named, where steady
        carries ops.
        """
        gains = self.gains if gains is None else gains
        coef = self.checked_table(ops, gains)
        states, inputs, outputs, rule = self._closure
        return rule.model(coef, [gains], states, inputs, outputs)


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

    Costs one steady-state solve per pipe. Only the spread depends on
    the gains (CompiledNetwork.steady_state).
    """
    return CompiledNetwork(spec).steady_state()


def build_elements(spec: NetworkSpec,
                   steady: NetworkSteadyState | None = None) -> list[CompositeModel]:
    """Every element model in declaration order (the oracle path).

    The element data are the build's: one checked pipe table
    (CompiledNetwork.checked_table), so both paths check the same things
    in the same order and raise the same first error. Each element is
    its own node rule filled from its slice of that table
    (composites._assemble); a gain takes its k from CompiledNetwork.gains.
    With steady (from network_steady_state) every pipe is linearized at
    its gain-aware operating point; that pass reports the constraints it
    leaves unmet, so the composites' nominal checks are off. Without it
    each pipe is linearized at its declared nominal.
    """
    net = CompiledNetwork(spec)
    coef = net.checked_table(None if steady is None else steady.ops)
    gains = iter(net.gains)
    return [_assemble(kind, coef[:, 4 * pipes.start:4 * pipes.stop], ids,
                      (next(gains),) if kind == "gain" else ())
            for kind, ids, _, pipes in net._resolved[0]]


def elaborate(spec: NetworkSpec, steady: NetworkSteadyState | None = None):
    """Build the stacked open-loop system and its connection matrices.

    This is the oracle path (interconnect.close, analysis.mason_check):
    its element models (build_elements) come from the build's checked
    pipe table, and its interconnection is stack and build_FG, where
    build_closed runs the node rule over the whole graph. steady is
    passed on to build_elements.
    """
    composites = build_elements(spec, steady)
    stacked = stack([c.model for c in composites])
    ports = {el.name: c.ports for el, c in zip(spec.elements, composites)}
    conn = build_FG(stacked, *_wiring(spec, ports))
    return stacked, conn


def build_closed(spec: NetworkSpec, steady: NetworkSteadyState | None = None):
    """Close the network along its links into one labeled LTI model.

    Compiles the network and fills it once (CompiledNetwork.model): the
    node rule over the whole graph, with no per-element models. The model
    holds A and C as the fill's entries and makes them dense on first
    read. It equals close(*elaborate(spec, steady)) with the inputs
    named. With steady every pipe is linearized at steady.ops, else at
    its declared nominal (see build_elements).
    """
    return CompiledNetwork(spec).model(None if steady is None else steady.ops)


def override_gain(spec: NetworkSpec, element_id: str, k: float) -> NetworkSpec:
    """Copy of spec with one gain element's k replaced."""
    new_elements = []
    found = False
    for el in spec.elements:
        if el.kind == "gain" and el.name == element_id:
            el = replace(el, k=k)
            found = True
        new_elements.append(el)
    if not found:
        raise _unknown_gain(element_id)
    return replace(spec, elements=tuple(new_elements))


def load(path) -> NetworkSpec:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())
