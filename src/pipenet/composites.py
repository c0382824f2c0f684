"""Catalog of network elements: pipes, joints, branches, series runs, gains.

Every composite is assembled by one node rule (the nodal formulation of
Osiadacz, Simulation and Analysis of Gas Networks, 1987); the kinds differ
only in their junction lists, JUNCTIONS. A junction joins the right ends
of its feeder pipes and the left ends of its taker pipes at one pressure,
which absorbs the index-1 algebraic interconnection constraints into a
single unconstrained LTI model.

- Each member pipe gives a flow state q_l, with row
  beta_pr*p(right node) + beta_pl*p(left node) + gamma*q_l. A left node is
  a junction state or, on a boundary end, the input p_l.
- Each pressure node gives one state, p_r of the first pipe whose right
  end sits there: a junction, or a pipe's right end on the boundary. Its
  row is alpha*(sum of taker q_l - sum of feeder q_l), plus alpha*q_r as an
  input on a boundary end. alpha is the feeder's own alpha, or for two
  feeders their parallel combination alpha_1*alpha_2/(alpha_1+alpha_2)
  (the junction capacitances 1/alpha add).

States are the pressure nodes in member order, then the flows. Inputs are
the boundary p_l, then the boundary q_r; outputs the boundary p_r, then
the boundary q_l. Ports are named 'l'/'r', or 'l1','l2'/'r1','r2' when a
side has two boundary ends (port_ends).

All composites use the isothermal 2D pipe model and assume positive
nominal flow entering at the left flange of every member pipe ('l' is the
steady-flow entry side); reversed steady flow must be modeled by
reversing pipe orientation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .core import GasProperties, OperatingPoint, PipeParams, SignalLabel, StateSpaceModel
from .errors import ConfigurationError
# linearize_2d stays importable here: perfbench/tracer.py wraps composites.linearize_2d
from .pipe_dynamics import iso_coefficients, linearize_2d  # noqa: F401

NOMINAL_RTOL = 1e-9

# Junctions of each element kind with n members, as (feeder positions,
# taker positions); member positions follow the make_* argument order.
JUNCTIONS = {
    "pipe": lambda n: [],
    "gain": lambda n: [],
    "joint": lambda n: [((1, 2), (0,))],
    "branch": lambda n: [((0,), (1, 2))],
    "series": lambda n: [((i,), (i + 1,)) for i in range(n - 1)],
}


@dataclass(frozen=True)
class Port:
    """One flange of an element: an input signal paired with an output signal.

    A left flange accepts pressure and emits flow; a right flange accepts
    flow and emits pressure.
    """

    name: str
    flange: str  # 'l' or 'r'
    input_label: SignalLabel
    output_label: SignalLabel


@dataclass(frozen=True)
class CompositeModel:
    """An element model plus its port table and bookkeeping.

    kind is one of pipe/joint/branch/series/gain; delta is the feeder-1
    compliance ratio (joints only, see make_joint).
    """

    model: StateSpaceModel
    kind: str
    member_ids: tuple[str, ...]
    ports: dict[str, Port] = field(default_factory=dict)
    delta: float | None = None


@lru_cache(maxsize=None)
def _layout(kind: str, n: int):
    """Index structure of one kind with n members: (nodes, at, lefts, rights, ports).

    nodes are the pressure nodes in state order, each (feeder positions,
    taker positions): a junction, or a boundary right end with no takers.
    at maps (flange, position) to the pressure state of that end; lefts and
    rights are the positions with a boundary left or right end. ports lists
    (name, flange, position, input index, output index) of every boundary
    end: the k-th left end takes input p_l k and gives output q_l k, the
    k-th right end takes q_r k and gives p_r k. Cached and read-only; one
    entry per kind and member count.
    """
    joins = JUNCTIONS[kind](n)
    fed = {i for feeders, _ in joins for i in feeders}
    nodes = tuple(sorted(joins + [((i,), ()) for i in range(n) if i not in fed],
                         key=lambda node: node[0][0]))
    at = {}
    for k, (feeders, takers) in enumerate(nodes):
        at.update({("r", i): k for i in feeders})
        at.update({("l", i): k for i in takers})
    lefts = tuple(i for i in range(n) if ("l", i) not in at)
    rights = tuple(feeders[0] for feeders, takers in nodes if not takers)
    n_l, n_r = len(lefts), len(rights)
    ports = tuple([("l" if n_l == 1 else f"l{k + 1}", "l", i, k, n_r + k)
                   for k, i in enumerate(lefts)]
                  + [("r" if n_r == 1 else f"r{k + 1}", "r", i, n_l + k, k)
                     for k, i in enumerate(rights)])
    return nodes, MappingProxyType(at), lefts, rights, ports


def port_ends(kind: str, member_ids) -> dict[str, tuple[str, str]]:
    """Port name -> (member id, flange) of every boundary end of one element."""
    return {name: (member_ids[i], flange)
            for name, flange, i, _, _ in _layout(kind, len(member_ids))[4]}


def _ports(kind: str, n: int, model: StateSpaceModel) -> dict[str, Port]:
    """Port table of a model with the boundary input and output order of _layout."""
    ins, outs = model.input_labels, model.output_labels
    return {name: Port(name, flange, ins[u], outs[y])
            for name, flange, _, u, y in _layout(kind, n)[4]}


def _require_positive_flow(ops):
    for op in ops:
        if not op.q_ss > 0.0:
            raise ConfigurationError("composite requires positive nominal flow")


def _rel_close(a, b, tol=NOMINAL_RTOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def _assemble(kind: str, pipes, gas: GasProperties, member_ids) -> CompositeModel:
    """The node rule (module docstring) for one kind and its member pipes."""
    member_ids = tuple(member_ids)
    cs = [iso_coefficients(par, op, gas) for par, op in pipes]
    n = len(cs)
    nodes, at, lefts, rights, _ = _layout(kind, n)
    n_p = len(nodes)

    A = np.zeros((n_p + n, n_p + n))
    B = np.zeros((n_p + n, len(lefts) + len(rights)))
    delta = None
    for k, (feeders, takers) in enumerate(nodes):
        if len(feeders) == 1:
            alpha = cs[feeders[0]].alpha
        else:
            a1, a2 = cs[feeders[0]].alpha, cs[feeders[1]].alpha
            delta = a1 / (a1 + a2)
            alpha = a1 * (1.0 - delta)
        for i in takers:
            A[k, n_p + i] = alpha
        for i in feeders:
            A[k, n_p + i] = -alpha
    for i, c in enumerate(cs):
        A[n_p + i, at["r", i]] = c.beta_pr
        if ("l", i) in at:
            A[n_p + i, at["l", i]] = c.beta_pl
        A[n_p + i, n_p + i] = c.gamma
    for col, i in enumerate(lefts):
        B[n_p + i, col] = cs[i].beta_pl
    for col, i in enumerate(rights, len(lefts)):
        B[at["r", i], col] = cs[i].alpha
    C = np.zeros((len(rights) + len(lefts), n_p + n))
    for row, k in enumerate([at["r", i] for i in rights] + [n_p + i for i in lefts]):
        C[row, k] = 1.0

    p_labels = [SignalLabel(member_ids[feeders[0]], "r", "p") for feeders, _ in nodes]
    q_labels = [SignalLabel(mid, "l", "q") for mid in member_ids]
    inputs = ([SignalLabel(member_ids[i], "l", "p") for i in lefts]
              + [SignalLabel(member_ids[i], "r", "q") for i in rights])
    outputs = [p_labels[at["r", i]] for i in rights] + [q_labels[i] for i in lefts]
    model = StateSpaceModel(A, B, C, np.zeros((C.shape[0], B.shape[1])),
                            tuple(p_labels + q_labels), tuple(inputs), tuple(outputs))
    return CompositeModel(model, kind, member_ids, _ports(kind, n, model), delta=delta)


def make_pipe(params: PipeParams, op: OperatingPoint, gas: GasProperties,
              element_id: str = "P") -> CompositeModel:
    """Single isothermal pipe wrapped as a network element."""
    return _assemble("pipe", [(params, op)], gas, (element_id,))


def make_joint(pipe0, pipe1, pipe2, gas: GasProperties,
               member_ids=("P0", "P1", "P2"),
               check_nominal: bool = True) -> CompositeModel:
    """Two feeder pipes (1, 2) merging into pipe 0; five-state model.

    Each pipeX argument is a (PipeParams, OperatingPoint) pair. The
    pressure constraint p_1r = p_2r = p_0l removes one state. delta =
    alpha_1/(alpha_1+alpha_2) is the compliance ratio of feeder 1 at the
    junction; it depends on the pipes' geometry, not on the flows. The
    junction pressure row carries alpha_1*(1-delta) = alpha_1*alpha_2/
    (alpha_1+alpha_2) (= alpha_2*delta), the parallel combination of the
    feeders' alphas: the junction capacitances 1/alpha add.

    States [p_0r, p_1r, q_0l, q_1l, q_2l]; inputs [p_1l, p_2l, q_0r];
    outputs [p_0r, q_1l, q_2l].
    """
    (_, op0), (_, op1), (_, op2) = pipe0, pipe1, pipe2
    _require_positive_flow((op0, op1, op2))
    if check_nominal:
        if not _rel_close(op0.q_ss, op1.q_ss + op2.q_ss):
            raise ConfigurationError(
                "inconsistent nominals: joint requires q0_ss = q1_ss + q2_ss")
        if not _rel_close(op1.p_r_ss, op2.p_r_ss):
            raise ConfigurationError(
                "inconsistent nominals: joint requires p1_r_ss = p2_r_ss")
    return _assemble("joint", (pipe0, pipe1, pipe2), gas, member_ids)


def make_branch(pipe0, pipe1, pipe2, gas: GasProperties,
                member_ids=("P0", "P1", "P2"),
                check_nominal: bool = True) -> CompositeModel:
    """Pipe 0 splitting into pipes 1 and 2; six-state model (no reduction).

    States [p_0r, p_1r, p_2r, q_0l, q_1l, q_2l]; inputs [p_0l, q_1r, q_2r];
    outputs [p_1r, p_2r, q_0l].
    """
    (_, op0), (_, op1), (_, op2) = pipe0, pipe1, pipe2
    _require_positive_flow((op0, op1, op2))
    if check_nominal and not _rel_close(op0.q_ss, op1.q_ss + op2.q_ss):
        raise ConfigurationError(
            "inconsistent nominals: branch requires q0_ss = q1_ss + q2_ss")
    return _assemble("branch", (pipe0, pipe1, pipe2), gas, member_ids)


def make_series(pipes, gas: GasProperties, member_ids=None,
                check_nominal: bool = True) -> CompositeModel:
    """N pipes chained left to right; 2N-state model.

    pipes is an ordered list of (PipeParams, OperatingPoint). States are
    [p_0r .. p_{N-1}r, q_0l .. q_{N-1}l]; inputs [p_0l, q_{N-1}r];
    outputs [p_{N-1}r, q_0l].
    """
    pipes = list(pipes)
    if not pipes:
        raise ConfigurationError("series requires at least one pipe")
    N = len(pipes)
    if member_ids is None:
        member_ids = tuple(f"P{i}" for i in range(N))
    member_ids = tuple(member_ids)
    if len(member_ids) != N:
        raise ConfigurationError("series needs one id per member pipe")
    ops = [op for _, op in pipes]
    _require_positive_flow(ops)
    if check_nominal:
        for i in range(N - 1):
            if not _rel_close(ops[i].q_ss, ops[i + 1].q_ss):
                raise ConfigurationError("inconsistent nominals: series requires equal flow")
            if not _rel_close(ops[i].p_r_ss, ops[i + 1].p_l_ss):
                raise ConfigurationError(
                    "inconsistent nominals: series requires chained pressures")
    return _assemble("series", pipes, gas, member_ids)


def make_gain(k: float, element_id: str = "G") -> CompositeModel:
    """Static two-port gain (compressor or valve): p_r = k p_l, q_l = q_r."""
    if k == 0.0:
        raise ConfigurationError("gain k must be nonzero")
    D = np.array([[k, 0.0], [0.0, 1.0]])
    inputs = (SignalLabel(element_id, "l", "p"), SignalLabel(element_id, "r", "q"))
    outputs = (SignalLabel(element_id, "r", "p"), SignalLabel(element_id, "l", "q"))
    model = StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 2)),
                            np.zeros((2, 0)), D, (), inputs, outputs)
    return CompositeModel(model, "gain", (element_id,), _ports("gain", 1, model))
