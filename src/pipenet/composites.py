"""Catalog of network elements, and the node rule that assembles them.

Every model, of one element or of a whole network, is assembled by one
node rule (the nodal formulation of Osiadacz, Simulation and Analysis of
Gas Networks, 1987); the element kinds differ only in their junction
lists, JUNCTIONS. A junction joins the right ends of its feeder pipes and
the left ends of its taker pipes at one pressure, which absorbs the
index-1 algebraic interconnection constraints into a single unconstrained
LTI model. Only _layout reads JUNCTIONS: the ports, the labels, the node
rule's templates and the steady state's nodes
(netspec.CompiledNetwork._program) read its cached table.

- Each member pipe gives a flow state q_l, with row
  beta_pr*p(right node) + beta_pl*p(left node) + gamma*q_l. A left node is
  a junction state or, on a boundary end, the input p_l.
- Each pressure node gives one state, p_r of the first pipe whose right
  end sits there: a junction, or a pipe's right end on the boundary. Its
  row is alpha*(sum of taker q_l - sum of feeder q_l), plus alpha*q_r as an
  input on a boundary end. alpha is the feeder's own alpha, or for two
  feeders their parallel combination alpha_1*alpha_2/(alpha_1+alpha_2)
  (the junction capacitances 1/alpha add).
- A gain has no state: p_r = k p_l and q_l = q_r.

States are the pressure nodes in member order, then the flows. Inputs are
the boundary p_l, then the boundary q_r; outputs the boundary p_r, then
the boundary q_l. Ports are named 'l'/'r', or 'l1','l2'/'r1','r2' when a
side has two boundary ends (port_index).

NodeRule runs the rule over elements closed along their links: a linked
boundary input is fed by another element's output, so its coefficient
lands on that output's state (a link's node pressure is the feeder's p_r
state), through gains as the product of their factors. The pattern of
rows, columns and coefficients depends on the topology only; fill
evaluates it at operating points and gain values. One element with every
input external is the element's own model (make_*).

All composites use the isothermal 2D pipe model and assume positive
nominal flow entering at the left flange of every member pipe ('l' is the
steady-flow entry side); reversed steady flow must be modeled by
reversing pipe orientation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from types import MappingProxyType

import numpy as np

from .core import (GasProperties, ModelEntries, OperatingPoint, PipeParams, SignalLabel,
                   StateSpaceModel, check_element_id)
from .errors import ConfigurationError, NumericalError
# linearize_2d stays importable here: perfbench/tracer.py wraps composites.linearize_2d
from .pipe_dynamics import iso_coefficients, linearize_2d  # noqa: F401

NOMINAL_RTOL = 1e-9

CONDITION_LIMIT = 1e12

_ILL_POSED = "algebraic loop ill-posed: I - D F is singular or ill-conditioned"

# Junctions of each element kind with n members, as (feeder positions,
# taker positions); member positions follow the make_* argument order.
JUNCTIONS = {
    "pipe": lambda n: [],
    "gain": lambda n: [],
    "joint": lambda n: [((1, 2), (0,))],
    "branch": lambda n: [((0,), (1, 2))],
    "series": lambda n: [((i,), (i + 1,)) for i in range(n - 1)],
}

# coefficient slots of pipe i in NodeRule.fill: 4 i + one of these
_ALPHA, _BETA_PR, _BETA_PL, _GAMMA = range(4)


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


@lru_cache(maxsize=None)
def port_index(kind: str, n: int):
    """Port name -> (flange, member position, input index, output index) of one kind.

    n members; a gain's one position is 0. The indices count within the
    element (_layout). Cached and read-only.
    """
    return MappingProxyType({port[0]: port[1:] for port in _layout(kind, n)[4]})


@lru_cache(maxsize=None)
def _label_plan(kind: str, n: int):
    """The labels of one kind with n members: (plan, states, reads).

    plan gives (member position, side, quantity) of each label: each
    pressure node's p_r, then each member's q_l. The first `states` of
    them are the element's states (none for a gain); reads gives the
    position in plan of the label each output reads. Cached and
    read-only.
    """
    nodes, at, lefts, rights, _ = _layout(kind, n)
    plan = (*((feeders[0], "r", "p") for feeders, _ in nodes), *((i, "l", "q") for i in range(n)))
    reads = (*(at["r", i] for i in rights), *(len(nodes) + i for i in lefts))
    return plan, (0 if kind == "gain" else len(plan)), reads


def network_labels(elements):
    """The state and output labels of elements (kind, member ids), in order.

    An element's states are each pressure node's p_r, then each member's
    q_l (none for a gain, whose member ids are its own id); an output's
    label is the label of the state it reads. The labels are made from
    each kind's cached plan (_label_plan), by SignalLabel._of: every
    element id is checked once (core.check_element_id), so the first
    invalid id raises SignalLabel's ConfigurationError, and the plans'
    sides and quantities are valid.
    """
    states, outputs = [], []
    for kind, member_ids in elements:
        for element_id in member_ids:
            check_element_id(element_id)
        plan, n_states, reads = _label_plan(kind, len(member_ids))
        labels = [SignalLabel._of(member_ids[i], side, quantity) for i, side, quantity in plan]
        states += labels[:n_states]
        outputs += [labels[j] for j in reads]
    return states, outputs


def input_labels(kind: str, member_ids) -> list[SignalLabel]:
    """Input labels of one element: the boundary p_l, then the boundary q_r."""
    _, _, lefts, rights, _ = _layout(kind, len(member_ids))
    return ([SignalLabel(member_ids[i], "l", "p") for i in lefts]
            + [SignalLabel(member_ids[i], "r", "q") for i in rights])


def element_signals(kind: str, member_ids):
    """State, input and output labels of one element, and its port table.

    member_ids is (element id,) for a gain, which has no states.
    """
    states, outputs = network_labels([(kind, member_ids)])
    inputs = input_labels(kind, member_ids)
    table = {name: Port(name, flange, inputs[u], outputs[y])
             for name, (flange, _, u, y) in port_index(kind, len(member_ids)).items()}
    return tuple(states), tuple(inputs), tuple(outputs), table


def _scatter(shape, flat, values) -> np.ndarray:
    """Dense array that sums values at the flat positions, in the order given.

    values may carry lanes in front, (K, len(flat)): lane k lands at
    offset k * size, so one bincount fills the (K, *shape) stack.
    """
    lanes = values.shape[:-1]
    size = math.prod(shape)
    n = math.prod(lanes)
    if n != 1:
        flat = (flat + size * np.arange(n)[:, None]).ravel()
    out = np.bincount(flat, values.ravel(), minlength=n * size)
    return out.astype(float, copy=False).reshape(*lanes, *shape)  # no positions: bincount gives ints


# what a packed template value adds of its element's offsets (NodeRule):
# nothing, the first state, the first coefficient slot, or the first
# two-feeder node plus the network's coefficient slots
_NONE, _STATE, _SLOT, _PARALLEL = range(4)
# the table a packed template column belongs to
_OWN, _PAIRS, _FEEDS, _READS = range(4)


@lru_cache(maxsize=None)
def _template(kind: str, n: int):
    """One element's share of NodeRule at offset zero: (sizes, packed).

    sizes are its states, coefficient slots, two-feeder nodes and ports
    (one input and one output each), then the columns of packed and 1 for
    a gain. packed is (9, columns): rows 0-3 hold values, rows 4-7 what
    each value adds of the element's offsets (_NONE, _STATE, _SLOT,
    _PARALLEL), row 8 the table of the column:
    - _OWN: an own A entry (row, column, coefficient slot, scale slot); a
      two-feeder node's parallel alpha has the node's number among the
      element's two-feeder nodes as its slot (_PARALLEL);
    - _PAIRS: the feeder alpha slots of a two-feeder node;
    - _FEEDS: the entry (row, coefficient slot) of an input;
    - _READS: the state an output reads.
    Rows and columns count from the element's first state, slots from its
    first pipe's. A gain's inputs feed no entry and its outputs read no
    state: their values are -1. Cached and read-only; one entry per kind
    and member count.
    """
    if kind == "gain":
        cols = [((-1, -1, 0, 0), (_NONE,) * 4, table) for table in (_FEEDS, _FEEDS, _READS, _READS)]
        return (0, 0, 0, 2, len(cols), 1), _packed(cols)
    nodes, at, lefts, rights, _ = _layout(kind, n)
    f0 = len(nodes)  # first flow state

    def own(row, col, slot, scale, adds=_SLOT):
        return (row, col, slot, scale), (_STATE, _STATE, adds, _NONE), _OWN

    cols, n_parallel = [], 0
    for k, (feeders, takers) in enumerate(nodes):
        if len(feeders) == 1:
            alpha, adds = 4 * feeders[0] + _ALPHA, _SLOT
        else:
            alpha, adds = n_parallel, _PARALLEL
            n_parallel += 1
            cols.append(((*(4 * i + _ALPHA for i in feeders), 0, 0),
                         (_SLOT, _SLOT, _NONE, _NONE), _PAIRS))
        cols += [own(k, f0 + i, alpha, 0, adds) for i in takers]
        cols += [own(k, f0 + i, alpha, 1, adds) for i in feeders]
    for i in range(n):
        cols.append(own(f0 + i, at["r", i], 4 * i + _BETA_PR, 0))
        if ("l", i) in at:
            cols.append(own(f0 + i, at["l", i], 4 * i + _BETA_PL, 0))
        cols.append(own(f0 + i, f0 + i, 4 * i + _GAMMA, 0))
    feed = (_STATE, _SLOT, _NONE, _NONE)
    cols += [((f0 + i, 4 * i + _BETA_PL, 0, 0), feed, _FEEDS) for i in lefts]
    cols += [((at["r", i], 4 * i + _ALPHA, 0, 0), feed, _FEEDS) for i in rights]
    read = (_STATE, _NONE, _NONE, _NONE)
    cols += [((at["r", i], 0, 0, 0), read, _READS) for i in rights]
    cols += [((f0 + i, 0, 0, 0), read, _READS) for i in lefts]
    return (f0 + n, 4 * n, n_parallel, len(lefts) + len(rights), len(cols), 0), _packed(cols)


def _packed(cols) -> np.ndarray:
    """The read-only (9, columns) array of (values, adds, table) columns."""
    packed = np.array([(*values, *adds, table) for values, adds, table in cols], dtype=np.intp).T
    packed.flags.writeable = False
    return packed


class NodeRule:
    """Where each coefficient of the node rule lands in A, B, C and D.

    elements lists (kind, member count) in state order, a gain counting
    one member. drivers gives the source of every element input, in the
    order of the elements' inputs: ("y", element output) or ("u", external
    column), as interconnect._drivers returns them.

    Each input resolves along its sources to one state or one external
    input. A pipe's output is one of its states; a gain's output is its
    factor (k on pressure, 1 on flow) times the gain's own input, so a
    chain of gains multiplies its factors in the order the chain is
    walked from the output. A ring of gains with no pipe in it never
    reaches a state and raises NumericalError: its flow cycle has gain 1,
    so I - D F is singular.

    The model equals interconnect.close over the stacked element models,
    with the elements' states and outputs in order. Entries that share a
    position add, element A first, then the resolved inputs.

    The pattern is placed with numpy from one cached _template per element
    kind and size, shifted by each element's first state, coefficient slot
    and two-feeder node; only a gain's outputs are resolved one by one.
    For a model, A's pattern is compressed once, to its distinct positions
    in row-major order and the position of each entry among them, so one
    bincount sums a lane's duplicates without a dense array (_positions).
    """

    def __init__(self, elements, drivers, n_external: int):
        if not elements:
            raise ConfigurationError("cannot stack an empty model list")
        # every element of one (kind, n) shares a _template: the templates'
        # columns in element order, each value plus the offset it adds
        templates = [_template(kind, n) for kind, n in elements]
        sizes = np.array([t[0] for t in templates], dtype=np.intp)
        # per element: first state, coefficient slot, two-feeder node and port
        # (one input and one output each)
        first = np.cumsum(sizes, axis=0) - sizes
        n_states, n_slots, _, n_outputs, _, _ = (first[-1] + sizes[-1]).tolist()
        adds = np.zeros((len(sizes), 4), np.intp)  # _NONE, _STATE, _SLOT, _PARALLEL
        adds[:, 1:] = first[:, :3] + (0, 0, n_slots)
        packed = np.concatenate([t[1] for t in templates], axis=1)
        values = packed[:4] + adds[np.repeat(np.arange(len(sizes)), sizes[:, 4]), packed[4:8]]
        # (row, column, coefficient column, scale slot) of A; coefficient column
        # 4 P + j is two-feeder node j's parallel alpha; scale slot 0 is 1.0, 1 is
        # -1.0, 2 + c the factor of gain chain c
        a = values[:, packed[8] == _OWN]
        parallel = values[:2, packed[8] == _PAIRS]  # the feeders' alpha slots per two-feeder node
        feeds = values[:2, packed[8] == _FEEDS]     # per input: (row, slot) of its entry
        reads = values[0, packed[8] == _READS]      # per output: the state it reads
        # a gain's outputs are (gain or -1 for a factor 1, the input the output passes)
        sources = {}
        for gain, port in enumerate(first[sizes[:, 5] > 0, 3].tolist()):
            sources[port], sources[port + 1] = (gain, port), (-1, port + 1)

        def resolve(j):
            """(gain of each output passed, -1 for a factor 1; state?; state or column)."""
            steps, seen = [], {j}
            while j in sources:
                gain, i = sources[j]
                steps.append(gain)
                kind, j = drivers[i]
                if kind == "u":
                    return tuple(steps), False, j
                if j in seen:
                    raise NumericalError(_ILL_POSED)
                seen.add(j)
            return (*steps, -1), True, reads[j]

        # only a gain's outputs need resolving: a pipe element's output reads
        # its state with factor 1, steps (-1,)
        resolved = {j: resolve(j) for j in sources}
        counts = Counter(steps for steps, _, _ in resolved.values())
        self._chains = [(steps, count) for steps, count in counts.items() if max(steps) >= 0]
        scale = {steps: 2 + c for c, (steps, _) in enumerate(self._chains)}
        # per output: whether it reads a state or else an external column, and its scale slot
        on_state, factor = np.ones(n_outputs, bool), np.zeros(n_outputs, np.intp)
        for j, (steps, is_state, k) in resolved.items():
            on_state[j], reads[j], factor[j] = is_state, k, scale.get(steps, 0)

        # each input's entry lands on its source's state (A) or external column (B)
        has_entry = feeds[0] >= 0
        from_y = np.array([kind == "y" for kind, _ in drivers], dtype=bool)[has_entry]
        source = np.array([k for _, k in drivers], dtype=np.intp)[has_entry]
        out = np.where(from_y, source, 0)  # the output that feeds each entry (0 for a "u")
        to_a = from_y & on_state[out]
        entries = np.stack([feeds[0, has_entry], np.where(from_y, reads[out], source),
                            feeds[1, has_entry], np.where(from_y, factor[out], 0)])
        a = np.concatenate([a, entries[:, to_a]], axis=1)
        # C and D: each output reads its state or external column, times its factor
        c, d = np.flatnonzero(on_state), np.flatnonzero(~on_state)

        self.shape = (n_states, n_external, n_outputs)
        self._parallel = parallel
        # C's gather: the outputs that read a state, and per output the state
        # it reads (0 for one that reads an external column)
        self._c_rows, self._c_reads = c, np.where(on_state, reads, 0)
        # per matrix: (shape, flat positions, coefficient columns, scale slots) of
        # its entries; C and D hold a factor alone, their columns are None
        self._patterns = [
            (shape, rows * shape[1] + cols, coefs, scales)
            for (rows, cols, coefs, scales), shape in (
                (a, (n_states, n_states)), (entries[:, ~to_a], (n_states, n_external)),
                ((c, reads[c], None, factor[c]), (n_outputs, n_states)),
                ((d, reads[d], None, factor[d]), (n_outputs, n_external)))]
        # ||I - D F||_F^2: 1 per output, plus the square of each feed-through
        # factor whose input an output feeds; ||(I - D F)^-1||_F^2: the square of
        # the running factor at each step of every resolution
        fed = [gain for gain, i in sources.values() if drivers[i][0] == "y"]
        self._idf_ones = n_outputs + fed.count(-1)
        self._idf_gains = [gain for gain in fed if gain >= 0]
        self._inv_ones = (n_outputs - len(resolved)
                          + sum(len(steps) * count for steps, count in counts.items()
                                if max(steps) < 0))

    def fill(self, coef, gains, matrices: int = 4):
        """A, B, C, D and each two-feeder node's delta = alpha_1/(alpha_1 + alpha_2), per lane.

        coef is the (K, 4 P) table of every member pipe's (alpha, beta_pr,
        beta_pl, gamma) in element order (pipe_dynamics.IsoTable.at, or
        coefficient_row for one lane), gains the (K, n_gains) table of every
        gain's k; each of the K rows is one lane. Returns the (K, n, n),
        (K, n, m), (K, p, n) and (K, p, m) stacks, each scattered by one
        bincount over all lanes, then the (K, n_two_feeder) delta;
        matrices=1 makes A alone, all that a gain sweep reads. The stacks
        scatter the per-entry values (_values) that model sums into its
        entries, so each lane equals a fill of its row alone, and the dense
        A and C of that row's model, bit for bit. Memory grows with K, so
        the caller bounds it.
        Raises the NumericalError of interconnect.close when, in any lane,
        ||I - D F||_F ||(I - D F)^-1||_F exceeds CONDITION_LIMIT.
        """
        values, delta = self._values(coef, gains, matrices)
        return (*(_scatter(shape, flat, lanes)
                  for (shape, flat, _, _), lanes in zip(self._patterns, values)), delta)

    def model(self, coef, gains, state_labels, input_labels, output_labels) -> StateSpaceModel:
        """The labelled model of one lane of fill, with A and C held as entries (core.ModelEntries).

        coef and gains hold one row each. B and D are dense. The model
        keeps the values of A's and C's entries and makes its entries from
        them on first use (_entries): A's sums at its distinct positions
        with exact zeros dropped, and C's gather from the outputs' reads,
        field by field what ModelEntries scans from fill's A and C. Dense A
        and C are made only when read.
        """
        (a, b, c, d), _ = self._values(coef, gains, 4)
        B, D = (_scatter(shape, flat, lanes)[0]
                for (shape, flat, _, _), lanes in zip(self._patterns[1::2], (b, d)))
        return StateSpaceModel._from_entries(partial(self._entries, a[0], c[0]), B, D,
                                             state_labels, input_labels, output_labels)

    def _entries(self, a, c) -> ModelEntries:
        """The entries of one lane whose A and C entries take the values a and c (_values)."""
        n, _, p = self.shape
        rows, cols, slots = self._positions
        sums = _scatter((len(rows),), slots, a)
        keep = np.flatnonzero(sums)  # nan is kept, as np.nonzero keeps it
        c_cols = c_factors = None
        if n:  # with no states there is nothing to gather
            c_factors = _scatter((p,), self._c_rows, c)  # 0.0 on an output that reads no state
            c_cols = np.where(c_factors != 0, self._c_reads, 0)
        return ModelEntries._of((n, p), rows[keep], cols[keep], sums[keep], c_cols, c_factors)

    @cached_property
    def _positions(self):
        """A's distinct positions in row-major order, as (rows, cols), and the one of each entry.

        One bincount over the entries' positions then sums a lane's
        duplicates in entry order from 0.0, as a dense scatter sums them.
        Made when a model first makes its entries; fill scatters directly.
        The same as np.unique(positions, return_inverse=True), by a stable
        argsort: np.unique's quicksort maps numpy's vectorized sort kernels
        into the process.
        """
        positions = self._patterns[0][1]
        order = np.argsort(positions, kind="stable")
        ordered = positions[order]
        first = np.ones(len(ordered), dtype=bool)  # the first entry of each position
        first[1:] = ordered[1:] != ordered[:-1]
        slots = np.empty(len(order), dtype=np.intp)
        slots[order] = np.cumsum(first) - 1
        return (*np.divmod(ordered[first], max(self.shape[0], 1)), slots)

    def _values(self, coef, gains, matrices: int):
        """The (K, entries) values of the first `matrices` patterns, in entry order, then delta.

        delta and the gain-chain factors are taken per lane, so each lane
        equals one of its row alone, bit for bit. Raises the NumericalError
        of fill.
        """
        coef, gains = np.asarray(coef, dtype=float), np.asarray(gains, dtype=float)
        a1, a2 = coef[:, self._parallel[0]], coef[:, self._parallel[1]]
        delta = a1 / (a1 + a2)
        coef = np.concatenate([coef, a1 * (1.0 - delta)], axis=1)

        scale = []  # per lane: 1.0, -1.0, then the factor of each gain chain
        for lane in gains.tolist():
            factors, norm2_inv = [], float(self._inv_ones)
            for steps, count in self._chains:
                factor, running = 1.0, 0.0
                for gain in steps:
                    running += factor * factor
                    if gain >= 0:
                        factor *= lane[gain]
                factors.append(factor)
                norm2_inv += count * running
            norm2_idf = self._idf_ones + sum(lane[g] * lane[g] for g in self._idf_gains)
            if not math.sqrt(norm2_idf * norm2_inv) <= CONDITION_LIMIT:  # "not <=" rejects nan
                raise NumericalError(_ILL_POSED)
            scale.append([1.0, -1.0, *factors])

        scale = np.array(scale)
        return [scale[:, slots] if cols is None else coef[:, cols] * scale[:, slots]
                for _, _, cols, slots in self._patterns[:matrices]], delta


def coefficient_row(pipes, gas: GasProperties):
    """The one-lane (1, 4 P) coefficient table of NodeRule.fill for (PipeParams, OperatingPoint) pairs.

    Takes iso_coefficients pipe by pipe; pipe_dynamics.IsoTable gives the
    same numbers, bit for bit, for many operating points at once.
    """
    row = []
    for par, op in pipes:
        c = iso_coefficients(par, op, gas)
        row += (c.alpha, c.beta_pr, c.beta_pl, c.gamma)
    return [row]


@lru_cache(maxsize=None)
def _rule(kind: str, n: int) -> NodeRule:
    """The node rule of one element alone, every input external; one per kind and size."""
    n_inputs = len(_layout(kind, n)[4])
    return NodeRule([(kind, n)], [("u", i) for i in range(n_inputs)], n_inputs)


def _assemble(kind: str, coef, member_ids, gains=()) -> CompositeModel:
    """One element as its own network: the node rule with every input external.

    coef is the element's one-lane (1, 4 P) coefficient table (NodeRule.fill):
    coefficient_row of its member pipes for make_*, or the element's slice
    of the compiled network's checked table (netspec.build_elements). gains
    holds k for a gain element and is empty otherwise.
    """
    member_ids = tuple(member_ids)
    states, inputs, outputs, ports = element_signals(kind, member_ids)
    A, B, C, D, delta = _rule(kind, len(member_ids)).fill(coef, [gains])
    model = StateSpaceModel(A[0], B[0], C[0], D[0], states, inputs, outputs)
    return CompositeModel(model, kind, member_ids, ports,
                          delta=float(delta[0, 0]) if delta.size else None)


def _rel_close(a, b, tol=NOMINAL_RTOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def check_flows(kind: str, flows):
    """Raise the ConfigurationError of make_<kind> unless each member flow is positive.

    Joint, branch and series members need positive nominal flow; a pipe
    has no check.
    """
    if kind != "pipe" and not all(q > 0.0 for q in flows):
        raise ConfigurationError("composite requires positive nominal flow")


def check_members(kind: str, ops, check_nominal: bool):
    """Raise the ConfigurationError of make_<kind> for these member operating points.

    Joint, branch and series members need positive nominal flow; with
    check_nominal their flows and pressures must also agree at every
    junction (_check_junctions). A pipe has no check.
    """
    q = [op.q_ss for op in ops]
    check_flows(kind, q)
    if check_nominal:
        _check_junctions(kind, q, [op.p_l_ss for op in ops], [op.p_r_ss for op in ops])


def _check_junctions(kind: str, q, p_l, p_r):
    """Raise the ConfigurationError of make_<kind> unless member flows and pressures agree."""
    if kind in ("joint", "branch") and not _rel_close(q[0], q[1] + q[2]):
        raise ConfigurationError(
            f"inconsistent nominals: {kind} requires q0_ss = q1_ss + q2_ss")
    if kind == "joint" and not _rel_close(p_r[1], p_r[2]):
        raise ConfigurationError("inconsistent nominals: joint requires p1_r_ss = p2_r_ss")
    if kind == "series":
        for i in range(1, len(q)):
            if not _rel_close(q[i - 1], q[i]):
                raise ConfigurationError("inconsistent nominals: series requires equal flow")
            if not _rel_close(p_r[i - 1], p_l[i]):
                raise ConfigurationError(
                    "inconsistent nominals: series requires chained pressures")


def check_gain(k: float):
    """Raise the ConfigurationError of make_gain for k: it must be finite and nonzero."""
    if k == 0.0:
        raise ConfigurationError("gain k must be nonzero")
    if not math.isfinite(k):
        raise ConfigurationError(f"gain k must be finite, got {k!r}")


def make_pipe(params: PipeParams, op: OperatingPoint, gas: GasProperties,
              element_id: str = "P") -> CompositeModel:
    """Single isothermal pipe wrapped as a network element."""
    return _assemble("pipe", coefficient_row([(params, op)], gas), (element_id,))


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
    check_members("joint", [op for _, op in (pipe0, pipe1, pipe2)], check_nominal)
    return _assemble("joint", coefficient_row((pipe0, pipe1, pipe2), gas), member_ids)


def make_branch(pipe0, pipe1, pipe2, gas: GasProperties,
                member_ids=("P0", "P1", "P2"),
                check_nominal: bool = True) -> CompositeModel:
    """Pipe 0 splitting into pipes 1 and 2; six-state model (no reduction).

    States [p_0r, p_1r, p_2r, q_0l, q_1l, q_2l]; inputs [p_0l, q_1r, q_2r];
    outputs [p_1r, p_2r, q_0l].
    """
    check_members("branch", [op for _, op in (pipe0, pipe1, pipe2)], check_nominal)
    return _assemble("branch", coefficient_row((pipe0, pipe1, pipe2), gas), member_ids)


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
    check_members("series", [op for _, op in pipes], check_nominal)
    return _assemble("series", coefficient_row(pipes, gas), member_ids)


def make_gain(k: float, element_id: str = "G") -> CompositeModel:
    """Static two-port gain (compressor or valve): p_r = k p_l, q_l = q_r."""
    check_gain(k)
    return _assemble("gain", [[]], (element_id,), (k,))
