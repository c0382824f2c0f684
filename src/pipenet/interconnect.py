"""Closure of element models into one network model: the build path and its oracle.

Every component input is fed by exactly one source, a component output
(through a link) or a declared external input (_drivers).

Build path, assemble: each input is resolved along its links to one state
or one external input. A pipe's output is one of its states; a gain's
output is its D factor times the gain's own input, so a chain of gains
multiplies its factors. A, B, C and D are filled from the elements'
nonzeros and these resolutions as COO triplets and are made dense only
for the StateSpaceModel; no (I - D F)^-1 is formed. A ring of gains with
no pipe in it has no resolution: its flow cycle has gain 1, so I - D F
is singular, and it is rejected as an algebraic loop.

Oracle path, stack -> build_FG -> close: the element models are stacked
block-diagonally, 0/1 connection matrices F (component outputs ->
component inputs) and G (external inputs -> component inputs) route the
inputs, and the interconnection is eliminated in closed form:

    A_cl = A + B F (I - D F)^-1 C
    B_cl = B [I + F (I - D F)^-1 D] G
    C_cl = (I - D F)^-1 C
    D_cl = (I - D F)^-1 D G

close evaluates it with one dense M = (I - D F)^-1 as C_cl = M C,
D_cl = M (D G), A_cl = A + (B F) C_cl and B_cl = B G + (B F) D_cl.
analysis.mason_check and `pipenet mason` check closed models against the
signal-flow graph of this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .composites import Port
from .core import StateSpaceModel
from .errors import ConfigurationError, NumericalError

CONDITION_LIMIT = 1e12

_ILL_POSED = "algebraic loop ill-posed: I - D F is singular or ill-conditioned"


@dataclass(frozen=True)
class ComponentRange:
    """Index ranges of one element inside the stacked system."""

    states: range
    inputs: range
    outputs: range


@dataclass(frozen=True)
class StackedSystem:
    """Block-diagonal aggregation of element models, in declaration order."""

    model: StateSpaceModel
    component_boundaries: tuple[ComponentRange, ...]


@dataclass(frozen=True)
class ConnectionMatrices:
    """0/1 routing w = F y + G u_ext, held as dense arrays.

    Every row of [F G] contains exactly one 1: each component input is fed
    by exactly one component output or one external input.
    """

    F: np.ndarray
    G: np.ndarray


def _block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix; a block with no rows or columns still shifts the other axis."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def stack(models: list[StateSpaceModel]) -> StackedSystem:
    """Stack element models block-diagonally, concatenating their labels."""
    if not models:
        raise ConfigurationError("cannot stack an empty model list")
    A = _block_diag([m.A for m in models])
    B = _block_diag([m.B for m in models])
    C = _block_diag([m.C for m in models])
    D = _block_diag([m.D for m in models])
    states, inputs, outputs = [], [], []
    boundaries = []
    for m in models:
        boundaries.append(ComponentRange(
            range(len(states), len(states) + m.n_states),
            range(len(inputs), len(inputs) + m.n_inputs),
            range(len(outputs), len(outputs) + m.n_outputs),
        ))
        states.extend(m.state_labels)
        inputs.extend(m.input_labels)
        outputs.extend(m.output_labels)
    model = StateSpaceModel(A, B, C, D, tuple(states), tuple(inputs), tuple(outputs))
    return StackedSystem(model, tuple(boundaries))


def _drivers(input_labels, input_index, output_index, links, externals) -> list:
    """Source of every component input: ("y", output index) or ("u", external column).

    Each link (right_port, left_port) expands to two signal identities:
    the right port's pressure output feeds the left port's pressure input,
    and the left port's flow output feeds the right port's flow input.
    Each external (name, port) drives the port's input signal; external
    columns follow declaration order. input_index and output_index map a
    label to its position. Raises ConfigurationError for a link between
    incompatible flanges and for an input with two drivers or none.
    """
    driven = [None] * len(input_labels)

    def drive(input_label, source):
        i = input_index(input_label)
        if driven[i] is not None:
            raise ConfigurationError(f"conflicting drivers for {input_label}")
        driven[i] = source

    for right, left in links:
        if right.flange != "r" or left.flange != "l":
            raise ConfigurationError(
                f"incompatible flanges: link must connect a right flange to a left flange "
                f"(got {right.flange!r}-{left.flange!r})")
        drive(left.input_label, ("y", output_index(right.output_label)))
        drive(right.input_label, ("y", output_index(left.output_label)))
    for col, (name, port) in enumerate(externals):
        drive(port.input_label, ("u", col))

    for i, src in enumerate(driven):
        if src is None:
            raise ConfigurationError(f"unconnected component input {input_labels[i]}")
    return driven


def build_FG(stacked: StackedSystem, links: list[tuple[Port, Port]],
             externals: list[tuple[str, Port]]) -> ConnectionMatrices:
    """Connection matrices of the port links and external inputs (see _drivers)."""
    model = stacked.model
    F = np.zeros((model.n_inputs, model.n_outputs))
    G = np.zeros((model.n_inputs, len(externals)))
    drivers = _drivers(model.input_labels, model.input_index, model.output_index,
                       links, externals)
    for i, (kind, col) in enumerate(drivers):
        (F if kind == "y" else G)[i, col] = 1.0
    return ConnectionMatrices(F, G)


def _triplets(groups, row_offsets, col_offsets) -> list:
    """Nonzeros of block-diagonal matrices, as one (rows, cols, values) per group.

    groups[g] holds the diagonal blocks of matrix g; row_offsets[g] and
    col_offsets[g] hold the position of each block. One pass for all groups.
    """
    blocks = [b for group in groups for b in group]
    flat = np.concatenate([b.ravel() for b in blocks])
    pos = np.flatnonzero(flat)
    starts = np.cumsum([0] + [b.size for b in blocks[:-1]])
    e = np.searchsorted(starts, pos, side="right") - 1  # the block of each nonzero
    r, c = np.divmod(pos - starts[e], np.array([b.shape[1] for b in blocks])[e])
    r += np.concatenate(row_offsets)[e]
    c += np.concatenate(col_offsets)[e]
    v = flat[pos]
    # nonzeros come in block order, so each group's are one slice
    bounds = [0, *np.searchsorted(e, np.cumsum([len(g) for g in groups])).tolist()]
    return [(r[a:b], c[a:b], v[a:b]) for a, b in zip(bounds, bounds[1:])]


def _dense(shape, triplets) -> np.ndarray:
    """Dense array that sums the (rows, cols, values) triplets in the order given."""
    out = np.zeros(shape)
    for r, c, v in triplets:
        np.add.at(out, (r, c), v)
    return out


def assemble(elements: list[StateSpaceModel], link_ports: list[tuple[Port, Port]],
             external_ports: list[tuple[str, Port]], external_labels) -> StateSpaceModel:
    """Close element models along their links (the build path, module docstring).

    Equals close(stack(elements), build_FG(...), external_labels), with the
    same labels: the elements' states and outputs in order, and inputs
    external_labels. Each element output must be one state (one nonzero in
    its row of C and none in D) or one feed-through (one nonzero in D and
    none in C), as in every composites element. Raises the errors of
    stack and build_FG, and the NumericalError of close for a ring of
    gains or when ||I - D F||_F ||(I - D F)^-1||_F > CONDITION_LIMIT; the
    resolutions give both norms.
    """
    if not elements:
        raise ConfigurationError("cannot stack an empty model list")
    states, inputs, outputs, offsets = [], [], [], []
    for m in elements:
        offsets.append((len(states), len(inputs), len(outputs)))
        states.extend(m.state_labels)
        inputs.extend(m.input_labels)
        outputs.extend(m.output_labels)
    s0, i0, o0 = (np.array(col) for col in zip(*offsets))
    in_index = core.label_index(inputs, "input")
    out_index = core.label_index(outputs, "output")
    drivers = _drivers(inputs, lambda lab: core._index_of(in_index, lab, "input"),
                       lambda lab: core._index_of(out_index, lab, "output"),
                       link_ports, external_ports)

    a_nz, b_nz, c_nz, d_nz = _triplets(
        [[m.A for m in elements], [m.B for m in elements],
         [m.C for m in elements], [m.D for m in elements]],
        [s0, s0, o0, o0], [s0, i0, s0, i0])

    # source of each output: (coefficient, True, state) or (coefficient, False, input)
    source = [None] * len(outputs)
    for (rows, cols, vals), is_state in ((c_nz, True), (d_nz, False)):
        for j, k, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            source[j] = (v, is_state, k)
    if len(c_nz[0]) + len(d_nz[0]) != len(outputs) or None in source:  # one source each
        raise ConfigurationError("an element output is neither one state nor one feed-through")

    # Each output resolves to (factor, True, state) or (factor, False, external).
    # Row j of (I - D F)^-1 holds 1 at j and the running factor at each output
    # passed on the way; I - D F holds 1 on its diagonal and -coef where a
    # feed-through's input is fed by an output.
    resolved = []
    norm2_idf = len(outputs) + sum(coef * coef for coef, is_state, k in source
                                   if not is_state and drivers[k][0] == "y")
    norm2_inv = 0.0
    for j in range(len(outputs)):
        factor, seen = 1.0, {j}
        while True:
            norm2_inv += factor * factor
            coef, is_state, k = source[j]
            factor *= coef
            if is_state:
                break
            kind, k = drivers[k]
            if kind == "u":
                break
            if k in seen:
                raise NumericalError(_ILL_POSED)
            seen.add(k)
            j = k
        resolved.append((factor, is_state, k))
    if not math.sqrt(norm2_idf * norm2_inv) <= CONDITION_LIMIT:  # "not <=" rejects nan
        raise NumericalError(_ILL_POSED)

    y_factor, y_to_state, y_k = (np.array(col) for col in zip(*resolved))
    y = np.arange(len(outputs))
    # an input fed by external u_c resolves to (1, False, c), one fed by output j as j does
    u_factor, u_to_state, u_k = (np.array(col) for col in zip(
        *[(1.0, False, col) if kind == "u" else resolved[col] for kind, col in drivers]))
    b_rows, b_cols, b_vals = b_nz
    b_vals, b_k, on_state = b_vals * u_factor[b_cols], u_k[b_cols], u_to_state[b_cols]
    n, p, n_u = len(states), len(outputs), len(external_ports)
    A = _dense((n, n), [a_nz, (b_rows[on_state], b_k[on_state], b_vals[on_state])])
    B = _dense((n, n_u), [(b_rows[~on_state], b_k[~on_state], b_vals[~on_state])])
    C = _dense((p, n), [(y[y_to_state], y_k[y_to_state], y_factor[y_to_state])])
    D = _dense((p, n_u), [(y[~y_to_state], y_k[~y_to_state], y_factor[~y_to_state])])
    return StateSpaceModel(A, B, C, D, tuple(states), tuple(external_labels), tuple(outputs))


def close(stacked: StackedSystem, conn: ConnectionMatrices,
          external_labels: tuple | None = None) -> StateSpaceModel:
    """Eliminate internal signals, closing the network into one model.

    Outputs are all component outputs; inputs are the declared externals.
    """
    m = stacked.model
    F, G = conn.F, conn.G
    IDF = np.eye(m.n_outputs) - m.D @ F
    ill_posed = NumericalError(_ILL_POSED)
    try:
        M = np.linalg.inv(IDF)
    except np.linalg.LinAlgError:
        raise ill_posed from None
    # ||X||_F ||X^-1||_F bounds cond_2(X) from above; "not <=" also rejects nan
    if not np.linalg.norm(IDF) * np.linalg.norm(M) <= CONDITION_LIMIT:
        raise ill_posed
    BF = m.B @ F
    C_cl = M @ m.C
    D_cl = M @ (m.D @ G)
    A_cl = m.A + BF @ C_cl
    B_cl = m.B @ G + BF @ D_cl
    if external_labels is None:
        external_labels = tuple(f"u{j}" for j in range(G.shape[1]))
    return StateSpaceModel(A_cl, B_cl, C_cl, D_cl,
                           m.state_labels, external_labels, m.output_labels)


def select_outputs(model: StateSpaceModel, labels) -> StateSpaceModel:
    """Restrict and reorder the outputs to the requested labels."""
    rows = [model.output_index(lab) for lab in labels]
    return StateSpaceModel(model.A, model.B, model.C[rows, :], model.D[rows, :],
                           model.state_labels, model.input_labels,
                           tuple(model.output_labels[r] for r in rows))
