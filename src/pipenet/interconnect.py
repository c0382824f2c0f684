"""Closure of element models into one network model: the oracle path.

Every component input is fed by exactly one source, a component output
(through a link) or a declared external input (wire). The build path,
netspec.build_closed, wires input indices from port offsets and resolves
each input along its sources with the whole-network node rule
(composites.NodeRule); it forms no (I - D F)^-1. The oracle path wires
the same way over port labels (_drivers).

The oracle path is stack -> build_FG -> close: the element models are
stacked block-diagonally, 0/1 connection matrices F (component outputs ->
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

from dataclasses import dataclass

import numpy as np

from .composites import _ILL_POSED, CONDITION_LIMIT, Port
from .core import StateSpaceModel
from .errors import ConfigurationError, NumericalError


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


def _check_flanges(right: str, left: str):
    if right != "r" or left != "l":
        raise ConfigurationError(
            f"incompatible flanges: link must connect a right flange to a left flange "
            f"(got {right!r}-{left!r})")


def wire(n_inputs: int, links, externals, input_label) -> list:
    """Source of every component input: ("y", output index) or ("u", external column).

    A port end is (flange, input index, output index). Each link (right
    end, left end) expands to two signal identities: the right end's
    pressure output feeds the left end's pressure input, and the left
    end's flow output feeds the right end's flow input. externals gives
    the end of each external input in column order; it drives that end's
    input. Both are read in order, once. input_label(i) names input i in
    an error. Raises ConfigurationError for a link between incompatible
    flanges and for an input with two drivers or none.
    """
    driven = [None] * n_inputs

    def drive(i, source):
        if driven[i] is not None:
            raise ConfigurationError(f"conflicting drivers for {input_label(i)}")
        driven[i] = source

    for (r_flange, r_in, r_out), (l_flange, l_in, l_out) in links:
        _check_flanges(r_flange, l_flange)
        drive(l_in, ("y", r_out))
        drive(r_in, ("y", l_out))
    for col, (_, i, _) in enumerate(externals):
        drive(i, ("u", col))

    for i, src in enumerate(driven):
        if src is None:
            raise ConfigurationError(f"unconnected component input {input_label(i)}")
    return driven


def _drivers(input_labels, input_index, output_index, links, externals) -> list:
    """Source of every component input (wire), from Port objects.

    links holds (right_port, left_port) pairs and externals (name, port)
    pairs; input_index and output_index map a label to its position. A
    link's flanges are checked before its labels are looked up.
    """
    def pairs():
        for right, left in links:
            _check_flanges(right.flange, left.flange)
            yield ((right.flange, input_index(right.input_label), output_index(right.output_label)),
                   (left.flange, input_index(left.input_label), output_index(left.output_label)))

    return wire(len(input_labels), pairs(),
                ((port.flange, input_index(port.input_label), None) for _, port in externals),
                input_labels.__getitem__)


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
