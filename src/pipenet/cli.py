"""Command line driver: pipenet <build|dcgain|eig|bode|sim|mason|sweep>.

All numeric output is CSV (comma separated, '.' decimal, header row, LF
line endings) written to stdout or, with -o, to a file. The environment
variable PIPENET_PRECISION controls printed precision (significant
digits, default 6).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import analysis, netspec, simulate
from .errors import NominalWarning, PipenetError
from .interconnect import select_outputs

MASON_EXIT_TOLERANCE = 1e-6


def _precision() -> int:
    try:
        p = int(os.environ.get("PIPENET_PRECISION", "6"))
    except ValueError:
        p = 6
    return max(1, p)


def _fmt(x, p: int) -> str:
    return f"{x:.{p}g}"


def _emit(lines, path=None):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(header, rows, labels=None):
    """CSV lines: the header, then one line per row of a 2-D float array.

    labels, if given, prefix each row with a text cell. Every number is
    printed as by _fmt ("%.pg" and f"{x:.pg}" agree on all floats).
    """
    rows = np.asarray(rows, dtype=float)
    cells = [f"%.{_precision()}g"] * rows.shape[1]
    lines = [",".join(header)]
    if labels is None:
        fmt = ",".join(cells)
        lines += [fmt % tuple(row) for row in rows.tolist()]
    else:
        fmt = ",".join(["%s"] + cells)
        lines += [fmt % (lab, *row) for lab, row in zip(labels, rows.tolist())]
    return lines


def _load_closed(path):
    spec = netspec.load(path)
    return spec, netspec.build_closed(spec)


def cmd_build(args) -> int:
    spec, model = _load_closed(args.file)
    if args.select:
        labels = args.select.split(",")
        model = select_outputs(model, labels)
    print(f"states={model.n_states} inputs={model.n_inputs} outputs={model.n_outputs}")
    print("state labels: " + " ".join(str(s) for s in model.state_labels))
    print("input labels: " + " ".join(str(s) for s in model.input_labels))
    print("output labels: " + " ".join(str(s) for s in model.output_labels))
    if args.dump_matrices:
        base = args.dump_matrices
        s_labels = [str(s) for s in model.state_labels]
        u_labels = [str(s) for s in model.input_labels]
        y_labels = [str(s) for s in model.output_labels]
        for name, M, rows, cols in (("A", model.A, s_labels, s_labels),
                                    ("B", model.B, s_labels, u_labels),
                                    ("C", model.C, y_labels, s_labels),
                                    ("D", model.D, y_labels, u_labels)):
            _emit(_csv([""] + cols, M, rows), f"{base}.{name}.csv")
    return 0


def cmd_dcgain(args) -> int:
    spec, model = _load_closed(args.file)
    u_labels = [str(s) for s in model.input_labels]
    if args.flows_only:
        # composite outputs hide interior flows; read them off the states
        G = analysis.dc_gain_to_states(model)
        rows = [i for i, lab in enumerate(model.state_labels) if lab.quantity == "q"]
        G, labels = G[rows], [model.state_labels[i] for i in rows]
    else:
        G, labels = analysis.dc_gain(model), model.output_labels
    _emit(_csv([""] + u_labels, G, [str(lab) for lab in labels]), args.output)
    return 0


def cmd_eig(args) -> int:
    spec, model = _load_closed(args.file)
    eigs = np.array(sorted(analysis.eigenvalues(model), key=lambda z: (z.real, z.imag)))
    _emit(_csv(["re", "im"], np.column_stack([eigs.real, eigs.imag])), args.output)
    return 0


def _omega_grid(args):
    return analysis.log_grid(args.wmin, args.wmax, args.n)


def cmd_bode(args) -> int:
    spec, model = _load_closed(args.file)
    omegas = _omega_grid(args)
    fr = analysis.freq_response(model, omegas)
    header = ["omega"]
    for o, out_lab in enumerate(model.output_labels):
        for i, in_lab in enumerate(model.input_labels):
            header += [f"mag:{out_lab}<-{in_lab}", f"phase:{out_lab}<-{in_lab}"]
    # columns omega, then (magnitude, phase) per (output, input) pair
    H = fr.H.reshape(len(omegas), -1)
    rows = np.empty((len(omegas), 1 + 2 * H.shape[1]))
    rows[:, 0] = omegas
    rows[:, 1::2] = np.abs(H)
    rows[:, 2::2] = np.angle(H)
    _emit(_csv(header, rows), args.output)
    return 0


def cmd_sim(args) -> int:
    spec, model = _load_closed(args.file)
    n_steps = int(round(args.T / args.dt)) + 1
    t = np.arange(n_steps) * args.dt
    u = np.zeros((n_steps, model.n_inputs))
    if args.inputs:
        data = np.genfromtxt(args.inputs, delimiter=",", names=True)
        names = data.dtype.names
        cols = {name: np.atleast_1d(data[name]) for name in names}
        for i, lab in enumerate(model.input_labels):
            if str(lab) not in cols:
                raise PipenetError(f"inputs file missing channel {lab}")
            col = cols[str(lab)]
            if len(col) == 1:
                u[:, i] = col[0]
            elif len(col) == n_steps:
                u[:, i] = col
            else:
                raise PipenetError(
                    f"inputs file rows ({len(col)}) do not match the grid ({n_steps})")
    ts = simulate.simulate_lti(model, t, u)
    header = ["t"] + [str(s) for s in ts.labels]
    _emit(_csv(header, np.column_stack([ts.t, ts.values])), args.output)
    return 0


def cmd_mason(args) -> int:
    spec = netspec.load(args.file)
    stacked, conn = netspec.elaborate(spec)
    dev = analysis.mason_check(stacked, conn, _omega_grid(args), netspec.build_closed(spec))
    print(f"max relative deviation = {_fmt(dev, _precision())}")
    return 0 if dev <= MASON_EXIT_TOLERANCE else 2


def cmd_sweep(args) -> int:
    spec = netspec.load(args.file)
    ks = np.linspace(args.kmin, args.kmax, args.n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NominalWarning)
        margins = analysis.stability_margin_sweep(spec, args.element, ks)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    _emit(_csv(["k", "max_re"], np.column_stack([ks, margins])), args.output)
    return 0


def _add_common(p):
    p.add_argument("file", help="network description (.pipenet)")
    p.add_argument("-o", "--output", default=None, help="write CSV here instead of stdout")


def _add_grid(p):
    p.add_argument("--wmin", type=float, default=1e-3)
    p.add_argument("--wmax", type=float, default=1e3)
    p.add_argument("--n", type=int, default=20)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pipenet",
                                 description="LTI models of gas pipe networks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="summarize the closed network model")
    _add_common(p)
    p.add_argument("--dump-matrices", default=None, metavar="PREFIX",
                   help="write A,B,C,D as PREFIX.{A,B,C,D}.csv")
    p.add_argument("--select", default=None,
                   help="comma-separated output labels to keep")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("dcgain", help="steady-state gain matrix")
    _add_common(p)
    p.add_argument("--flows-only", action="store_true",
                   help="rows restricted to mass-flow channels")
    p.set_defaults(func=cmd_dcgain)

    p = sub.add_parser("eig", help="closed-loop eigenvalues")
    _add_common(p)
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("bode", help="frequency response samples")
    _add_common(p)
    _add_grid(p)
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("sim", help="linear time-domain simulation")
    _add_common(p)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--inputs", default=None,
                   help="CSV of input channels (1 row = constant)")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("mason", help="signal-flow-graph equivalence check")
    p.add_argument("file")
    _add_grid(p)
    p.set_defaults(func=cmd_mason)

    p = sub.add_parser("sweep", help="gain sweep of the stability margin")
    _add_common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--kmin", type=float, required=True)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--n", type=int, default=25)
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipenetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
