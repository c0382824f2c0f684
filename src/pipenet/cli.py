"""Command line driver: pipenet <build|dcgain|eig|bode|sim|mason|sweep>.

All numeric output is CSV (comma separated, '.' decimal, header row, LF
line endings) written to stdout or, with -o, to a file. The environment
variable PIPENET_PRECISION controls printed precision (significant
digits p, default 6, at most MAX_PRECISION).

Every number is printed exactly as Python's "%.pg" % x prints it. Tables
of 1024 cells or more are formatted by csvfmt in blocks of rows with
numpy arithmetic, which decides the digits of most cells and hands the
rest (nan, inf, near-ties of the rounding, exponents beyond +-290) to
"%" cell by cell; each block is written as soon as it is made. Smaller
tables, and every table at p >= 15, are printed with one "%" per row.

`sim` prints its rows as the simulation makes them (simulate.lti_rows),
a block at a time. It passes the --inputs file on as the file holds it:
one row, which simulate holds for every step, or one row per time
point. So only the time array, and a time-varying input file, grow with
--T. Every error, including a malformed --inputs file, is raised before
the first byte is written: a failed `sim` writes nothing and creates no
-o file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np

from . import analysis, csvfmt, netspec, simulate
from .errors import ConfigurationError, NominalWarning, PipenetError
from .interconnect import select_outputs

MASON_EXIT_TOLERANCE = 1e-6

# no double's exact decimal value has more significant digits: from here on
# "%.pg" prints the same text for every p, and "%" refuses p >= 2**31
MAX_PRECISION = 767


def _precision() -> int:
    try:
        p = int(os.environ.get("PIPENET_PRECISION", "6"))
    except ValueError:
        p = 6
    return min(max(1, p), MAX_PRECISION)


def _emit(blocks, path=None):
    """Write each block of CSV bytes as it is made, to stdout or to path."""
    if path is None:
        for block in blocks:
            sys.stdout.write(block.decode())
    else:
        with open(path, "wb") as fh:
            fh.writelines(blocks)


def _csv(header, rows, labels=None):
    """CSV blocks: the header, then one line per row of a 2-D float array.

    labels, if given, prefix each row with a text cell. Every number is
    printed as "%.pg" % x at p = _precision(); see csvfmt.
    """
    return csvfmt.table(header, np.asarray(rows, dtype=float), _precision(), labels)


def _load_closed(path):
    return netspec.build_closed(netspec.load(path))


def cmd_build(args) -> int:
    model = _load_closed(args.file)
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
    model = _load_closed(args.file)
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
    model = _load_closed(args.file)
    eigs = np.array(sorted(analysis.eigenvalues(model), key=lambda z: (z.real, z.imag)))
    _emit(_csv(["re", "im"], np.column_stack([eigs.real, eigs.imag])), args.output)
    return 0


def _omega_grid(args):
    return analysis.log_grid(args.wmin, args.wmax, args.n)


def cmd_bode(args) -> int:
    model = _load_closed(args.file)
    omegas = _omega_grid(args)
    fr = analysis.freq_response(model, omegas)
    ins = [str(s) for s in model.input_labels]
    pairs = [f"{out_lab}<-{in_lab}" for out_lab in map(str, model.output_labels) for in_lab in ins]
    header = ["omega"] + [f"{kind}:{pair}" for pair in pairs for kind in ("mag", "phase")]
    # columns omega, then (magnitude, phase) per (output, input) pair
    H = fr.H.reshape(len(omegas), -1)
    rows = np.empty((len(omegas), 1 + 2 * H.shape[1]))
    rows[:, 0] = omegas
    rows[:, 1::2] = np.abs(H)
    rows[:, 2::2] = np.angle(H)
    _emit(_csv(header, rows), args.output)
    return 0


def cmd_sim(args) -> int:
    for name, value in (("--dt", args.dt), ("--T", args.T)):
        if not 0.0 < value < math.inf:
            raise ConfigurationError(f"{name} must be a positive finite number, got {value}")
    model = _load_closed(args.file)
    steps = args.T / args.dt
    try:
        t = np.arange(int(round(steps)) + 1, dtype=float)
    except (OverflowError, ValueError, MemoryError):
        raise ConfigurationError(
            f"--T / --dt gives {steps:.6g} steps, too many to allocate") from None
    t *= args.dt
    u = np.zeros(model.n_inputs)
    if args.inputs:  # the file's columns in the model's input order, held as the file holds them
        names, data = _read_inputs(args.inputs)
        cols = []
        for lab in map(str, model.input_labels):
            if lab not in names:
                raise PipenetError(f"inputs file missing channel {lab}")
            if len(data) not in (1, len(t)):
                raise PipenetError(
                    f"inputs file rows ({len(data)}) do not match the grid ({len(t)})")
            cols.append(names.index(lab))
        if cols:
            u = data[0, cols] if len(data) == 1 else data[:, cols]
    rows = simulate.lti_rows(model, t, u)  # raises every error before a row is made
    header = ["t"] + [str(s) for s in model.output_labels]
    _emit(csvfmt.stream(header, _with_time(t, rows), _precision(), len(t) * len(header)),
          args.output)
    return 0


def _with_time(t, blocks):
    """Each block of rows with its times in front."""
    lo = 0
    for block in blocks:
        yield np.column_stack([t[lo:lo + len(block)], block])
        lo += len(block)


def _read_inputs(path):
    """(channel names, (rows, channels) array) of an --inputs CSV file.

    The first line that is not blank names the channels, one per cell; a
    '#' in front of it is dropped, as np.savetxt writes a header. Every
    further line holds one number per channel. Blank lines, and text after
    a '#', are skipped; cells are stripped of spaces. A malformed file is
    a PipenetError that names the file and the line.
    """
    from array import array  # imported here, so that importing the cli loads no more modules

    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise PipenetError(f"inputs file {path} is not UTF-8 text") from None
    names, values = None, array("d")  # every number, row after row: 8 bytes each
    for number, line in enumerate(lines, 1):
        if names is None:
            line = line.strip().removeprefix("#")
        cells = [cell.strip() for cell in line.split("#", 1)[0].split(",")]
        if cells == [""]:
            continue
        if names is None:
            names = cells
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise PipenetError(f"inputs file {path} names channel {name!r} twice")
            continue
        if len(cells) != len(names):
            raise PipenetError(f"inputs file {path}, line {number}: {len(cells)} cells, "
                               f"but the header names {len(names)} channels")
        try:
            values.extend(map(float, cells))
        except ValueError:
            raise PipenetError(f"inputs file {path}, line {number}: "
                               f"not a number in {line.strip()!r}") from None
    if names is None:
        raise PipenetError(f"inputs file {path} is empty: expected a header naming the channels")
    return names, np.frombuffer(values).reshape(-1, len(names))


def cmd_mason(args) -> int:
    spec = netspec.load(args.file)
    stacked, conn = netspec.elaborate(spec)
    dev = analysis.mason_check(stacked, conn, _omega_grid(args), netspec.build_closed(spec))
    print("max relative deviation = %.*g" % (_precision(), dev))
    return 0 if dev <= MASON_EXIT_TOLERANCE else 2


def cmd_sweep(args) -> int:
    if args.n < 1:
        raise ConfigurationError(f"--n must be at least 1, got {args.n}")
    spec = netspec.load(args.file)
    try:
        ks = np.linspace(args.kmin, args.kmax, args.n)
    except (ValueError, IndexError, MemoryError):  # numpy's refusals of a count it cannot hold
        raise ConfigurationError(
            f"--n gives {args.n:.6g} gain values, too many to allocate") from None
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
