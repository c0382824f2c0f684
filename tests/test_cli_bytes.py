"""CLI output bytes equal the row-wise "%" reference for every command and precision.

Each case runs one command on one network at PIPENET_PRECISION 1, 3, 6,
12 and 17, three times per precision: to stdout, with -o (or
--dump-matrices), and to stdout with csvfmt.CROSSOVER raised past every
table, so that every cell is printed by one "%" per row (the reference).
The numerical results are memoized per network, so the runs after the
first differ only in printing.
"""

import math
import os

import numpy as np
import pytest

from pipenet import analysis, cli, csvfmt, netspec, simulate

from conftest import chain_text, mesh_text

DEMO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos", "loop.pipenet")
PRECISIONS = (1, 3, 6, 12, 17)
NETWORKS = {"loop": ("C", "600"), "chain": ("K19", "2"), "mesh": ("K3", "2")}
COMMANDS = {
    "build": ["--dump-matrices"],
    "dcgain": [],
    "dcgain_flows": ["--flows-only"],
    "eig": [],
    "bode": ["--n", "20"],
    "sim": ["--dt", "0.5", "--T", "50"],
    "sweep": ["--kmin", "1", "--kmax", "2"],
}
# cases with a table of csvfmt.CROSSOVER cells or more
BLOCK_PATH = {(network, command) for network in NETWORKS for command in ("bode", "sim")}
BLOCK_PATH |= {("chain", "build"), ("mesh", "build"), ("loop", "sweep")}
MEMOIZED = [(cli, "_load_closed"), (netspec, "load"), (analysis, "dc_gain"),
            (analysis, "dc_gain_to_states"), (analysis, "eigenvalues"),
            (analysis, "freq_response"), (analysis, "stability_margin_sweep"),
            (simulate, "simulate_lti")]


def _key(value):
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if value is None or isinstance(value, (str, int, float)):
        return value
    return id(value)  # a memoized spec or model, kept alive by the cache


def _memo(fn, cache):
    def memoized(*args):
        key = (fn.__name__,) + tuple(map(_key, args))
        if key not in cache:
            cache[key] = fn(*args)
        return cache[key]
    return memoized


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Network paths by name, with the numerical functions memoized meanwhile."""
    root = tmp_path_factory.mktemp("networks")
    paths = {"loop": DEMO}
    for name, text in (("chain", chain_text(200, np.random.default_rng(7))),
                       ("mesh", mesh_text(25, np.random.default_rng(7)))):
        paths[name] = str(root / f"{name}.pipenet")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    with pytest.MonkeyPatch.context() as mp:
        cache = {}
        for owner, name in MEMOIZED:
            mp.setattr(owner, name, _memo(getattr(owner, name), cache))
        yield paths


def _argv(command, network, path, out):
    argv = [command.split("_")[0], path] + COMMANDS[command]
    if command == "sweep":
        element, n = NETWORKS[network]
        argv += ["--element", element, "--n", n]
    if command == "build":
        return argv + [out]
    return argv + ["-o", out] if out else argv


def _written(command, out):
    names = [f"{out}.{m}.csv" for m in "ABCD"] if command == "build" else [out]
    data = []
    for name in names:
        with open(name, "rb") as fh:
            data.append(fh.read())
    return data


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("network", list(NETWORKS))
def test_cli_bytes_match_rowwise_reference(files, network, command, tmp_path, capsys,
                                           monkeypatch):
    blocks = []  # the precision of every csvfmt.block call
    block = csvfmt.block

    def counted(rows, p, labels=None):
        blocks.append(p)
        return block(rows, p, labels)

    monkeypatch.setattr(csvfmt, "block", counted)
    path = files[network]
    for p in PRECISIONS:
        monkeypatch.setenv("PIPENET_PRECISION", str(p))
        runs = {}
        for kind in ("stdout", "file", "reference"):
            out = str(tmp_path / f"{kind}{p}")
            with monkeypatch.context() as m:
                if kind == "reference":
                    m.setattr(csvfmt, "CROSSOVER", math.inf)
                use_out = kind != "stdout" or command == "build"
                assert cli.main(_argv(command, network, path, out if use_out else None)) == 0
            stdout = capsys.readouterr().out.encode()
            runs[kind] = (stdout, _written(command, out) if use_out else [stdout])
        assert runs["stdout"][1] == runs["reference"][1], f"precision {p}"
        assert runs["file"][1] == runs["reference"][1], f"precision {p}"
        assert runs["file"][0] == runs["reference"][0], f"precision {p}"
    if (network, command) in BLOCK_PATH:
        assert set(blocks) == {p for p in PRECISIONS if p <= csvfmt.MAX_FAST_P}
