"""`pipenet build` and `dcgain` on one pipe with a value at the edge of the float range.

The compile takes every pipe's constants as columns. Where an
intermediate underflows to a subnormal or zero, or overflows, the columns
must give the IEEE result that Python's float arithmetic gives the
per-pipe formulas: some of these pipes build (with inf in A for
L = 1e-320), others end in the steady-state solve. A diameter whose A_c^2
overflows, or whose 2 d A_c^2 is zero, is refused as PipeParams refuses it.
A gas constant of 1e-200 builds a finite A whose DC gain has a pole at zero.
"""

import hashlib
import os
import subprocess
import sys
import warnings

import pytest

import pipenet
from pipenet import cli

PIPE = "pipe P L=10 d=0.7 lambda=0.01"
TEXT = ("gas Rs=518.28 z0=0.95 T0=300\n" + PIPE + "\n"
        "nominal * pl=25e5 q=21\ninput up = P.l\ninput uq = P.r\n")
BUILT = ("states=2 inputs=2 outputs=2\nstate labels: P.r.p P.l.q\n"
         "input labels: up uq\noutput labels: P.r.p P.l.q\n")
# numpy's warnings while the pipe table divides by A_c * L = 3.8e-321
OVERFLOW = "".join(f"<pipenet>/pipe_dynamics.py:{line}: RuntimeWarning: overflow encountered in "
                   f"divide\n  {text}\n"
                   for line, text in ((120, "self.alpha = -rtz / (A_c * L)"),
                                      (121, "self.beta_pr = -A_c / L"),
                                      (122, "self._beta_pl0 = A_c / L")))
DIVERGED = "error: steady-state solve diverged\n"

# pipe key=value -> (exit code, stderr, SHA-256 of the A, B, C and D files or None)
EDGES = {
    "L=1e-320": (0, OVERFLOW, "1105c8d809c86e0c31f0b8802b29fce550e2a85a2412a3ffde263a1e3b757b96"),
    "L=1e-300": (0, "", "2db947d6791ed0c528dc92d6001899ccbb29fba5caaba08c6849115eeb695f00"),
    "dh=1e-320": (0, "", "7276f6c70e8f199ecbd71af59eba10f36f168fb45271a91a9ebd362059b9c7b9"),
    "eps=1e-310": (0, "", "7276f6c70e8f199ecbd71af59eba10f36f168fb45271a91a9ebd362059b9c7b9"),
    "eps=nan": (0, "", "7276f6c70e8f199ecbd71af59eba10f36f168fb45271a91a9ebd362059b9c7b9"),
    "dout=nan": (0, "", "7276f6c70e8f199ecbd71af59eba10f36f168fb45271a91a9ebd362059b9c7b9"),
    "d=1e76": (0, "", "1e86a139be79b0eb30b9a7226f0597334961a74bff217c8893db799f87279036"),
    "L=1e300": (1, DIVERGED, None),
    "L=1e308": (1, DIVERGED, None),
    "dh=nan": (1, DIVERGED, None),
    "d=1e-64": (1, DIVERGED, None),
}


def pipe_file(tmp_path, fault):
    """The one-pipe network with one pipe key set to a value (key=value)."""
    keys = dict(kv.split("=") for kv in PIPE.split()[2:])
    key, value = fault.split("=")
    keys[key] = value
    path = tmp_path / "edge.pipenet"
    path.write_text(TEXT.replace(PIPE, "pipe P " + " ".join(f"{k}={v}" for k, v in keys.items())))
    return path


@pytest.mark.parametrize("fault", list(EDGES))
def test_edge_value_build_record(tmp_path, fault):
    # each build in an interpreter of its own, so numpy's warnings print once, as in a shell
    code, err, digest = EDGES[fault]
    src = os.path.dirname(os.path.dirname(pipenet.__file__))
    out = subprocess.run([sys.executable, "-m", "pipenet.cli", "build", str(pipe_file(tmp_path, fault)),
                          "--dump-matrices", str(tmp_path / "m")],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == code
    assert out.stdout == (BUILT if code == 0 else "")
    assert out.stderr.replace(os.path.dirname(pipenet.__file__), "<pipenet>") == err
    dumped = sorted(p.name for p in tmp_path.glob("m.*"))
    if digest is None:
        assert dumped == []
    else:
        assert dumped == ["m.A.csv", "m.B.csv", "m.C.csv", "m.D.csv"]
        blob = b"".join((tmp_path / name).read_bytes() for name in dumped)
        assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("fault", ["d=1e-66", "d=1e-200", "d=1e78", "d=1e200"])
def test_diameter_out_of_range_exit_one(tmp_path, capsys, fault):
    path = pipe_file(tmp_path, fault)
    assert cli.main(["build", str(path), "--dump-matrices", str(tmp_path / "m")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    d = float(fault.split("=")[1])
    assert captured.err == (f"error: pipe diameter d must keep A_c**2 finite and 2*d*A_c**2 "
                            f"nonzero, got {d!r}\n")
    assert not list(tmp_path.glob("m.*"))


@pytest.mark.parametrize("key", ["Rs", "z0", "T0"])
@pytest.mark.parametrize("flows_only", [False, True], ids=["outputs", "flows_only"])
def test_tiny_gas_constant_dcgain_is_a_pole_at_zero(tmp_path, capsys, key, flows_only):
    # A is finite, |lambda| ~ 1.7e-100 <= eps ||A||_1, but the Arnoldi step on A^-1
    # overflows: that is the pole at zero, with no numpy warning and no traceback
    gas = {"Rs": "518.28", "z0": "0.95", "T0": "300", key: "1e-200"}
    path = tmp_path / "gas.pipenet"
    path.write_text(TEXT.replace("gas Rs=518.28 z0=0.95 T0=300",
                                 "gas " + " ".join(f"{k}={v}" for k, v in gas.items())))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["dcgain", *(["--flows-only"] if flows_only else []), str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: system has a pole at zero; DC gain undefined\n"
