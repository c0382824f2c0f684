import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pipenet import cli, csvfmt

from conftest import LOOP_TEXT
from test_build_errors import GAIN_BETWEEN
from test_compile import ZERO_GAIN_NO_NOMINAL


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.pipenet"
    path.write_text(LOOP_TEXT)
    return str(path)


def run(args):
    return cli.main(args)


def test_build_summary(loop_file, capsys):
    assert run(["build", loop_file]) == 0
    out = capsys.readouterr().out
    assert "states=19 inputs=3 outputs=15" in out
    assert "P3.r.p" in out


def test_build_select(loop_file, capsys):
    assert run(["build", loop_file, "--select", "P6.r.p,P7.r.p"]) == 0
    out = capsys.readouterr().out
    assert "outputs=2" in out


def test_build_dump_matrices(loop_file, tmp_path, capsys):
    prefix = str(tmp_path / "mats")
    assert run(["build", loop_file, "--dump-matrices", prefix]) == 0
    A = np.genfromtxt(f"{prefix}.A.csv", delimiter=",", skip_header=1)
    assert A.shape == (19, 20)  # label column plus 19 numeric columns


def test_dcgain_flows_only(loop_file, capsys):
    assert run(["dcgain", loop_file, "--flows-only"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",fill,dist,vent"
    assert len(lines) == 11  # header + ten flow channels
    row = dict()
    for line in lines[1:]:
        parts = line.split(",")
        row[parts[0]] = [float(v) for v in parts[1:]]
    assert row["P2.l.q"][0] == pytest.approx(0.184, abs=1e-2)
    assert row["P2.l.q"][2] == pytest.approx(-1.022, abs=1e-2)


def test_eig_csv(loop_file, capsys):
    assert run(["eig", loop_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 20
    assert all(float(line.split(",")[0]) < 0 for line in lines[1:])


def test_mason_exit_zero(loop_file, capsys):
    assert run(["mason", loop_file]) == 0
    assert "max relative deviation" in capsys.readouterr().out


def test_bode_csv(loop_file, capsys):
    assert run(["bode", loop_file, "--wmin", "0.01", "--wmax", "1", "--n", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("omega,mag:")
    assert len(lines) == 6


def test_sim_csv(loop_file, capsys):
    assert run(["sim", loop_file, "--dt", "0.01", "--T", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 12


def test_sweep_csv(loop_file, capsys):
    assert run(["sweep", loop_file, "--element", "C",
                "--kmin", "4", "--kmax", "8", "--n", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,max_re"
    assert len(lines) == 4


def test_malformed_file_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.pipenet"
    bad.write_text("pipe P L=1\n")
    assert run(["build", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_friction_out_of_float_range_exit_one(tmp_path, capsys):
    path = tmp_path / "rough.pipenet"
    path.write_text("gas Rs=518.28 z0=0.95 T0=300\npipe P L=10 d=0.7 eps=1e300 Re=1e5\n"
                    "nominal * pl=25e5 q=21\ninput up = P.l\ninput uq = P.r\n")
    assert run(["build", str(path)]) == 1
    assert capsys.readouterr().err == "error: invalid friction regime\n"


def test_missing_file_exit_one(capsys):
    assert run(["build", "/nonexistent/x.pipenet"]) == 1


def test_output_file_lf_endings(loop_file, tmp_path):
    out = tmp_path / "eig.csv"
    assert run(["eig", loop_file, "-o", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_precision_env(loop_file, capsys, monkeypatch):
    monkeypatch.setenv("PIPENET_PRECISION", "3")
    assert run(["dcgain", loop_file, "--flows-only"]) == 0
    out = capsys.readouterr().out
    assert "0.184" in out
    assert "0.1839" not in out


@pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--dt", "nan"), ("--dt", "-0.5"),
                                         ("--T", "-1"), ("--T", "nan")])
def test_sim_rejects_bad_grid(loop_file, capsys, flag, value):
    args = {"--dt": "0.01", "--T": "0.1", flag: value}
    assert run(["sim", loop_file, "--dt", args["--dt"], "--T", args["--T"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be a positive finite number")


def test_strong_reverse_flow_builds(tmp_path, capsys):
    # the exit-pressure solve overflows exp in its first two methods
    path = tmp_path / "reverse.pipenet"
    path.write_text("gas Rs=518.28 z0=0.95 T0=300\n"
                    "pipe P L=20000 d=0.7 eps=4.57e-5 Re=1.168e8\n"
                    "nominal * pl=25e5 q=-3000\n"
                    "input pl = P.l\ninput qr = P.r\n")
    assert run(["build", str(path)]) == 0
    assert "states=2 inputs=2 outputs=2" in capsys.readouterr().out


ONE_TINY_PIPE = ("gas Rs=518.28 z0=0.95 T0=300\npipe P L=10 d=0.7 lambda=0.01\n"
                 "nominal * pl=1e-160 q={q}\ninput up = P.l\ninput uq = P.r\n")


@pytest.mark.parametrize("text, args", [
    # the exit-pressure solve of the declared nominal leaves the float range:
    # p_r^3 underflows, and with reverse flow exp overflows
    (ONE_TINY_PIPE.format(q=21), ["build"]),
    (ONE_TINY_PIPE.format(q=-21), ["build"]),
    # k = 1e-300 carries 25e5 Pa to 2.5e-294 Pa at B's inlet
    (GAIN_BETWEEN, ["sweep", "--element", "G", "--kmin", "1e-300", "--kmax", "1", "--n", "3"]),
], ids=["tiny_pl", "tiny_pl_reverse", "tiny_gain"])
def test_pressure_out_of_float_range_exit_one(tmp_path, capsys, text, args):
    path = tmp_path / "tiny.pipenet"
    path.write_text(text)
    assert run([args[0], str(path), *args[1:]]) == 1
    assert capsys.readouterr().err == "error: steady-state solve diverged\n"


@pytest.mark.parametrize("args, message", [
    (["bode", "--n", "0"], "need n >= 1 grid points, got 0"),
    (["mason", "--n", "-2"], "need n >= 1 grid points, got -2"),
    (["sweep", "--element", "C", "--kmin", "4", "--kmax", "8", "--n", "0"],
     "--n must be at least 1, got 0"),
    (["sweep", "--element", "C", "--kmin", "4", "--kmax", "8", "--n", "-3"],
     "--n must be at least 1, got -3"),
], ids=["bode_0", "mason_negative", "sweep_0", "sweep_negative"])
def test_grid_of_no_points_exit_one(loop_file, capsys, args, message):
    assert run([args[0], loop_file, *args[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# 1e24 exceeds numpy's maximum array size and 2**63 its index range: neither
# allocates anything, so the refusal does not rest on the host's memory
@pytest.mark.parametrize("n", ["1000000000000000000000000", "9223372036854775808"],
                         ids=["1e24", "2**63"])
@pytest.mark.parametrize("args, what", [
    (["bode"], "n = {n:.6g} grid points"),
    (["mason"], "n = {n:.6g} grid points"),
    (["sweep", "--element", "C", "--kmin", "4", "--kmax", "8"], "--n gives {n:.6g} gain values"),
], ids=["bode", "mason", "sweep"])
def test_grid_too_large_exit_one(loop_file, tmp_path, capsys, args, what, n):
    out = tmp_path / "out.csv"
    extra = [] if args[0] == "mason" else ["-o", str(out)]
    assert run([args[0], loop_file, *args[1:], "--n", n, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {what.format(n=int(n))}, too many to allocate\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["eig", "mason"])
def test_precision_beyond_printf_limit(loop_file, capsys, monkeypatch, command):
    # "%" refuses p >= 2**31; from p = 767 on "%.pg" prints a double's exact value
    monkeypatch.setenv("PIPENET_PRECISION", "767")
    assert run([command, loop_file]) == 0
    want = capsys.readouterr().out
    monkeypatch.setenv("PIPENET_PRECISION", str(2**31))
    assert run([command, loop_file]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", ["build", "mason"])
def test_two_faults_first_error(tmp_path, capsys, command):
    # mason's oracle path reads the nominals from the compile, as build does
    path = tmp_path / "two_faults.pipenet"
    path.write_text(ZERO_GAIN_NO_NOMINAL)
    assert run([command, str(path)]) == 1
    assert capsys.readouterr().err == "error: no nominal point for pipe 'P1'\n"


@pytest.mark.parametrize("dt, T", [("1e-12", "1e12"), ("1e-300", "1e300")])
def test_sim_grid_too_large_exit_one(loop_file, capsys, dt, T):
    # 1e24 steps exceed numpy's maximum array size; 1e600 overflows float
    assert run(["sim", loop_file, "--dt", dt, "--T", T]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --T / --dt gives ") and err.endswith("too many to allocate\n")


def test_sim_nonfinite_input_cell_exit_one(loop_file, tmp_path, capsys):
    inputs = tmp_path / "u.csv"
    inputs.write_text("fill,dist,vent\n0,nan,0\n")
    assert run(["sim", loop_file, "--dt", "0.01", "--T", "0.1", "--inputs", str(inputs)]) == 1
    assert capsys.readouterr().err == "error: inputs must be finite\n"


def test_sim_overflow_exit_one(capsys):
    # e^{A dt} at dt = 1e200 overflows in its first power; it used to print nan rows
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")
    assert run(["sim", demo, "--dt", "1e200", "--T", "1e200"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: matrix exponential overflowed at dt=1e+200\n"
    assert captured.out == ""


def test_sim_too_many_squarings_exit_one(capsys):
    # e^{A dt} at dt = 1e12 takes 45 squarings, which may grow its rounding to 2^-8
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")
    assert run(["sim", demo, "--dt", "1e12", "--T", "2e12"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: matrix exponential at dt=1e+12 needs 45 squarings, which "
                            "may grow its rounding to 0.0039 relative (limit 1e-06); "
                            "use a smaller dt\n")
    assert captured.out == ""


def test_sim_at_most_33_squarings_runs(capsys):
    # dt = 1e8 takes 32 squarings: the step is still taken
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")
    assert run(["sim", demo, "--dt", "1e8", "--T", "2e8"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 4  # the header and t = 0, 1e8, 2e8


def test_sim_loads_numpy_only(tmp_path):
    # keeps mesh_sim free of scipy's import and memory
    src = os.path.dirname(os.path.dirname(cli.__file__))
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")
    step = tmp_path / "step.csv"
    step.write_text("fill,dist,vent\n1,1,1\n")
    code = ("import sys, pipenet.cli; "
            "rc = pipenet.cli.main(['sim', sys.argv[1], '--dt', '0.05', '--T', '2', "
            "'--inputs', sys.argv[2], '-o', sys.argv[3]]); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code, demo, str(step), str(tmp_path / "y.csv")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "0 []"


def test_eig_loads_numpy_only():
    # the closed model and its eigenvalues need no scipy
    src = os.path.dirname(os.path.dirname(cli.__file__))
    demo = os.path.join(os.path.dirname(__file__), "..", "demos", "loop.pipenet")
    code = ("import io, sys, contextlib, pipenet.cli; out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out): rc = pipenet.cli.main(['eig', sys.argv[1]])\n"
            "print(rc, len(out.getvalue().splitlines()), "
            "sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code, demo], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "0 20 []"  # the header and the 19 eigenvalues


@pytest.mark.parametrize("text, message", [
    ("", " is empty: expected a header naming the channels"),
    ("fill,dist,vent\n1,1\n", ", line 2: 2 cells, but the header names 3 channels"),
    ("fill;dist;vent\n1;1;1\n", ", line 2: not a number in '1;1;1'"),
    ("fill,fill,dist,vent\n1,2,3,4\n", " names channel 'fill' twice"),
], ids=["empty", "short_row", "semicolons", "channel_twice"])
def test_sim_malformed_inputs_file_exit_one(loop_file, tmp_path, capsys, text, message):
    inputs = tmp_path / "u.csv"
    inputs.write_text(text)
    assert run(["sim", loop_file, "--dt", "0.01", "--T", "0.1", "--inputs", str(inputs)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: inputs file {inputs}{message}\n"
    assert captured.out == ""


def test_sim_inputs_file_as_np_savetxt_writes_it(loop_file, tmp_path, capsys):
    # a "# " header, spaces around cells, CRLF, blank lines and comments are read as before
    inputs = tmp_path / "u.csv"
    np.savetxt(inputs, [[1.0, 2.0, 3.0]], delimiter=",", header="fill, dist, vent")
    assert run(["sim", loop_file, "--dt", "0.01", "--T", "0.1", "--inputs", str(inputs)]) == 0
    held = capsys.readouterr().out
    inputs.write_text("fill , dist,vent\r\n\n1,2,3  # held\n")
    assert run(["sim", loop_file, "--dt", "0.01", "--T", "0.1", "--inputs", str(inputs)]) == 0
    assert capsys.readouterr().out == held


@pytest.mark.parametrize("args, inputs", [
    (["--dt", "0", "--T", "1"], None),
    (["--dt", "1e-12", "--T", "1e12"], None),
    (["--dt", "1e200", "--T", "1e200"], None),
    (["--dt", "1e12", "--T", "2e12"], None),
    (["--dt", "0.01", "--T", "0.1"], "fill,dist,vent\n0,nan,0\n"),
    (["--dt", "0.01", "--T", "0.1"], "fill,dist\n0,0\n"),
    (["--dt", "0.01", "--T", "0.1"], "fill,dist,vent\n0,0,0\n1,1,1\n"),
    (["--dt", "0.01", "--T", "0.1"], "fill,dist,vent\n1,1\n"),
    (["--dt", "0.01", "--T", "0.1"], "missing"),
    (["--dt", "0.01", "--T", "0.1"], "fill,dist,vent\n"),
    (["--dt", "0.01", "--T", "0.1"], "fill,dist\n0,0\n1,1\n"),
], ids=["bad_dt", "grid_too_large", "overflow", "squarings", "nonfinite_input",
        "missing_channel", "rows_off_grid", "short_row", "no_inputs_file", "header_only",
        "rows_off_grid_and_missing_channel"])
def test_sim_error_writes_nothing(loop_file, tmp_path, capsys, args, inputs):
    out = tmp_path / "y.csv"
    argv = ["sim", loop_file, *args]
    if inputs is not None:
        path = tmp_path / "u.csv"
        if inputs != "missing":
            path.write_text(inputs)
        argv += ["--inputs", str(path)]
    assert run(argv + ["-o", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().out == ""
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("text, message", [
    ("fill,dist,vent\n", "rows (0) do not match the grid (11)"),
    ("fill,dist\n0,0\n1,1\n", "rows (2) do not match the grid (11)"),
    ("dist,vent\n0,0\n1,1\n", "missing channel fill"),
], ids=["header_only", "rows_before_a_later_missing_channel", "first_channel_missing"])
def test_sim_inputs_fault_of_the_first_input_is_reported(loop_file, tmp_path, capsys, text,
                                                          message):
    # the model's first input, fill, decides between its missing channel and the row count
    inputs = tmp_path / "u.csv"
    inputs.write_text(text)
    assert run(["sim", loop_file, "--dt", "0.01", "--T", "0.1", "--inputs", str(inputs)]) == 1
    assert capsys.readouterr().err == f"error: inputs file {message}\n"


def test_sim_without_inputs_reads_no_rows(tmp_path, capsys):
    # a ring of two pipes has no inputs, so the file's rows are not checked against the grid
    net = tmp_path / "ring.pipenet"
    net.write_text("gas Rs=518.28 z0=0.95 T0=300\n"
                   "pipe P1 L=10 d=0.7 eps=4.57e-5 Re=1.168e8\n"
                   "pipe P2 L=10 d=0.7 eps=4.57e-5 Re=1.168e8\n"
                   "nominal * pl=25e5 q=21\n"
                   "link P1.r P2.l\nlink P2.r P1.l\n")
    inputs = tmp_path / "u.csv"
    inputs.write_text("a\n1\n2\n")
    assert run(["sim", str(net), "--dt", "0.1", "--T", "1", "--inputs", str(inputs)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1,0,0,0,0"


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sim_held_inputs_memory_grows_by_t_alone(loop_file, tmp_path, monkeypatch):
    # a held --inputs row stays one row: a run 10x longer holds a larger t
    # (8 bytes per step) and nothing else that grows with the grid
    monkeypatch.setattr(csvfmt, "BLOCK_CELLS", 1024)
    inputs = tmp_path / "u.csv"
    inputs.write_text("vent,fill,dist\n3,1,2\n")
    out = str(tmp_path / "y.csv")

    def peak(steps):
        argv = ["sim", loop_file, "--dt", "0.05", "--T", repr(steps * 0.05),
                "--inputs", str(inputs), "-o", out]
        return _traced_peak(lambda: run(argv))

    peak(100)  # caches made on first use
    short, long = peak(2000), peak(20000)
    assert long - short <= 18000 * 8 + 32 * 1024, (short, long)


def test_read_inputs_holds_eight_bytes_per_value(tmp_path):
    # beyond the file's lines, which are read whole first, the numbers are
    # held flat: 8 bytes each, and an array's growth margin
    rows = 20000
    path = tmp_path / "u.csv"
    path.write_text("fill,dist,vent\n" + "1,2,3\n" * rows)

    def lines():
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read().splitlines()

    extra = _traced_peak(lambda: cli._read_inputs(str(path))) - _traced_peak(lines)
    assert extra <= 1.25 * 8 * 3 * rows + 32 * 1024, extra
    names, data = cli._read_inputs(str(path))
    assert names == ["fill", "dist", "vent"]
    assert data.shape == (rows, 3) and (data == [1.0, 2.0, 3.0]).all()


INF_GAS = {"Rs": "R_s", "z0": "z_0", "T0": "T_0", "cv": "c_v", "Tamb": "T_amb"}
# each pipe key, and the field its error names; Re goes to Haaland's lambda, so
# that pipe declares no lambda
INF_PIPE = {"L": "pipe length L", "d": "pipe diameter d", "dout": "outside diameter d_out",
            "eps": "roughness eps", "dh": "elevation change h",
            "lambda": "friction factor lambda", "krad": "thermal conductivity k_rad",
            "Re": "Reynolds number Re"}


@pytest.mark.parametrize("key", [*INF_GAS, *INF_PIPE])
def test_infinite_gas_or_pipe_value_exit_one(tmp_path, capsys, key):
    gas = {"Rs": "518.28", "z0": "0.95", "T0": "300", "cv": "1700", "Tamb": "300"}
    pipe = {"L": "10", "d": "0.7", "eps": "4.57e-5", "Re": "1.168e8"}
    if key in gas:
        gas[key] = "inf"
        named = f"GasProperties.{INF_GAS[key]}"
    else:
        if key != "Re":
            pipe["lambda"] = "0.01"
        pipe[key] = "inf"
        named = INF_PIPE[key]
    path = tmp_path / "inf.pipenet"
    path.write_text("gas " + " ".join(f"{k}={v}" for k, v in gas.items()) + "\n"
                    "pipe P " + " ".join(f"{k}={v}" for k, v in pipe.items()) + "\n"
                    "nominal * pl=25e5 q=21\ninput up = P.l\ninput uq = P.r\n")
    assert run(["build", str(path), "--dump-matrices", str(tmp_path / "m")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named} must be finite, got inf\n"
    assert not list(tmp_path.glob("m.*"))


def test_parser_is_built_once_and_reused(loop_file, tmp_path, capsys, monkeypatch):
    # successive calls, and a call after one that exits 2 on bad arguments, print
    # what each prints with a parser of its own
    calls = [["eig", loop_file], ["build", loop_file, "--select", "P6.r.p"],
             ["sweep", loop_file, "--element", "C", "--kmin", "4", "--kmax", "8", "--n", "2"],
             ["bode", loop_file, "--n", "oops"], ["dcgain", loop_file, "--flows-only"],
             ["nonsense"], ["mason", loop_file, "--n", "3"], ["sim", loop_file, "--dt", "1"],
             ["eig", loop_file, "-o", str(tmp_path / "eig.csv")]]

    def outcomes():
        got = []
        for argv in calls:
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse's exit on bad arguments
                code = f"exit {exc.code}"
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    cli._parser.cache_clear()
    reused = outcomes()
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [0, 0, 0, "exit 2", 0, "exit 2", 0, "exit 2", 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser on every call
    assert outcomes() == reused
