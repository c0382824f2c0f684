"""The compile's per-pipe constants as columns, and the labels made from the cached plans.

CompiledNetwork computes the friction factor, A_c, the relation
constants and the IsoTable of all pipes as columns in one pass
(netspec._pipe_columns, steady_state.relation_columns,
IsoTable.of_columns) and makes its labels from each element kind's cached
plan (composites.network_labels). Each must be what a pipe-by-pipe build
gives, bit for bit: _pipe_params, relation_constants, IsoTable over
PipeParams and SignalLabel(...), with the same first error.
"""

import hashlib
import math

import numpy as np
import pytest

import pipenet as pn
from pipenet import composites, netspec, steady_state
from pipenet.core import SignalLabel
from pipenet.errors import ConfigurationError, DomainError
from pipenet.pipe_dynamics import IsoTable

from conftest import chain_text, mesh_text

ISO_FIELDS = ("alpha", "beta_pr", "_beta_pl0", "_friction_pl", "_elevation", "_friction_q")


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_pipes(n, seed):
    """n pipe declarations spread over L, d, dh, eps and Re, half with a given lambda."""
    rng = np.random.default_rng(seed)
    decls = []
    for i in range(n):
        L, d = float(rng.uniform(1.0, 1e5)), float(10.0 ** rng.uniform(-2.0, 0.5))
        lam = float(rng.uniform(0.005, 0.05)) if i % 2 else None
        decls.append(netspec.PipeDecl(f"P{i}", L=L, d=d, dout=d * float(rng.uniform(1.0, 1.2)),
                                      eps=float(rng.uniform(0.0, 1e-3)),
                                      dh=float(rng.uniform(-500.0, 500.0)), lam=lam,
                                      Re=float(10.0 ** rng.uniform(3.0, 9.0)),
                                      krad=float(rng.uniform(0.0, 5.0))))
    return decls


@pytest.fixture(scope="module")
def pipe_sets(oracle_specs):
    """(declarations, gas) of every network with a pipe, and of a grid of random pipes."""
    specs = [*oracle_specs, pn.parse(chain_text(200, np.random.default_rng(13))),
             pn.parse(mesh_text(25, np.random.default_rng(13)))]
    sets = [([spec.pipes[pid] for pid in netspec.CompiledNetwork(spec).pipe_ids], spec.gas)
            for spec in specs]
    return [s for s in sets if s[0]] + [(random_pipes(20000, 3), oracle_specs[0].gas)]


def test_columns_equal_the_per_pipe_values(pipe_sets):
    for decls, gas in pipe_sets:
        params = [netspec._pipe_params(decl) for decl in decls]
        L, d, h, lam, A_c = netspec._pipe_columns(decls)
        assert same_bits(A_c, [par.A_c for par in params])
        assert same_bits(lam, [par.lam for par in params])
        coef, grav = steady_state.relation_columns(gas.T_0, L, d, h, lam, A_c, gas)
        ref = [steady_state.relation_constants(gas.T_0, par, gas) for par in params]
        assert same_bits(coef, [c for c, _ in ref]) and same_bits(grav, [g for _, g in ref])
        table, ref_table = IsoTable.of_columns(L, d, h, lam, A_c, gas), IsoTable(params, gas)
        for name in ISO_FIELDS:
            assert same_bits(getattr(table, name), getattr(ref_table, name))


def test_iso_table_wrapper_keeps_the_scalar_expressions(pipe_sets):
    # IsoTable(params) equals the scalar expressions of iso_coefficients, pipe by pipe
    decls, gas = pipe_sets[-1]
    params = [netspec._pipe_params(decl) for decl in decls[:500]]
    table = IsoTable(params, gas)
    rtz = gas.R_s * gas.T_0 * gas.z_0
    for i, par in enumerate(params):
        A_c, L, d, h, lam = par.A_c, par.L, par.d, par.h, par.lam
        ref = (-rtz / (A_c * L), -A_c / L, A_c / L, lam * rtz / (2.0 * d * A_c),
               A_c * pn.G_STD * h / (rtz * L), lam * rtz / (d * A_c))
        assert same_bits([getattr(table, name)[i] for name in ISO_FIELDS], ref)


def test_compile_holds_the_columns(oracle_specs):
    # the build path takes the columns, and they are what the oracle path's params give
    for spec in oracle_specs:
        net = netspec.CompiledNetwork(spec)
        assert net._constants is not None
        assert "params" not in vars(net)  # made on first read only
        rows = net._resolved[3]
        for pid, row in zip(net.pipe_ids, rows):
            coef, grav = steady_state.relation_constants(spec.gas.T_0, net.params[pid], spec.gas)
            assert same_bits(row[3:], [coef, grav])


def test_haaland_is_taken_once_per_distinct_pipe(monkeypatch):
    calls = []
    haaland = netspec.friction_factor

    def counted(*args):
        calls.append(args)
        return haaland(*args)

    monkeypatch.setattr(netspec, "friction_factor", counted)
    spec = pn.parse(chain_text(200, np.random.default_rng(7)))
    netspec.CompiledNetwork(spec)
    assert calls == [(None, 4.57e-5, 0.7, 1.168e8)]


def three_pipes(second, third):
    """Three linked pipes; second and third are key=value faults of pipes P2 and P3."""
    def pipe(name, faults):
        keys = {"L": "10", "d": "0.7", "eps": "4.57e-5", "Re": "1.168e8"}
        keys.update(fault.split("=") for fault in faults.split())
        return f"pipe {name} " + " ".join(f"{k}={v}" for k, v in keys.items()) + "\n"

    return ("gas Rs=518.28 z0=0.95 T0=300\n" + pipe("P1", "") + pipe("P2", second)
            + pipe("P3", third) + "nominal * pl=25e5 q=21\n"
            "link P1.r P2.l\nlink P2.r P3.l\ninput up = P1.l\ninput uq = P3.r\n")


DIAMETER = "pipe diameter d must keep A_c**2 finite and 2*d*A_c**2 nonzero, got {!r}"


@pytest.mark.parametrize("second, third, message", [
    ("L=0", "d=-1", "pipe length L must be strictly positive"),
    ("L=-5", "eps=-1", "pipe length L must be strictly positive"),
    ("d=0", "L=-1", "diameter must be strictly positive"),  # Haaland checks d first
    ("d=0 lambda=0.01", "L=-1", "pipe diameter d must be strictly positive"),
    ("dout=0.5", "krad=-1", "outside diameter d_out must be >= inside diameter d"),
    ("eps=-1e-5", "d=0", "roughness must be nonnegative"),  # Haaland checks eps first
    ("krad=-1", "L=0", "thermal conductivity k_rad must be nonnegative"),
    ("lambda=0", "L=0", "friction factor lambda must be strictly positive"),
    ("lambda=-0.01", "dout=0.1", "friction factor lambda must be strictly positive"),
    ("eps=1e300", "L=0", "invalid friction regime"),  # Haaland's power overflows
    ("L=inf", "d=0", "pipe length L must be finite, got inf"),
    ("dh=-inf", "L=0", "elevation change h must be finite, got -inf"),
    # 2 d A_c^2 underflows to zero; Haaland would refuse these first, so lambda is given
    ("d=1e-66 lambda=0.01", "L=0", DIAMETER.format(1e-66)),
    ("d=1e-200 lambda=0.01", "d=-1", DIAMETER.format(1e-200)),
    # A_c^2 overflows, and for d=1e200 d^2 too
    ("d=1e78", "eps=-1", DIAMETER.format(1e78)),
    ("d=1e200", "krad=-1", DIAMETER.format(1e200)),
], ids=["L_zero", "L_negative", "d_zero", "d_zero_lambda", "dout_below_d", "eps_negative", "krad_negative",
        "lambda_zero", "lambda_negative", "haaland_overflow", "L_inf", "dh_inf", "d_1e-66",
        "d_1e-200", "d_1e78", "d_1e200"])
def test_first_pipe_fault(second, third, message):
    # the fault of the second pipe is raised, as the per-pipe loop raises it,
    # by the build, the oracle path and the params of the compile
    spec = pn.parse(three_pipes(second, third))
    with pytest.raises(DomainError) as ref:
        for pid in ("P1", "P2", "P3"):
            netspec._pipe_params(spec.pipes[pid])
    assert str(ref.value) == message
    for build in (pn.build_closed, pn.elaborate, lambda s: netspec.CompiledNetwork(s).params):
        with pytest.raises(DomainError) as err:
            build(spec)
        assert str(err.value) == message


def test_nan_pipe_values_build_from_the_columns():
    # nan passes PipeParams' range checks where it passes them today: eps and
    # d_out are not refused, and A is the one a pipe-by-pipe build gives, bit for bit
    spec = pn.parse(three_pipes("dout=nan", "lambda=0.01"))
    net = netspec.CompiledNetwork(spec)
    assert np.isnan(net.params["P2"].d_out)
    model = pn.build_closed(spec)
    assert model.A.shape == (6, 6)
    assert hashlib.sha256(model.A.tobytes()).hexdigest() == (
        "637b9446d6098dfa0f9827ec888a133614ae3efbdefeeb2bc8fcb4a2c87aafbe")


def plan_reference(kind, member_ids):
    """One element's labels, made label by label through SignalLabel(...)."""
    plan, n_states, reads = composites._label_plan(kind, len(member_ids))
    labels = [SignalLabel(member_ids[i], side, quantity) for i, side, quantity in plan]
    return labels[:n_states], [labels[j] for j in reads]


def test_plan_labels_equal_checked_labels(oracle_specs):
    for spec in oracle_specs:
        elements = [(el.kind, netspec._ids(el)) for el in spec.elements]
        states, outputs = composites.network_labels(elements)
        ref_states, ref_outputs = [], []
        for kind, ids in elements:
            s, o = plan_reference(kind, ids)
            ref_states += s
            ref_outputs += o
        for got, ref in ((states, ref_states), (outputs, ref_outputs)):
            assert got == ref
            assert [hash(lab) for lab in got] == [hash(lab) for lab in ref]
            assert [str(lab) for lab in got] == [str(lab) for lab in ref]
            order = sorted(range(len(ref)), key=ref.__getitem__)
            assert sorted(range(len(got)), key=got.__getitem__) == order
            assert all((a < b) == (c < d) for a, b, c, d in zip(got, got[1:], ref, ref[1:]))


def test_invalid_element_id_is_refused():
    # an id with a dot cannot come from parse; a spec built directly still gets
    # SignalLabel's error, from the first label that holds it
    pipes = {n: netspec.PipeDecl(n, L=10.0, d=0.7, lam=0.01) for n in ("A", "B.x")}
    R = netspec.PortRef
    spec = netspec.NetworkSpec(pn.GasProperties(R_s=518.28, z_0=0.95, c_v=1700.0, T_0=300.0,
                                                T_amb=300.0),
                               pipes, tuple(pipes.values()),
                               {"*": netspec.NominalDecl("*", 25e5, 21.0)},
                               ((R("A", "r"), R("B.x", "l")),),
                               (("up", R("A", "l")), ("uq", R("B.x", "r"))))
    for build in (pn.build_closed, pn.elaborate):
        with pytest.raises(ConfigurationError) as err:
            build(spec)
        assert str(err.value) == "invalid element id 'B.x'"
    with pytest.raises(ConfigurationError, match="invalid element id 'B.x'"):
        composites.network_labels([("pipe", ("A",)), ("series", ("A", "B.x"))])


GAS = "gas Rs=518.28 z0=0.95 T0=300\n"
TWO_FAULTS = {
    # the pipe's declared pl is not positive, and the gain after it is zero
    "pl_then_zero_gain": (GAS + "pipe P L=10 d=0.7 lambda=0.01\ngain G k=0\n"
                          "nominal * pl=-1 q=21\nlink P.r G.l\ninput up = P.l\ninput uq = G.r\n",
                          "gain k must be nonzero"),
    # the gain's flow input is unconnected, and its k is zero
    "unconnected_zero_gain": (GAS + "pipe P L=10 d=0.7 lambda=0.01\ngain G k=0\n"
                              "nominal * pl=25e5 q=21\nlink P.r G.l\ninput up = P.l\n",
                              "unconnected component input G.r.q"),
}


@pytest.mark.parametrize("name", list(TWO_FAULTS))
def test_oracle_path_checks_in_the_builds_order(name):
    # wiring first, then every k, then the elements, on both paths
    text, message = TWO_FAULTS[name]
    spec = pn.parse(text)
    for build in (pn.build_closed, pn.elaborate, netspec.build_elements):
        with pytest.raises(ConfigurationError) as err:
            build(spec)
        assert str(err.value) == message


@pytest.mark.parametrize("name", list(TWO_FAULTS))
@pytest.mark.parametrize("command", ["build", "mason"])
def test_build_and_mason_report_one_first_error(tmp_path, capsys, name, command):
    from pipenet import cli

    text, message = TWO_FAULTS[name]
    path = tmp_path / "two_faults.pipenet"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gas_and_pipe_params_refuse_infinity():
    gas = dict(R_s=518.28, z_0=0.95, c_v=1700.0, T_0=300.0, T_amb=300.0)
    for name in gas:
        with pytest.raises(DomainError) as err:
            pn.GasProperties(**{**gas, name: math.inf})
        assert str(err.value) == f"GasProperties.{name} must be finite, got inf"
    for field, what in (("L", "pipe length L"), ("d", "pipe diameter d"),
                        ("d_out", "outside diameter d_out"), ("eps", "roughness eps"),
                        ("h", "elevation change h"), ("lam", "friction factor lambda"),
                        ("k_rad", "thermal conductivity k_rad")):
        with pytest.raises(DomainError) as err:
            pn.PipeParams(**{"L": 10.0, "d": 0.7, field: math.inf})
        assert str(err.value) == f"{what} must be finite, got inf"
    # the messages for values <= 0 and for nan stay
    with pytest.raises(DomainError, match="GasProperties.T_0 must be strictly positive"):
        pn.GasProperties(**{**gas, "T_0": -math.inf})
    with pytest.raises(DomainError, match="pipe length L must be strictly positive"):
        pn.PipeParams(L=math.nan, d=0.7)
