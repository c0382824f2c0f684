import numpy as np
import pytest

import pipenet as pn
from pipenet import friction
from pipenet.errors import ConfigurationError, DomainError


def test_reference_value():
    lam = friction.haaland_lambda(4.57e-5, 0.7, 1.168e8)
    assert 0.0106 <= lam <= 0.0116
    assert lam == pytest.approx(0.011107, rel=1e-3)


def test_smooth_pipe_limit():
    # high Re, zero roughness: much lower friction than a rough wall
    lam_smooth = friction.haaland_lambda(0.0, 0.5, 1e7)
    lam_rough = friction.haaland_lambda(5e-4, 0.5, 1e7)
    assert 0.0 < lam_smooth < lam_rough


def test_monotone_in_roughness():
    lams = [friction.haaland_lambda(e, 0.7, 1e8) for e in (1e-6, 1e-5, 1e-4, 1e-3)]
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_monotone_in_reynolds():
    lams = [friction.haaland_lambda(1e-5, 0.7, Re) for Re in (1e4, 1e5, 1e6)]
    assert all(a > b for a, b in zip(lams, lams[1:]))


@pytest.mark.parametrize("eps,d,Re", [
    (-1e-5, 0.7, 1e8),
    (1e-5, 0.0, 1e8),
    (1e-5, -0.7, 1e8),
    (1e-5, 0.7, 0.0),
    (1e-5, 0.7, -10.0),
])
def test_domain_errors(eps, d, Re):
    with pytest.raises(DomainError):
        friction.haaland_lambda(eps, d, Re)


@pytest.mark.parametrize("eps,d", [(1.0, 1e-300), (1e300, 1.0)])
def test_relative_roughness_out_of_float_range(eps, d):
    # (eps / (3.7 d)) ** 1.11 overflows
    with pytest.raises(DomainError, match="invalid friction regime"):
        friction.haaland_lambda(eps, d, 1e5)


def test_resolve_explicit_lambda_precedence():
    params = pn.PipeParams(L=10.0, d=0.7, eps=1e-4, lam=0.02)
    out = friction.resolve_lambda(params, Re=1e8)
    assert out.lam == 0.02


def test_resolve_from_reynolds():
    params = pn.PipeParams(L=10.0, d=0.7, eps=4.57e-5)
    out = friction.resolve_lambda(params, Re=1.168e8)
    assert out.lam == pytest.approx(friction.haaland_lambda(4.57e-5, 0.7, 1.168e8))


def test_resolve_requires_source():
    params = pn.PipeParams(L=10.0, d=0.7)
    with pytest.raises(ConfigurationError):
        friction.resolve_lambda(params)
