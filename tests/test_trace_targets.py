"""Every function the benchmark's tracer wraps still exists where the tracer looks it up.

perfbench/tracer.py wraps functions by name in the namespace their callers
use (netspec.isothermal_nominal, composites.iso_coefficients, ...).
Constructing a Tracer reads each of them, so a renamed or deleted one
fails here instead of in a traced benchmark run.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return tracer.Tracer()


def test_every_wrapped_name_resolves(tracer):
    wrapped = {(owner.__name__, attr) for owner, attr, _, _ in tracer._patches}
    for name in ("netspec.isothermal_nominal", "composites.iso_coefficients",
                 "composites.linearize_2d", "netspec.close", "netspec.stack",
                 "netspec.build_FG", "netspec.build_closed", "analysis.stability_margin_sweep",
                 "cli._precision", "cli.main"):
        module, attr = name.split(".")
        assert (f"pipenet.{module}", attr) in wrapped


def test_tracing_a_job_restores_every_name(tracer):
    tracer.begin_job()
    tracer.end_job()
    for owner, attr, original, _ in tracer._patches:
        assert getattr(owner, attr) is original
