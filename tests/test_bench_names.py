"""The names that bench/layertrace.py wraps must still exist, so that a
refactor cannot silently break a traced benchmark run (`--trace 1`)."""

import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = load_layertrace()


@pytest.mark.parametrize(
    "name,owner,attr", layertrace.HOT + layertrace.COARSE,
    ids=["%s@%s" % (name, getattr(owner, "__name__", owner))
         for name, owner, _ in layertrace.HOT + layertrace.COARSE])
def test_traced_name_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), (
        "%s: %s has no callable %r" % (name, owner, attr))


def test_mu_scalar_is_a_curve_method():
    from arte_tcs.tire_road import MuLambdaCurve
    assert callable(MuLambdaCurve.mu_scalar)
