"""The names that the benchmark looks up in the program must still exist,
so that a refactor cannot silently break a benchmark run: the names that
bench/layertrace.py wraps (`--trace 1`), and every program name that
bench/workloads.py reads (every run)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERTRACE = BENCH / "layertrace.py"
WORKLOADS = BENCH / "workloads.py"


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


def program_reads(path):
    """Sorted (module, name) pairs: each `alias.name` that the file reads
    through an `import arte_tcs.module as alias`, and each name of a
    `from arte_tcs.module import name`."""
    tree = ast.parse(path.read_text())
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((item.asname or item.name, item.name)
                           for item in node.names
                           if item.name.startswith("arte_tcs."))
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("arte_tcs.")):
            reads.update((node.module, item.name) for item in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            reads.add((aliases[node.value.id], node.attr))
    return sorted(reads)


WORKLOAD_READS = program_reads(WORKLOADS)


def test_workloads_read_the_program():
    assert len(WORKLOAD_READS) > 0


@pytest.mark.parametrize("module,name", WORKLOAD_READS,
                         ids=["%s.%s" % pair for pair in WORKLOAD_READS])
def test_workload_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), (
        "bench/workloads.py reads %s.%s, which does not exist"
        % (module, name))
