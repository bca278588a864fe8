"""The benchmark uses `hypmoduli` from outside: its tracer wraps functions
by name and reads the outcomes of `mc_search`, and its workloads and
worker read `hm.<module>.<name>`.  Every name it uses must still exist,
or the benchmark breaks while the rest of the suite passes."""

import ast
import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

from hypmoduli import search
from hypmoduli.patterns import Couple, ModuliOrder, SignPattern

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted({*tracing.TRACED, *tracing.COUNTED}))
def test_traced_name_is_a_hypmoduli_function(name):
    module_name, func_name = name.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    assert callable(getattr(module, func_name, None)), name


def _chain(node) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, None for any other."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    names.append(node.id)
    return names[::-1]


def _program_reads(filename: str) -> set[tuple[str, ...]]:
    """The dotted names below the package that a benchmark file reads: each
    `hm.a.b` or `self.hm.a.b` as ("a", "b"), and each attribute of a name
    bound to such a read, as in `certify = self.hm.certify`, through that
    binding.  Bindings are taken file-wide, so a parameter that shares an
    alias's name, such as `certify` in `_certificate_failures`, counts too."""
    tree = ast.parse((PERFBENCH / filename).read_text())

    def below_hm(chain):
        if chain and chain[0] == "self":
            chain = chain[1:]
        return tuple(chain[1:]) if chain and chain[0] == "hm" and len(chain) > 1 else None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, path = node.targets[0], below_hm(_chain(node.value))
            if isinstance(target, ast.Name) and path:
                aliases[target.id] = path
    reads = set()
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if not chain:
            continue
        path = below_hm(chain)
        if path is None and chain[0] in aliases:
            path = aliases[chain[0]] + tuple(chain[1:])
        if path:
            reads.add(path)
    return reads


PROGRAM_READS = sorted(_program_reads("workloads.py") | _program_reads("worker.py"))


def test_program_reads_are_found():
    # a direct read, one through an alias and one through a parameter
    for path in [
        ("certify", "classify_pattern"),
        ("patterns", "enumerate_patterns"),
        ("certify", "CertificateError"),
    ]:
        assert path in PROGRAM_READS


@pytest.mark.parametrize("path", PROGRAM_READS, ids=".".join)
def test_benchmark_reads_a_hypmoduli_name(path):
    module_name, *names = path
    value = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    for name in names:
        assert hasattr(value, name), ".".join(path)
        value = getattr(value, name)


def test_tracer_reads_mc_search_outcomes():
    # the observer tells Found from Exhausted by `witness` and counts
    # `iterations` or `budget` as draws
    assert {"witness", "iterations"} <= {f.name for f in fields(search.Found)}
    assert "budget" in {f.name for f in fields(search.Exhausted)}
    found = Couple(SignPattern.parse("2,2,2,1"), ModuliOrder("PNPNPN"))
    exhausted = Couple(SignPattern.parse("2,2,2,1"), ModuliOrder("NNNPPP"))
    cfg = search.SamplerConfig(budget=50)
    recorder = tracing.Recorder(timed=False)
    recorder.install(tracing.COUNTED)
    try:
        outcomes = [search.mc_search(target, cfg) for target in (found, exhausted)]
    finally:
        recorder.uninstall()
    assert isinstance(outcomes[0], search.Found)
    assert isinstance(outcomes[1], search.Exhausted)
    assert recorder.mc == [(found, outcomes[0].iterations, True), (exhausted, 50, False)]
