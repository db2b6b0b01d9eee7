"""Every function, method and class of the package is reached from the code
the commands run: the package modules and the demo script.

A definition counts as reached when its name appears anywhere in those
files as a name or an attribute, which errs towards keeping names. Dunders
are reached through the language, not by name.
"""

import ast
import contextlib
import importlib.util
from pathlib import Path

from flagtuner.cli import main

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (REPO / "src" / "flagtuner").glob("*.py") if p.name != "__init__.py")
SOURCES.append(REPO / "scripts" / "run_demo.py")

# Kept without a caller in the sources, each for a reader outside them.
UNREACHED = {
    "rip": "acceptance criterion 01 checks the RIP arithmetic on it",
    "best_known": "acceptance criterion 03 reads the best-known time through it",
    "test_set": "acceptance criterion 08 reads held-out programs through FoldPlan.test_set",
    "enumerate_configurations": "the benchmark's tracer wraps it; tests use it as brute force",
    "get_failure": "the benchmark's tracer wraps EvalCache.get_failure",
    "read_final_config": "the benchmark's tracer wraps it; tests read configs with it",
    "counters": "the benchmark's worker reads Campaign.counters",
    "_make": "Measurement._replace calls it; overridden so that it runs the checks too",
}


def _defined_and_used() -> tuple[set[str], set[str]]:
    defined, used = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_definition_is_reached():
    defined, used = _defined_and_used()
    assert sorted(defined - used - UNREACHED.keys()) == []


def test_allowlist_names_only_unreached_definitions():
    defined, used = _defined_and_used()
    assert sorted(UNREACHED.keys() - (defined - used)) == []


@contextlib.contextmanager
def benchmark_tracer():
    """The benchmark's tracer, installed from outside for the block. On exit
    ``uninstall`` must have put every original back; only after that check
    is a wrapper set on a class that inherits the method deleted, so the
    method is inherited again."""
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(str(REPO / "demo" / "stub" / "stubcc.py"))
        yield tracer
    finally:
        patched = list(tracer._undo)
        tracer.uninstall()
        unrestored = [(owner, attr) for owner, attr, original in patched
                      if getattr(owner, attr) is not original]
        for owner, attr, original in patched:
            if isinstance(owner, type) and any(vars(base).get(attr) is original
                                               for base in owner.__mro__[1:]):
                delattr(owner, attr)
    assert unrestored == []


def test_benchmark_tracer_wraps_names_that_exist():
    """The benchmark's traced runs wrap package functions and methods by
    name, so renaming one breaks them: ``install`` raises. ``uninstall``
    puts every original back."""
    with benchmark_tracer() as tracer:
        assert tracer._undo


def test_benchmark_tracer_sees_the_hot_path(tmp_path):
    """The per-layer metrics count the calls of wrapped names, so a campaign
    whose hot path moves off those names would read 0 there."""
    demo = REPO / "demo"
    out, rep = tmp_path / "o", tmp_path / "rep"
    with benchmark_tracer() as tracer:
        assert main(["ric", "--config", str(demo / "pair_campaign.json"), "--out", str(out)]) == 0
        assert main(["report", str(out / "ric.trace"), "--space", str(demo / "pair_space.json"),
                     "--out", str(rep)]) == 0
    calls = {name: tracer.calls(name) for name in (
        "evaluator.time_for", "evaluator.cache.put", "artifacts.write", "artifacts.read")}
    assert all(calls.values()), calls
