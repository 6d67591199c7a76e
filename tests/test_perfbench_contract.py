"""The benchmark's tracer drives the package through its public names.

``perfbench/trace.py`` repeats the ``mfsgd`` command flows as direct calls
into the package; only a traced benchmark run would otherwise notice that a
name it imports is gone or that a call it makes no longer fits a signature.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


@pytest.fixture(scope="module")
def trace_module():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    sys.modules[spec.name] = module       # its dataclasses look it up
    try:
        spec.loader.exec_module(module)   # every package import must resolve
    finally:
        sys.path[:] = saved
        sys.modules.pop(spec.name, None)
    return module


def _package_calls(module):
    """(label, callable, n_positional, keywords) for every call in trace.py
    whose target is a name taken from the package (``f(...)``,
    ``cli.f(...)`` or ``Ensemble.from_init(...)``)."""
    tree = ast.parse(TRACE.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("meanfield_sgd"):
            imported.update(a.asname or a.name for a in node.names)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            label, target = func.id, getattr(module, func.id)
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in imported):
            label = f"{func.value.id}.{func.attr}"
            target = getattr(getattr(module, func.value.id), func.attr)
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            continue
        calls.append((label, target, len(node.args),
                      tuple(k.arg for k in node.keywords)))
    return calls


def test_trace_calls_bind_to_package_signatures(trace_module):
    calls = _package_calls(trace_module)
    for label, target, n_args, keywords in calls:
        try:
            inspect.signature(target).bind(*([None] * n_args),
                                           **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"perfbench/trace.py calls {label} with {n_args} "
                        f"positional and {keywords} keyword arguments: {exc}")
    labels = {label for label, *_ in calls}
    for name in ("run_study", "chaos_test", "martingale_decay",
                 "limit_distance", "lln_decay", "moment_bound", "train",
                 "weak_residual", "Ensemble.from_init", "cli.save_solution",
                 "cli.load_solution"):
        assert name in labels, name
    assert any(label == "run_study" and "workers" in keywords
               for label, _, _, keywords in calls)
