"""The end-to-end benchmark's layer tracer still finds every name it wraps.

``benchmarks/e2e/tracing.py`` patches methods through ``vars(cls)[name]``
and rebinds module-level functions by identity, so renaming or deleting
one of its targets breaks the benchmark's traced run, which the test suite
never runs. This test loads the tracer by path and checks its targets only;
it installs nothing.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_method_is_defined_on_its_class(tracing):
    from repro.obs.recorder import RunRecorder
    from repro.sim.core import SimCore

    methods, _functions = tracing.entry_points()
    targets = [(SimCore, "run")]
    targets += [(RunRecorder, name) for name in tracing.RECORDER_HOOKS]
    targets += [(cls, name) for _layer, cls, names in methods
                for name in names]
    missing = [f"{cls.__name__}.{name}" for cls, name in targets
               if name not in vars(cls)]
    assert not missing


def test_every_wrapped_function_is_its_modules_attribute(tracing):
    _methods, functions = tracing.entry_points()
    stale = [f"{fn.__module__}.{fn.__name__}" for _layer, fn in functions
             if getattr(sys.modules[fn.__module__], fn.__name__, None)
             is not fn]
    assert not stale
    names = {fn.__name__ for _layer, fn in functions}
    assert {"compute_metrics", "metrics_from_tape"} <= names
