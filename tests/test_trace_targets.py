"""The benchmark's tracer wraps functions by (module, attribute) name; each must resolve."""

import importlib

from perfbench.tracing import TARGETS


def test_every_trace_target_resolves_to_a_callable():
    missing = []
    for module, attr, *_ in TARGETS:
        fn = getattr(importlib.import_module(module), attr, None)
        if not callable(fn):
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench.tracing.TARGETS names no callable at: {', '.join(missing)}"
