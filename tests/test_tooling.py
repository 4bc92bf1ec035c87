"""The benchmark's tracer names package functions by attribute; every one
must still exist, or a traced benchmark run fails only when it starts."""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = load_tracing().BOUNDARIES


@pytest.mark.parametrize("owner, attr", [(b[0], b[1]) for b in BOUNDARIES],
                         ids=[f"{b[0].__name__}.{b[1]}" for b in BOUNDARIES])
def test_traced_boundary_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))
