"""Every function the traced benchmark wraps or expects still exists.

``bench/spans.py`` ``TARGETS`` names the functions the traced run wraps, and
each workload in ``bench/workloads.py`` lists in ``exercises`` the ones it
must call.  A name that no longer resolves silently drops out of the
per-layer times, and only the benchmark self-test (outside ``testpaths``)
notices.  This test reads both tables and changes nothing under ``bench/``.
"""
import importlib
import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _names():
    targets = {f"{short}.{attr}" for short, attrs in _load("spans").TARGETS.items()
               for attr in attrs}
    exercised = {name for w in _load("workloads").WORKLOADS.values() for name in w.exercises}
    return sorted(targets | exercised)


@pytest.mark.parametrize("name", _names())
def test_traced_name_resolves(name):
    short, *path = name.split(".")
    obj = importlib.import_module(f"branchlab.{short}")
    for attr in path:
        obj = vars(obj).get(attr)
        assert obj is not None, f"branchlab.{name} is gone"
    assert callable(obj)
