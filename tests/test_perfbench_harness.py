"""The benchmark harness still runs, and every span it traces names a
public graphonlab function, so a refactor cannot silently zero a traced
per-layer metric."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
SPAN_NAMES = sorted(
    ({name for *_, names in tracer.PER_LAYER for name in names} | set(tracer.WORK))
    - {tracer.EIGH})


def test_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def traced_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"graphonlab.{layer}")
    return module, getattr(module, attr, None)


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_span_names_a_public_function(name):
    # tracer.install wraps exactly the public functions defined in the layer
    module, fn = traced_function(name)
    assert inspect.isfunction(fn), name
    assert fn.__module__ == module.__name__ and not fn.__name__.startswith("_")


class Probe:
    """Stands in for an argument or a result of a traced call."""

    n = 1
    generators = ()

    def __len__(self):
        return 0


class ReadArgs(tuple):
    """Positional arguments that record the positions read."""

    def __getitem__(self, pos):
        self.read.append(pos)
        return Probe()


class ReadKwargs(dict):
    """Keyword arguments that hold none and record the names asked for."""

    def __contains__(self, name):
        self.asked.append(name)
        return False


@pytest.mark.parametrize("name", sorted(set(tracer.WORK) - {tracer.EIGH}))
def test_work_arguments_match_signatures(name):
    # a work count reads an argument by position, or by name when the call
    # passed it by keyword; both must still name the same parameter
    args, kwargs = ReadArgs(), ReadKwargs()
    args.read, kwargs.asked = [], []
    tracer.WORK[name](args, kwargs, Probe())
    _, fn = traced_function(name)
    params = list(inspect.signature(fn).parameters)
    assert len(args.read) == len(kwargs.asked)
    for pos, arg in zip(args.read, kwargs.asked):
        assert pos < len(params) and params[pos] == arg, (name, pos, arg, params)
