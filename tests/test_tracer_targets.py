"""The names the benchmark tracer wraps must exist in the library.

`perfbench/tracer.py` wraps each of its TARGETS at install time: a method
through the class's own `__dict__`, anything else as a module attribute.
A renamed or deleted target would only break a traced benchmark run, so this
resolves every target the same way.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    # run from source, so no bytecode cache is written next to it
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_tracer_target_resolves(target):
    _, mod_name, attr, _ = target
    mod = importlib.import_module(f"reflbench.{mod_name}")
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        assert callable(getattr(mod, owner_name).__dict__[method])
    else:
        assert callable(getattr(mod, attr))
