import doctest
import importlib
import pkgutil

import reflbench


def test_module_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(reflbench.__path__):
        module = importlib.import_module(f"reflbench.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 3  # cyclo's examples at least
