"""The examples in the package's docstrings run as tests.

Every ``cmresidues`` module is imported and its doctests run; ``__main__``
is skipped, since importing it runs the command line.
"""

import doctest
import importlib
import pkgutil

import pytest

import cmresidues

MODULES = sorted(m.name for m in pkgutil.iter_modules(cmresidues.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    module = importlib.import_module(f"cmresidues.{name}")
    failed, _ = doctest.testmod(module)
    assert failed == 0


def test_doctests_are_found():
    # a decorator that hid a docstring from doctest would pass the test above vacuously
    attempted = {name: doctest.testmod(importlib.import_module(f"cmresidues.{name}")).attempted for name in MODULES}
    assert {name for name, n in attempted.items() if n} >= {"curves", "engine", "eisenstein", "gaussian", "prime_sets", "primes"}
    assert attempted["gaussian"] >= 7  # split_prime's three examples among them
