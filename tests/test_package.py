"""The package namespace: each public name loads from its home module on
first use and is the very object that module defines."""

import importlib

import pytest

from conftest import run_fresh

import posetcode


def test_every_public_name_is_its_home_modules_object():
    assert set(posetcode._HOME) == set(posetcode.__all__)
    for name in posetcode.__all__:
        home = importlib.import_module(f"posetcode.{posetcode._HOME[name]}")
        assert getattr(posetcode, name) is getattr(home, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        posetcode.nope


def test_fresh_namespace_lists_and_star_imports_every_name():
    # Before first use no public name is bound, yet dir() lists them all;
    # a star import then binds every one.
    script = """
import posetcode
names = set(posetcode.__all__)
print(sorted(names & set(vars(posetcode))), sorted(names - set(dir(posetcode))))
scope = {}
exec("from posetcode import *", scope)
print(sorted(names - set(scope)))
"""
    assert run_fresh(script).splitlines() == ["[] []", "[]"]
