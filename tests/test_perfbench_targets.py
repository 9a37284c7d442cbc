"""Every name the benchmark's tracer wraps still resolves in the package.

`perfbench/run.py --trace 1` wraps the targets listed in
perfbench/tracer.py by module and attribute path.  A module it cannot
find is skipped without a word, and a missing attribute fails only
inside a traced run, so a renamed or deleted function is caught here.
The tracer is loaded from its file and nothing is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(module: str, path: str):
    """The object the tracer would wrap: a module attribute, or the raw
    entry of a class's own namespace for a dotted path."""
    owner = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, path)


FUNCTIONS = tracer.SPANS + tracer.COUNTS + tracer.TIMED_COUNTS


@pytest.mark.parametrize("module, path, name", FUNCTIONS, ids=[name for *_, name in FUNCTIONS])
def test_traced_function_resolves(module, path, name):
    target = _resolve(module, path)
    assert callable(target) or isinstance(target, classmethod)


@pytest.mark.parametrize(
    "module, path, name", tracer.GENERATORS, ids=[name for *_, name in tracer.GENERATORS]
)
def test_traced_generator_resolves(module, path, name):
    assert inspect.isgeneratorfunction(_resolve(module, path))


def test_traced_cli_commands_exist():
    from posetcode.cli import cli

    assert set(tracer.CLI_COMMANDS) <= set(cli.commands)
