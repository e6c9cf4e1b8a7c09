"""The package's public surface: every exported name resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import drsplit

MODULES = sorted(m.name for m in pkgutil.iter_modules(drsplit.__path__))


def test_package_all_resolves():
    missing = [n for n in drsplit.__all__ if not hasattr(drsplit, n)]
    assert missing == []
    assert len(set(drsplit.__all__)) == len(drsplit.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"drsplit.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_readme_quick_start_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
    assert capsys.readouterr().out
