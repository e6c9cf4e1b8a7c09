"""The package's public surface: every exported name resolves and has a
library caller or a stated reason, and the test oracles stay out of it."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import drsplit
from drsplit import cli
from drsplit.operators import BoxNormalCone, NullspaceNormalCone
from drsplit.qp import kkt_check

MODULES = sorted(m.name for m in pkgutil.iter_modules(drsplit.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"

# exports that no library code calls, each with the change that gives it
# a caller (ROADMAP items)
UNCALLED_EXPORTS = {
    "tolerance_stop": "item 10's stop rule on the paper's tolerances",
    "verify_hpe_inequality": "perfbench's certificate replay, until item 1a",
    "faces_instance": "item 6's faces family in drsplit-bench",
}


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
    # the one python block of the README runs as written, and its solve
    # ends at a KKT point of its instance
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert capsys.readouterr().out
    assert kkt_check(ns["inst"], ns["quad"].x, 1e-5)


# the references of a backticked span: a dotted name that starts with
# drsplit or one of its modules, and a repository path, a span with a
# slash or a source suffix whose parts start with a letter, "_" or "."
# (so 1/j and runs.csv are neither)
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
PART = r"[A-Za-z_.][\w.-]*"
REPO_PATH = re.compile(
    rf"{PART}(?:/{PART})*(?:/|\.(?:py|md|json|toml|yml))|{PART}(?:/{PART})+")


def _stale_references(text: str, root: Path) -> list[str]:
    # backticked drsplit names that do not resolve and repository paths
    # that do not exist under root; fenced blocks hold code, not references
    stale = []
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in (" ".join(s.split()) for s in re.findall(r"`([^`]+)`", text)):
        if REPO_PATH.fullmatch(span):
            if not (root / span).exists():
                stale.append(span)
            continue
        name = DOTTED.match(span)
        parts = name.group().split(".") if name else []
        if parts[:1] == ["drsplit"]:
            parts = parts[1:]
        elif not (len(parts) > 1 and parts[0] in MODULES):
            continue
        obj = drsplit
        for part in parts:
            if obj is drsplit and part in MODULES:
                obj = importlib.import_module(f"drsplit.{part}")
            elif hasattr(obj, part):
                obj = getattr(obj, part)
            else:
                stale.append(span)
                break
    return sorted(stale)


def test_reference_scan_finds_a_stray_name_and_path():
    text = ("`drs.envelope(state, cfg, d0)` and `drsplit.CertBlock` and\n"
            "`drsplit.qp`, then `drs.embed_hpe` and `drsplit.qp.no_such`;\n"
            "`tests/` `tests/test_package.py` `tests/no_such.py` `nowhere/`\n"
            "`inst.F2` `runs.csv` `1/j` `drsplit-bench --n 2`\n"
            "```\n`drs.fenced_name`\n```\n")
    assert _stale_references(text, README.parent) == [
        "drs.embed_hpe", "drsplit.qp.no_such", "nowhere/", "tests/no_such.py"]


def test_readme_names_and_paths_resolve():
    assert _stale_references(README.read_text(), README.parent) == []


def _option_mismatch(text: str, options) -> list[str]:
    # the --options of the README's CLI section that the parser lacks,
    # and the parser's long options that the section does not name
    section = re.search(r"^## Command line\n(.*?)(?=^## |\Z)", text,
                        re.S | re.M).group(1)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    return sorted(named ^ set(options))


def test_option_scan_finds_a_stray_and_a_missing_option():
    text = "## Command line\n`--n N` and `--sigma S`\n## Modules\n--theta\n"
    assert _option_mismatch(text, ["--n", "--seed"]) == ["--seed", "--sigma"]


def test_readme_cli_section_names_the_parser_options():
    options = [s for action in cli.build_parser()._actions
               for s in action.option_strings if s.startswith("--")]
    assert _option_mismatch(README.read_text(), options) == []


def _unused_imports(source: str) -> list[str]:
    # names a module imports and neither reads nor lists in __all__
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_scan_finds_a_stray_name():
    src = "import math, os\nfrom numpy import array as arr, zeros\n" \
          "__all__ = ['zeros']\nprint(os.sep)\n"
    assert _unused_imports(src) == ["arr", "math"]


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_module_imports_are_used(name):
    path = Path(drsplit.__file__).with_name(f"{name}.py")
    assert _unused_imports(path.read_text()) == []


# numpy's vector primitives that operators codes once, as _norm, _clip
# and the overflow-quiet _quiet_norm (and, in _point, its finiteness test)
VECTOR_PRIMITIVES = ("np.linalg.norm", "np.clip", "np.vdot")


def _primitive_calls(source: str) -> list[str]:
    # calls of a numpy vector primitive, by the dotted name they are made by
    calls = (ast.unparse(node.func) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call))
    return sorted(name for name in calls if name in VECTOR_PRIMITIVES)


def test_primitive_call_scan_finds_a_stray_call():
    # a reference that is not called, such as square = np.vdot, is no call
    src = "import numpy as np\n# np.clip(a, 0, 1)\nsquare = np.vdot\n" \
          "x = np.clip(np.linalg.norm(a), 0, 1) + np.linalg.eigvalsh(w)[0]\n" \
          "y = math.sqrt(np.vdot(a, a))\n"
    assert _primitive_calls(src) == ["np.clip", "np.linalg.norm", "np.vdot"]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "operators"])
def test_vector_primitives_have_one_owner(name):
    # the package's norms and box clip are operators._norm, _quiet_norm
    # and _clip; the tests keep numpy's functions as independent references
    path = Path(drsplit.__file__).with_name(f"{name}.py")
    assert _primitive_calls(path.read_text()) == []


# the messages of operators._point, the package's one check of a
# caller's vector
POINT_MESSAGES = ("must be a vector", "must have length",
                  "contains non-finite entries")


def _messages(source: str, phrases) -> list[str]:
    # string constants, the literal parts of f-strings included, that
    # hold one of the phrases
    return sorted(node.value for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and any(phrase in node.value for phrase in phrases))


def _point_messages(source: str) -> list[str]:
    return _messages(source, POINT_MESSAGES)


def test_point_message_scan_finds_a_stray_check():
    src = "# z must be a vector\nx = 'must be finite'\n" \
          "raise ValueError(f'{name} must have length {n}')\n" \
          "raise ValueError('z0 contains non-finite entries')\n"
    assert _point_messages(src) == [" must have length ",
                                    "z0 contains non-finite entries"]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "operators"])
def test_the_point_rule_has_one_owner(name):
    # every vector a caller hands the package goes through operators._point
    path = Path(drsplit.__file__).with_name(f"{name}.py")
    assert _point_messages(path.read_text()) == []


# the message of drs.outer_certificates, the package's one replay of a
# run's history against its trace
REPLAY_MESSAGES = ("residual readings diverge",)


def test_replay_message_scan_finds_a_stray_check():
    # adjacent f-strings are one node; a comment or another phrase is none
    src = "# the residual readings diverge here\n" \
          "x = 'the residual readings agree'\n" \
          "raise InvariantViolation(\n" \
          "    f'extragradient step {j}: residual readings diverge '\n" \
          "    f'({shift} vs {vnorm})')\n"
    assert _messages(src, REPLAY_MESSAGES) == [": residual readings diverge ("]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "drs"])
def test_the_replay_check_has_one_owner(name):
    # a run's history is replayed against its trace in outer_certificates
    path = Path(drsplit.__file__).with_name(f"{name}.py")
    assert _messages(path.read_text(), REPLAY_MESSAGES) == []


def _uncalled_exports(sources, exports) -> list[str]:
    # exports that no module's code reads as a Name or an Attribute; a
    # read inside the name's own top-level def or class does not count,
    # and imports, __all__ lists and docstrings hold no such node
    read = set()
    for source in sources:
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name is not None and name != own:
                    read.add(name)
    return sorted(set(exports) - read)


def test_uncalled_export_scan_finds_a_stray_name():
    sources = ['"""called by stray() and own()"""\n'
               'from m import called\n__all__ = ["stray", "own"]\n'
               'def stray():\n    pass\n'
               'def own(k):\n    return own(k - 1) if k else k.attr\n',
               'def f():\n    return called(m.via_attr)\n']
    exports = ["called", "via_attr", "attr", "stray", "own"]
    assert _uncalled_exports(sources, exports) == ["own", "stray"]


def test_every_export_has_a_library_caller_or_a_reason():
    sources = [Path(drsplit.__file__).with_name(f"{name}.py").read_text()
               for name in MODULES]
    assert _uncalled_exports(sources, drsplit.__all__) == \
        sorted(UNCALLED_EXPORTS)


def test_oracles_stay_out_of_the_package():
    tests = Path(__file__).resolve().parent
    tree = ast.parse((tests / "oracles.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined
    left = sorted(f"drsplit.{mod}.{name}" for mod in MODULES for name in defined
                  if hasattr(importlib.import_module(f"drsplit.{mod}"), name))
    assert left == []
    # the cones' membership tests are oracle functions, not methods
    assert [cone.__name__ for cone in (BoxNormalCone, NullspaceNormalCone)
            if hasattr(cone, "contains")] == []
    # run from the tests directory, where oracles.py is importable, so a
    # stray import in the package would load it; the subprocess imports
    # the drsplit this test imported, installed or from the source tree
    env = dict(os.environ,
               PYTHONPATH=str(Path(drsplit.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, drsplit; print('oracles' in sys.modules)"],
        cwd=tests, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
