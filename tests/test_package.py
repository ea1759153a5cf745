"""The package namespace: `import dualtriad` imports no submodule, and every
public name and submodule is served on first use; the moved names a module
still serves, exactly those the benchmark's tracer reads there; the guard
against patching a served name; the compile budget of triads; and the names
the benchmark's tracer wraps."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SUBMODULES = ("cli", "dynsys", "exact", "misprints", "output", "polynomial", "reference", "sequences", "triads")
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

CHECKS = {
    # Every public name is the object its defining module holds: the module
    # a class or function names, or for a constant (X, LEDGER) one that holds it.
    "names resolve": """
import dualtriad, sys
for name in dualtriad.__all__:
    obj = getattr(dualtriad, name)
    loaded = {n: vars(m) for n, m in sys.modules.items() if n.startswith("dualtriad.")}
    holders = {n for n, namespace in loaded.items() if name in namespace and namespace[name] is obj}
    defining = getattr(obj, "__module__", "")
    assert holders and (defining in holders or not defining.startswith("dualtriad.")), name
""",
    "star import": """
import dualtriad
namespace = {}
exec("from dualtriad import *", namespace)
assert set(dualtriad.__all__) <= set(namespace), set(dualtriad.__all__) - set(namespace)
for name in dualtriad.__all__:
    assert namespace[name] is getattr(dualtriad, name), name
""",
    "dir lists every name": """
import dualtriad
assert set(dualtriad.__all__) <= set(dir(dualtriad)), set(dualtriad.__all__) - set(dir(dualtriad))
""",
    "submodules reachable": """
import dualtriad, sys
for m in SUBMODULES:
    assert getattr(dualtriad, m) is sys.modules["dualtriad." + m], m
""",
    "unknown name": """
import dualtriad
try:
    dualtriad.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("no AttributeError")
assert not hasattr(dualtriad, "no_such_name")
""",
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_namespace_in_a_fresh_process(check):
    code = f"SUBMODULES = {SUBMODULES!r}\n" + CHECKS[check]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_submodule():
    code = "import dualtriad, sys\nprint(sorted(m for m in sys.modules if m.startswith('dualtriad')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "['dualtriad']\n"), proc.stderr


def _code_objects(code):
    """code and every code object nested in it: each function, lambda,
    comprehension and class body, as the CI step "Source line count" counts them."""
    return 1 + sum(_code_objects(c) for c in code.co_consts if isinstance(c, type(code)))


def _traced_names() -> dict[str, set[str]]:
    """The names perfbench/tracing.py's LAYERS reads from each module: a
    dotted attribute reads its class."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names: dict[str, set[str]] = {}
    for targets in tracing.LAYERS.values():
        for module_name, attr in targets:
            names.setdefault(module_name, set()).add(attr.split(".")[0])
    return names


@pytest.mark.parametrize("old", SUBMODULES)
def test_a_moved_name_is_the_same_object_from_its_old_module(old):
    # In a fresh process: the names a module serves but does not define are
    # exactly the ones the tracer reads there and that moved, each the object
    # its defining module holds; reading one leaves no copy in the module.
    code = f"OLD, SUBMODULES, TRACED = {old!r}, {SUBMODULES!r}, {sorted(_traced_names().get(old, ()))!r}\n" + """
import importlib, sys
module = importlib.import_module("dualtriad." + OLD)
names = {n for m in SUBMODULES for n in vars(importlib.import_module("dualtriad." + m)) if not n.startswith("__")}
served = {n for n in names if n not in vars(module) and hasattr(module, n)}
assert served == {n for n in TRACED if n not in vars(module)}, served
for name in served:
    obj = getattr(module, name)
    assert obj.__module__ != module.__name__ and vars(sys.modules[obj.__module__])[name] is obj, name
assert not served & set(vars(module)), served & set(vars(module))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("old", SUBMODULES)
def test_an_unknown_name_of_a_forwarding_module_is_refused(old):
    module = importlib.import_module(f"dualtriad.{old}")
    with pytest.raises(AttributeError, match=f"^module 'dualtriad.{old}' has no attribute 'no_such_name'$"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_a_patch_of_a_served_name_is_refused(monkeypatch):
    # No code reads generate_named from triads, so a patch there would check
    # nothing (tests/conftest.py); verify_triad is defined there.
    from dualtriad import triads

    with pytest.raises(AttributeError, match="patch it in dualtriad.reference$"):
        monkeypatch.setattr(triads, "generate_named", None)
    monkeypatch.setattr(triads, "verify_triad", None)
    assert triads.verify_triad is None


def test_triads_code_object_budget():
    # Every job compiles triads, the largest module a command imports, and its compile() peak
    # sets every job's import floor; that peak moves in steps with the count of
    # code objects, which may fall but not rise: the limit is the count on 3.11,
    # lowered with it.  From 3.12 on, comprehensions are inlined and count less.
    path = Path(__file__).resolve().parent.parent / "src" / "dualtriad" / "triads.py"
    assert _code_objects(compile(path.read_text(), str(path), "exec")) <= 39


def test_traced_names_resolve():
    # perfbench/tracing.py wraps (module, attribute) pairs of dualtriad by
    # name, and a traced name renamed under src/ breaks the benchmark, which
    # no other tier-1 test runs.  A dotted attribute is a method in its
    # class's __dict__, where Tracer.install looks it up.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, targets in tracing.LAYERS.items():
        for module_name, attr in targets:
            owner = importlib.import_module(f"dualtriad.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                assert method in vars(getattr(owner, cls_name)), (span, module_name, attr)
            else:
                assert callable(getattr(owner, attr, None)), (span, module_name, attr)
