"""Everything public in the package is reached from code that is not a test.

- A public top-level function or class is read, as a name or an attribute,
  by package or demo code; an import, the package exports included, is not
  a read.
- A public method or property of a public class is read, as an attribute,
  by package, demo or benchmark code.
- A default-valued parameter of a function or method, public or private,
  is passed, by keyword or by position, by some call in package, demo or
  benchmark code: a knob that only tests turn is dead weight.
- A private top-level function or a module-level constant is read by
  package code other than its own definition: a helper a change leaves
  behind is found.
- A public function that takes a solve's report (``base`` or ``report``)
  takes neither its coefficients nor its driver: the report carries them.

Names are matched without their class or module, so a name read anywhere
counts for every definition of it.  The benchmark files are only read here,
never run."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "ydde").glob("*.py"))
           if p.name != "__init__.py"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Kept although no package, demo or benchmark code reaches them; an entry
# covers a name and all of its parameters, or one parameter ``name(param)``.
ALLOWED = {
    "gronwall_check",      # the paper's Gronwall-type lemma, an estimate
    "picard_solve(init)",  # the solo reference that resolve is tested against
}


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def _functions(path):
    """``(def node, is_method)`` of each public top-level function and each
    public method or property of a public top-level class."""
    body = _tree(path).body
    out = [(node, False) for node in _public(body, ast.FunctionDef)]
    for cls in _public(body, ast.ClassDef):
        out += [(node, True) for node in _public(cls.body, ast.FunctionDef)]
    return out


def _callables(path):
    """``(callee name, def node, is_method)`` of each top-level function and
    each method of each top-level class, private ones included; a call of
    a class runs its ``__init__``."""
    out = []
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node, False))
        elif isinstance(node, ast.ClassDef):
            out += [(node.name if fn.name == "__init__" else fn.name, fn, True)
                    for fn in node.body if isinstance(fn, ast.FunctionDef)]
    return out


def _used_names(paths):
    """Every name the code of ``paths`` reads, as a variable or as an
    attribute, f-strings included; comments, strings and definitions are
    not uses."""
    used = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _unreached(names, used):
    return sorted(name for name in names
                  if name not in used and name not in ALLOWED)


def _defaulted(node, is_method):
    """``(positional index or None, name)`` of each parameter with a
    default; the index counts from the first argument a call passes."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method else 0        # self
    out = [(i - skip, arg.arg) for i, arg in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(None, arg.arg) for arg, default
            in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def _passed(paths):
    """Per callee name: the positional indices and keyword names its calls
    pass; ``*args`` passes every later index, ``**kwargs`` every name."""
    passed = {}
    for path in paths:
        for call in ast.walk(_tree(path)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            got = passed.setdefault(name, set())
            for i, arg in enumerate(call.args):
                got.add(("*", i) if isinstance(arg, ast.Starred) else i)
            for kw in call.keywords:
                got.add(kw.arg or "**")
    return passed


def _reaches(got, index, name):
    return (name in got or "**" in got or index in got
            or (index is not None
                and any(isinstance(g, tuple) and g[1] <= index for g in got)))


def test_every_public_name_is_reached():
    names = [node.name for path in MODULES
             for node in _public(_tree(path).body,
                                 (ast.FunctionDef, ast.ClassDef))]
    assert {a for a in ALLOWED if "(" not in a} <= set(names)
    unreached = _unreached(names, _used_names(MODULES + DEMOS))
    assert not unreached, f"reached from no package or demo code: {unreached}"


def test_every_public_method_is_reached():
    names = [node.name for path in MODULES
             for node, is_method in _functions(path) if is_method]
    unreached = _unreached(names, _used_names(MODULES + DEMOS + BENCH))
    assert not unreached, \
        f"methods reached from no package, demo or bench code: {unreached}"


def test_every_default_parameter_is_passed():
    passed = _passed(MODULES + DEMOS + BENCH)
    found = set()
    unpassed = []
    for path in MODULES:
        for name, node, is_method in _callables(path):
            for index, param in _defaulted(node, is_method):
                label = f"{name}({param})"
                found.add(label)
                if name in ALLOWED or label in ALLOWED:
                    continue
                if not _reaches(passed.get(name, set()), index, param):
                    unpassed.append(label)
    assert {a for a in ALLOWED if "(" in a} <= found
    assert not unpassed, \
        f"parameters no package, demo or bench call passes: {sorted(unpassed)}"


def _module_names(path):
    """The name of each private top-level function and each module-level
    constant (a top-level assigned name) of ``path``."""
    out = []
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out += [n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return out


def _readers(paths):
    """Per name: the top-level definitions (None: module level) whose code
    reads it, as a variable or as an attribute."""
    readers = {}
    for path in paths:
        for node in _tree(path).body:
            owner = getattr(node, "name", None)
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute)
                        else None)
                if name is not None and isinstance(sub.ctx, ast.Load):
                    readers.setdefault(name, set()).add(owner)
    return readers


def test_every_private_function_and_constant_is_read():
    readers = _readers(MODULES)
    found = [(path.name, name) for path in MODULES
             for name in _module_names(path)]
    assert ("paths.py", "_block_boxes") in found
    assert ("paths.py", "_BAND") in found
    assert ("drivers.py", "_embedding_eigenvalues") in found
    assert ("drivers.py", "_SERIES_TERMS") in found
    unread = sorted(f"{module}:{name}" for module, name in found
                    if not readers.get(name, set()) - {name})
    assert not unread, f"read by no other package code: {unread}"


def test_report_checks_take_no_coefficients_or_driver():
    checked = []
    for path in MODULES:
        if path.stem == "__main__":     # importing it runs the command line
            continue
        module = importlib.import_module(f"ydde.{path.stem}")
        for node in _public(_tree(path).body, ast.FunctionDef):
            params = set(inspect.signature(getattr(module, node.name))
                         .parameters)
            if params & {"base", "report"}:
                checked.append(node.name)
                assert not params & {"coeffs", "omega"}, node.name
    assert {"resolve", "uniqueness_probe", "linearized_solve",
            "continuity_check", "differentiability_check",
            "growth_bound_check", "ball_check"} <= set(checked)
