"""Every public top-level function and class of the package is reached from
package or demo code, not only from the tests: a name that nothing but its
own definition (and the package exports) refers to is dead weight."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in sorted((ROOT / "src" / "ydde").glob("*.py"))
           if p.name != "__init__.py"]

# Kept although no package or demo code calls them.
ALLOWED = {
    "gronwall_check",   # the paper's Gronwall-type lemma, an estimate
    "young_bound",      # the paper's displayed Young integral bound
    "map_F",            # the integral map whose fixed point the tests check
    "read_csv",         # reads back the CLI's own solution.csv
}


def _public_definitions(path):
    """``(name, line)`` of each public top-level def and class."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.name, node.lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _name_tokens(path):
    """``(name, line)`` of every name token in the code; comments and
    strings, docstrings included, are not names."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [(tok.string, tok.start[0]) for tok in tokens
            if tok.type == tokenize.NAME]


def test_every_public_name_is_reached():
    uses = {}
    for path in MODULES + sorted((ROOT / "demos").glob("*.py")):
        for name, line in _name_tokens(path):
            uses.setdefault(name, set()).add((path, line))
    definitions = [(name, (path, line)) for path in MODULES
                   for name, line in _public_definitions(path)]
    assert ALLOWED <= {name for name, _ in definitions}
    unreached = sorted(name for name, where in definitions
                       if not uses.get(name, set()) - {where}
                       and name not in ALLOWED)
    assert not unreached, f"reached from no package or demo code: {unreached}"
