"""Every function, class and method in ``src/treesplice`` is read by code in
``src/`` or ``perfbench/``, not by tests alone.

A read is a name or attribute in code, an import outside the package's
``__init__``, or a part of a string such as perfbench's
"sampler.process_bp_on".  A method is read only as an attribute (``x.name``)
or a part of a dotted string, so a local variable or a parameter of the same
name does not hide an unread method.  Docstrings, comments, definitions and
the ``__init__`` exports do not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treesplice"

# Read by tests alone on purpose: invariant checks, and the exact oracle
# that the resistance estimates are tested against.
KEEP = {"SpanningTree.validate", "effective_resistance_exact"}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{f.name}" for f in node.body
                        if isinstance(f, ast.FunctionDef))


def _reads(tree: ast.Module, is_init: bool):
    """(name, read as an attribute or dotted-string part) for each read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.ImportFrom) and not is_init:
            yield from ((alias.name, False) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                parts = node.value.split(".")
                yield from ((part, len(parts) > 1) for part in parts)


def test_every_definition_is_read_outside_tests():
    reads, attr_reads, defined = Counter(), Counter(), []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, as_attr in _reads(tree, path == PACKAGE / "__init__.py"):
            reads[name] += 1
            attr_reads[name] += as_attr
        if path.parent == PACKAGE:
            defined += [(path.stem, name) for name in _definitions(tree)]
    assert KEEP <= {name for _, name in defined}
    unread = [
        f"{module}.{name}" for module, name in defined
        if name not in KEEP
        and not re.fullmatch(r"__\w+__", leaf := name.rsplit(".", 1)[-1])
        and not (attr_reads if "." in name else reads)[leaf]
    ]
    assert unread == []
