"""Every function, class, method and dataclass field in ``src/treesplice``
is read by code in ``src/`` or ``perfbench/``, not by tests alone, and
every defaulted parameter of one is set by some call there.

A read is a name or attribute in code, an import outside the package's
``__init__``, or a part of a string such as perfbench's
"sampler.process_bp_on".  A method is read only as an attribute (``x.name``)
or a part of a dotted string, so a local variable or a parameter of the same
name does not hide an unread method; ``self.name`` inside class C reads
only ``C.name``, so a field of one class does not hide another class's
method.  A dataclass field is read as a method is, so a field that
``csv_rows`` writes out is read.  Docstrings, comments,
definitions and the ``__init__`` exports do not count.

A call sets a parameter by keyword, by position, or through ``*args`` /
``**kwargs``.  Calls are matched by the callee's last name (``f(...)``,
``x.f(...)``), and a class's ``__init__`` by the class name.  A default that
no call overrides is a constant in disguise.
"""

import ast
import re
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treesplice"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Read by tests alone on purpose: invariant checks, the exact oracle that
# the resistance estimates are tested against, and the per-tree next hop
# that tests check routes against.
KEEP = {"SpanningTree.validate", "effective_resistance_exact", "RoutingState.next_hop"}
# Set by tests alone on purpose: a safety bound that tests lower.
KEEP_OPTIONS = {"route.hop_cap"}
# Dataclass fields read by tests alone on purpose: the vertex where an
# oriented walk stranded, which the walk pins and the stranding tests read,
# and a route's vertices, which tests use to check routes.
KEEP_FIELDS = {"ProcessBResult.stuck_vertex", "RouteResult.path"}


def _trees():
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]


def _definitions(tree: ast.Module):
    """(name, class or None, def node) for each module function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, None, node
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef):
                    yield f"{node.name}.{f.name}", node.name, f


def _reads(node: ast.AST, is_init: bool, owner: str | None = None):
    """(name, read as an attribute or dotted-string part, reading class) for
    each read; the class is set only for ``self.name`` inside a class body."""
    if isinstance(node, ast.ClassDef):
        owner = node.name
    if isinstance(node, ast.Name):
        yield node.id, False, None
    elif isinstance(node, ast.Attribute):
        is_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        yield node.attr, True, owner if is_self else None
    elif isinstance(node, ast.ImportFrom) and not is_init:
        yield from ((alias.name, False, None) for alias in node.names)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if re.fullmatch(r"[\w.]+", node.value):
            parts = node.value.split(".")
            yield from ((part, len(parts) > 1, None) for part in parts)
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, is_init, owner)


def _read_names(trees):
    """Read counts by name, and per name the classes whose ``self`` reads it
    as an attribute (None for any other attribute read)."""
    reads, attr_reads = Counter(), defaultdict(set)
    for path, tree in trees:
        for name, as_attr, owner in _reads(tree, path == PACKAGE / "__init__.py"):
            reads[name] += 1
            if as_attr:
                attr_reads[name].add(owner)
    return reads, attr_reads


def test_every_definition_is_read_outside_tests():
    trees = _trees()
    reads, attr_reads = _read_names(trees)
    defined = [
        (path.stem, name)
        for path, tree in trees if path.parent == PACKAGE
        for name, _, _ in _definitions(tree)
    ]
    assert KEEP <= {name for _, name in defined}

    def is_read(name: str) -> bool:
        if "." not in name:
            return reads[name] > 0
        cls, leaf = name.rsplit(".", 1)
        return bool(attr_reads[leaf] & {None, cls})

    unread = [
        f"{module}.{name}" for module, name in defined
        if name not in KEEP
        and not re.fullmatch(r"__\w+__", name.rsplit(".", 1)[-1])
        and not is_read(name)
    ]
    assert unread == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def test_every_dataclass_field_is_read_outside_tests():
    trees = _trees()
    _, attr_reads = _read_names(trees)
    fields = [
        (node.name, item.target.id)
        for path, tree in trees if path.parent == PACKAGE
        for node in tree.body if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert KEEP_FIELDS <= {f"{cls}.{name}" for cls, name in fields}
    unread = [
        f"{cls}.{name}" for cls, name in fields
        if f"{cls}.{name}" not in KEEP_FIELDS and not attr_reads[name] & {None, cls}
    ]
    assert unread == []


def _options(func: ast.FunctionDef, bound: bool):
    """(positional parameters after the bound one, defaulted parameter names)."""
    args = func.args
    params = [a.arg for a in args.posonlyargs + args.args]
    defaulted = params[len(params) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return params[bound:], defaulted


def _set_by(call: ast.Call, positional: list[str]) -> set[str]:
    """Names of the parameters a call sets; "*" when it may set any."""
    names = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            names.update(positional[i:])
            break
        if i < len(positional):
            names.add(positional[i])
    for kw in call.keywords:
        names.add(kw.arg if kw.arg is not None else "*")
    return names


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_defaulted_parameter_is_set_outside_tests():
    trees = _trees()
    # callee name -> [(qualified name, positional parameters, defaulted ones)]
    options = defaultdict(list)
    for path, tree in trees:
        if path.parent != PACKAGE:
            continue
        for name, cls, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            positional, defaulted = _options(node, cls is not None and not static)
            if defaulted:
                callee = cls if node.name == "__init__" else node.name
                options[callee].append((name, positional, defaulted))
    set_anywhere = defaultdict(set)
    for _, tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _callee(call) in options:
                for name, positional, _ in options[_callee(call)]:
                    set_anywhere[name] |= _set_by(call, positional)
    declared, unset = set(), []
    for entries in options.values():
        for name, _, defaulted in entries:
            for param in defaulted:
                option = f"{name.removesuffix('.__init__')}.{param}"
                declared.add(option)
                if not set_anywhere[name] & {param, "*"}:
                    unset.append(option)
    assert KEEP_OPTIONS <= declared
    assert sorted(set(unset) - KEEP_OPTIONS) == []
