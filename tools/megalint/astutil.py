"""Small AST predicates shared by several rules."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence


def call_name(node: ast.Call) -> Optional[str]:
    """The simple callee name of a call: ``foo(...)`` or ``obj.foo(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains into ``"a.b.c"`` (None if not)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_setish(node: ast.AST) -> bool:
    """Syntactically a set: display, comprehension, or set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def walk_scope(root: ast.AST, into_classes: bool = False
               ) -> Iterator[ast.AST]:
    """Preorder walk of ``root``, descending into nested defs but not
    nested classes (unless ``into_classes``)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in
                     reversed(list(ast.iter_child_nodes(node)))
                     if into_classes or not isinstance(child, ast.ClassDef))


def is_name_call(node: ast.AST, names: Sequence[str]) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in names)


def body_only_swallows(body: Sequence[ast.stmt]) -> bool:
    """True when a block does nothing: pass / continue / ``...`` only."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis):
            continue
        return False
    return True


def decorator_is(node: ast.expr, name: str) -> bool:
    """Matches ``@name``, ``@mod.name``, ``@name(...)`` decorators."""
    if isinstance(node, ast.Call):
        node = node.func
    flat = dotted_name(node)
    return flat is not None and flat.split(".")[-1] == name


MUTABLE_FACTORIES = ("list", "dict", "set", "defaultdict",
                     "OrderedDict", "Counter", "deque", "bytearray")


def is_mutable_literal(node: ast.AST) -> bool:
    """Syntactically a fresh mutable container used as a default."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in MUTABLE_FACTORIES
    return False
