"""Shared AST utilities for rules: alias-aware name resolution.

Rules need to answer "does this call resolve to ``time.perf_counter``?"
robustly against the usual import spellings::

    import time; time.perf_counter()
    import time as _time; _time.perf_counter()
    from time import perf_counter; perf_counter()
    from numpy.random import default_rng as rng_ctor; rng_ctor()

:class:`ImportMap` collects a module's import aliases once;
:func:`resolve_call_target` then canonicalises any ``Name`` /
``Attribute`` chain to its fully-qualified dotted name (or ``None``
when the chain bottoms out in something dynamic).
"""

from __future__ import annotations

import ast


class ImportMap:
    """Alias → fully-qualified-name map built from a module's imports."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a`` (to package a);
                    # ``import a.b as c`` binds ``c`` to ``a.b``.
                    target = alias.name if alias.asname else name
                    self.aliases[name] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports stay package-local
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: str) -> str:
        """Canonicalise the first segment of a dotted chain."""
        head, _, rest = dotted.partition(".")
        full = self.aliases.get(head, head)
        return f"{full}.{rest}" if rest else full


def has_dotted_suffix(name: str, *suffixes: str) -> bool:
    """Whether ``name`` is one of ``suffixes`` or ends with one of them on
    a dotted-name boundary: ``obs.events`` matches ``repro.obs.events``
    but not ``repro.obs.revents``."""
    return any(name == s or name.endswith("." + s) for s in suffixes)


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_target(node: ast.expr, imports: ImportMap) -> str | None:
    """Fully-qualified dotted name a Name/Attribute chain refers to."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    return imports.resolve(dotted)


def literal_str_prefix(node: ast.expr, constants: dict[str, object]) -> tuple[str | None, bool]:
    """Best-effort string value of an expression.

    Returns ``(value, is_prefix)``: a plain string constant resolves
    exactly (``is_prefix=False``); an f-string or a ``PREFIX + var``
    concatenation resolves to its leading literal part
    (``is_prefix=True``); anything else gives ``(None, False)``.
    ``constants`` maps module-level names to their constant values.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr):
        prefix = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                prefix.append(value.value)
            else:
                return ("".join(prefix) or None), True
        return "".join(prefix), False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, left_prefix = literal_str_prefix(node.left, constants)
        if left is None:
            return None, False
        if left_prefix:
            return left, True
        right, right_prefix = literal_str_prefix(node.right, constants)
        if right is None:
            return left, True
        return left + right, right_prefix
    if isinstance(node, ast.Name):
        value = constants.get(node.id)
        if isinstance(value, str):
            return value, False
    return None, False


def module_constants(tree: ast.Module) -> dict[str, object]:
    """Module-level ``NAME = <constant>`` assignments (str/int/float)."""
    out: dict[str, object] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Constant) and isinstance(
                value.value, (str, int, float)
            ):
                out[target.id] = value.value
    return out


def fold_int(node: ast.expr, env: dict[str, int]) -> int | None:
    """Evaluate a small integer expression statically.

    Supports int constants, names bound in ``env``, unary ``-``, and
    the binary operators ``+ - * // << >> | &`` — enough to resolve
    constants like ``(1 << PRIORITY_FIELD_BITS) - 1`` without importing
    the module under analysis.
    """
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, int) else None
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = fold_int(node.operand, env)
        return -inner if inner is not None else None
    if isinstance(node, ast.BinOp):
        left = fold_int(node.left, env)
        right = fold_int(node.right, env)
        if left is None or right is None:
            return None
        op = node.op
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.FloorDiv):
            return left // right if right else None
        if isinstance(op, ast.LShift):
            return left << right
        if isinstance(op, ast.RShift):
            return left >> right
        if isinstance(op, ast.BitOr):
            return left | right
        if isinstance(op, ast.BitAnd):
            return left & right
    return None
