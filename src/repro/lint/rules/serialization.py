"""Rule ``sorted-iteration-before-serialization``.

The artifact-writing layers (``repro.obs``, the campaign store and
report, ``repro.report``) promise byte-identical output for identical
runs — the resume/shard tests literally compare bytes.  Iterating a
``dict`` or ``set`` while producing those bytes couples the artifact to
insertion/hash order; an innocent refactor that changes the order in
which keys were inserted then changes published artifacts.  Inside any
function of the scoped modules that serialises (calls ``json.dump(s)``,
a ``csv`` writer, or is itself a ``to_dict``/``as_dict``/``to_json``
style converter), dict/set iteration must go through ``sorted(...)``.

Order-insensitive reductions (``sum``, ``min``, ``max``, ``any``,
``all``, ``len``, ``set``, ``frozenset``) are exempt: their result does
not depend on iteration order.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.asthelpers import (
    ImportMap,
    has_dotted_suffix,
    resolve_call_target,
)
from repro.lint.context import ModuleInfo
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, register

#: Modules whose serialisation functions are checked (suffix match, plus
#: every submodule of the ``repro.obs`` package).
SCOPED_MODULES = (
    "repro.report",
    "repro.campaign.store",
    "repro.campaign.report",
)
SCOPED_PACKAGES = ("repro.obs",)

#: Function names that are serialisers by convention.
SERIALIZER_NAMES = frozenset(
    {"to_dict", "as_dict", "to_json", "to_jsonable", "to_csv"}
)

#: Calls that mark a function as serialising.
SERIALIZING_CALLS = frozenset({"json.dump", "json.dumps"})
SERIALIZING_METHODS = frozenset({"writerow", "writerows", "writeheader"})

#: Dict/set views whose bare iteration is order-dependent.
VIEW_METHODS = frozenset({"items", "keys", "values"})


def _in_scope(module: str) -> bool:
    if has_dotted_suffix(module, *SCOPED_MODULES):
        return True
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in SCOPED_PACKAGES
    )


def _is_serializer(func: ast.FunctionDef | ast.AsyncFunctionDef, imports: ImportMap) -> bool:
    if func.name in SERIALIZER_NAMES:
        return True
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node.func, imports)
        if target in SERIALIZING_CALLS:
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in SERIALIZING_METHODS
        ):
            return True
    return False


def _unsorted_view(node: ast.expr) -> str | None:
    """The view method name when ``node`` is a bare ``d.items()`` etc."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in VIEW_METHODS
        and not node.args
        and not node.keywords
    ):
        return node.func.attr
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register
class SortedIterationBeforeSerialization(LintRule):
    """Flag order-dependent dict/set iteration in serialising functions."""

    name = "sorted-iteration-before-serialization"
    summary = "bare dict/set iteration inside artifact-serialising functions"
    invariant = (
        "artifacts are byte-identical for identical runs (resume/shard "
        "byte-comparison tests); key order must be explicit, not "
        "insertion order"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not _in_scope(module.module):
            return
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_serializer(node, imports):
                continue
            yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleInfo, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        for node in ast.walk(func):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                view = _unsorted_view(it)
                if view is not None:
                    yield Finding(
                        rule=self.name,
                        path=module.rel,
                        line=it.lineno,
                        col=it.col_offset,
                        message=(
                            f"iterating .{view}() without sorted() in "
                            f"serialising function {func.name}(); key "
                            "order leaks into the artifact — wrap in "
                            "sorted(...)"
                        ),
                    )
                elif _is_set_expr(it):
                    yield Finding(
                        rule=self.name,
                        path=module.rel,
                        line=it.lineno,
                        col=it.col_offset,
                        message=(
                            "iterating a set without sorted() in "
                            f"serialising function {func.name}(); hash "
                            "order leaks into the artifact — wrap in "
                            "sorted(...)"
                        ),
                    )
