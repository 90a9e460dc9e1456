"""Project-wide call graph: the inter-procedural layer under ``repro lint``.

The file-scoped rules (PR 5) see one module at a time; the whole-program
rules (seed provenance, asyncio safety) need to know *who calls whom*
across the tree.  This module builds a conservative static call graph
from the already-parsed :class:`~repro.lint.context.Project`:

* **Pass 1** collects every function/method definition
  (:class:`FunctionInfo`) and every class (:class:`ClassInfo`, with
  resolved base names and best-effort attribute types inferred from
  ``self.x: T`` annotations, ``self.x = param`` of an annotated
  parameter, and ``self.x = Class(...)`` constructor assignments), plus
  an export map so ``from repro.service import AdmissionClient`` chases
  through the package ``__init__`` to the defining module.
* **Pass 2** resolves call sites (:class:`CallSite`) through the
  per-module :class:`~repro.lint.asthelpers.ImportMap`, the lexical
  scope chain, ``self``/``cls`` method lookup (walking project base
  classes), and annotated parameter/local/attribute types.  Unresolvable
  (dynamic) calls are dropped rather than guessed: downstream rules stay
  false-positive-free at the cost of under-approximating edges.

The graph lives only in memory, rebuilt on every invocation (0.45 s on
the 140-file tree), so a :class:`FunctionInfo` carries its def node and
module: rules that need the AST of a function read it off the graph.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lint.asthelpers import ImportMap, dotted_name, has_dotted_suffix

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.lint.context import ModuleInfo, Project

#: Pseudo-function name for a module's top-level statements.
MODULE_BODY = "<module>"


@dataclass(frozen=True)
class FunctionInfo:
    """One function/method definition."""

    qname: str
    name: str
    #: Qualified name of the enclosing class for methods, else ``None``.
    cls: str | None
    lineno: int
    col: int
    is_async: bool
    #: Parameter names, ``self``/``cls`` stripped for methods.
    params: tuple[str, ...]
    #: Resolved dotted annotation types, aligned with :attr:`params`.
    annotations: tuple[str | None, ...]
    returns: str | None
    #: The def node (the ``ast.Module`` for a module body) and its module.
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module = field(
        repr=False, compare=False
    )
    source: "ModuleInfo" = field(repr=False, compare=False)

    @property
    def module(self) -> str:
        """Dotted name of the defining module."""
        return self.source.module

    @property
    def rel(self) -> str:
        """Path of the defining file, relative to the linted root."""
        return self.source.rel


@dataclass(frozen=True, eq=False)
class ClassInfo:
    """One class definition with resolved bases and attribute types."""

    qname: str
    module: str
    name: str
    lineno: int
    #: Base classes as resolved dotted names.
    bases: tuple[str, ...]
    #: Method name -> method qname (own methods only; lookup walks bases).
    methods: dict[str, str] = field(default_factory=dict)
    #: Attribute name -> resolved dotted type (best effort).
    attrs: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call inside a function body.

    ``kind`` is ``"project"`` (a function/method in the linted tree),
    ``"constructor"`` (a project class being instantiated) or
    ``"external"`` (fully-qualified name outside the tree, e.g.
    ``time.sleep``); ``line``/``col`` locate the ``ast.Call`` node so
    rules can match sites back onto the AST.
    """

    target: str
    kind: str
    line: int
    col: int


def iter_definitions(
    module: "ModuleInfo",
) -> Iterator[tuple[str, str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(qname, class_qname, node)`` for every def in a module.

    Qualified names concatenate the lexical nesting path onto the dotted
    module name (``repro.sim.batch.run_batch``,
    ``repro.service.server.AdmissionService._worker``); the same naming
    is used by the call graph, so the two always line up.
    """

    def rec(
        body: Sequence[ast.stmt], prefix: str, cls: str | None
    ) -> Iterator[tuple[str, str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{node.name}"
                yield qname, cls, node
                yield from rec(node.body, qname, None)
            elif isinstance(node, ast.ClassDef):
                qname = f"{prefix}.{node.name}"
                yield from rec(node.body, qname, qname)

    yield from rec(module.tree.body, module.module, None)


def _iter_classes(
    module: "ModuleInfo",
) -> Iterator[tuple[str, ast.ClassDef]]:
    def rec(
        body: Sequence[ast.stmt], prefix: str
    ) -> Iterator[tuple[str, ast.ClassDef]]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                qname = f"{prefix}.{node.name}"
                yield qname, node
                yield from rec(node.body, qname)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from rec(node.body, f"{prefix}.{node.name}")

    yield from rec(module.tree.body, module.module)


def resolve_annotation(
    node: ast.expr | None, imports: ImportMap
) -> str | None:
    """Resolved dotted type of an annotation expression, best effort.

    ``X | None`` and ``Optional[X]`` unwrap to ``X``; generics keep only
    the base (``asyncio.Queue[Item]`` -> ``asyncio.Queue``); string
    annotations are re-parsed.  Returns ``None`` for anything dynamic.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, str):
            return None
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = resolve_annotation(node.value, imports)
        if base in ("typing.Optional", "Optional"):
            return resolve_annotation(node.slice, imports)
        if base in ("typing.Union", "Union"):
            elts = (
                node.slice.elts
                if isinstance(node.slice, ast.Tuple)
                else [node.slice]
            )
            for elt in elts:
                resolved = resolve_annotation(elt, imports)
                if resolved is not None:
                    return resolved
            return None
        return base
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = resolve_annotation(node.left, imports)
        if left is not None:
            return left
        return resolve_annotation(node.right, imports)
    dotted = dotted_name(node)
    if dotted is None or dotted == "None":
        return None
    return imports.resolve(dotted)


def _is_staticmethod(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    return any(
        dotted_name(dec) == "staticmethod" for dec in node.decorator_list
    )


def _signature(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    imports: ImportMap,
    is_method: bool,
) -> tuple[tuple[str, ...], tuple[str | None, ...]]:
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    if is_method and positional:
        positional = positional[1:]  # drop self/cls
    params: list[str] = []
    annotations: list[str | None] = []
    for arg in positional + list(args.kwonlyargs):
        params.append(arg.arg)
        annotations.append(resolve_annotation(arg.annotation, imports))
    return tuple(params), tuple(annotations)


@dataclass
class CallGraph:
    """The whole-program call graph of one lint invocation."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: ``module.bound_name`` -> imported target (re-export chasing).
    exports: dict[str, str] = field(default_factory=dict)
    #: Function qname -> its resolved call sites, in source order.
    calls: dict[str, tuple[CallSite, ...]] = field(default_factory=dict)

    # -- queries -------------------------------------------------------

    def chase(self, dotted: str) -> str:
        """Follow import re-exports to the defining module's name."""
        for _ in range(16):
            replaced = self._chase_once(dotted)
            if replaced is None:
                return dotted
            dotted = replaced
        return dotted

    def _chase_once(self, dotted: str) -> str | None:
        if dotted in self.exports:
            return self.exports[dotted]
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.exports:
                return self.exports[prefix] + "." + ".".join(parts[i:])
        return None

    def lookup_method(self, cls_qname: str, name: str) -> str | None:
        """Find ``name`` on a project class or its project bases."""
        seen: set[str] = set()
        queue = [cls_qname]
        while queue:
            qname = queue.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            info = self.classes.get(qname)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            queue.extend(self.chase(base) for base in info.bases)
        return None

    def attr_type(self, cls_qname: str, name: str) -> str | None:
        """Best-effort type of ``self.<name>`` on a project class."""
        seen: set[str] = set()
        queue = [cls_qname]
        while queue:
            qname = queue.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            info = self.classes.get(qname)
            if info is None:
                continue
            if name in info.attrs:
                return info.attrs[name]
            queue.extend(self.chase(base) for base in info.bases)
        return None

    def project_callees(self, qname: str) -> tuple[str, ...]:
        """Project functions called from ``qname`` (constructors resolve
        to the class ``__init__`` when it has one)."""
        out: list[str] = []
        for site in self.calls.get(qname, ()):
            if site.kind == "project":
                out.append(site.target)
            elif site.kind == "constructor":
                init = self.lookup_method(site.target, "__init__")
                if init is not None:
                    out.append(init)
        return tuple(out)

    def reachable(self, roots: Iterable[str]) -> frozenset[str]:
        """Functions transitively callable from ``roots`` (inclusive)."""
        from repro.lint.dataflow import propagate

        edges = {q: self.project_callees(q) for q in self.functions}
        return propagate(edges, [r for r in roots if r in self.functions])

    def methods_of(self, class_suffix: str) -> tuple[str, ...]:
        """Method qnames of every class matching a dotted-name suffix."""
        out: list[str] = []
        for qname in sorted(self.classes):
            if has_dotted_suffix(qname, class_suffix):
                out.extend(sorted(self.classes[qname].methods.values()))
        return tuple(out)

    # -- presentation --------------------------------------------------

    def render(self) -> str:
        """Deterministic human-readable dump (``repro lint --graph``)."""
        n_edges = sum(
            1
            for sites in self.calls.values()
            for s in sites
            if s.kind in ("project", "constructor")
        )
        n_external = sum(
            1
            for sites in self.calls.values()
            for s in sites
            if s.kind == "external"
        )
        lines = [
            f"# call graph: {len(self.functions)} functions, "
            f"{len(self.classes)} classes, {n_edges} project edges, "
            f"{n_external} external targets"
        ]
        for qname in sorted(self.functions):
            info = self.functions[qname]
            prefix = "async " if info.is_async else ""
            lines.append(f"{prefix}{qname}  [{info.rel}:{info.lineno}]")
            for site in self.calls.get(qname, ()):
                arrow = "~>" if site.kind == "external" else "->"
                lines.append(f"  {arrow} {site.target}  :{site.line}")
        return "\n".join(lines)


# -- builder -----------------------------------------------------------


def build_call_graph(project: "Project") -> CallGraph:
    """Two-pass construction over every parsed module of the project."""
    graph = CallGraph()
    imports_by_module: dict[str, ImportMap] = {}

    # Pass 1: definitions, classes, exports.
    for module in project.modules:
        imports = ImportMap(module.tree)
        imports_by_module[module.module] = imports
        for bound, target in imports.aliases.items():
            if target != bound:
                graph.exports[f"{module.module}.{bound}"] = target
        for qname, cls, node in iter_definitions(module):
            is_method = cls is not None and not _is_staticmethod(node)
            params, annotations = _signature(node, imports, is_method)
            graph.functions[qname] = FunctionInfo(
                qname=qname,
                name=node.name,
                cls=cls,
                lineno=node.lineno,
                col=node.col_offset,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                params=params,
                annotations=annotations,
                returns=resolve_annotation(node.returns, imports),
                node=node,
                source=module,
            )
        for qname, node in _iter_classes(module):
            bases = tuple(
                resolved
                for base in node.bases
                if (
                    resolved := _resolve_dotted(base, imports)
                ) is not None
            )
            methods = {
                stmt.name: f"{qname}.{stmt.name}"
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            graph.classes[qname] = ClassInfo(
                qname=qname,
                module=module.module,
                name=node.name,
                lineno=node.lineno,
                bases=bases,
                methods=methods,
                attrs=_class_attrs(node, imports),
            )

    # Pass 2: call-site resolution with the full symbol tables at hand.
    for module in project.modules:
        _Resolver(graph, module, imports_by_module[module.module]).run()
    return graph


def _resolve_dotted(node: ast.expr, imports: ImportMap) -> str | None:
    dotted = dotted_name(node)
    if dotted is None:
        return None
    return imports.resolve(dotted)


def _class_attrs(node: ast.ClassDef, imports: ImportMap) -> dict[str, str]:
    """Attribute types from class-body annotations and ``__init__``-style
    ``self.x = ...`` assignments inside methods."""
    attrs: dict[str, str] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            resolved = resolve_annotation(stmt.annotation, imports)
            if resolved is not None:
                attrs[stmt.target.id] = resolved
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = stmt.args
        param_types = {
            arg.arg: resolve_annotation(arg.annotation, imports)
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        }
        for inner in ast.walk(stmt):
            target: ast.expr | None = None
            if isinstance(inner, ast.AnnAssign):
                target = inner.target
            elif isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                target = inner.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if isinstance(inner, ast.AnnAssign):
                resolved = resolve_annotation(inner.annotation, imports)
                if resolved is not None:
                    attrs[target.attr] = resolved
                continue
            value = inner.value
            if isinstance(value, ast.Name):
                from_param = param_types.get(value.id)
                if from_param is not None:
                    attrs.setdefault(target.attr, from_param)
            elif isinstance(value, ast.Call):
                ctor = _resolve_dotted(value.func, imports)
                if ctor is not None and "." in ctor:
                    attrs.setdefault(target.attr, ctor)
    return attrs


#: Scope-chain entry kinds.
_FUNC, _CLASS = "func", "class"


class _Resolver:
    """Resolves one module's call sites against the global tables."""

    def __init__(
        self, graph: CallGraph, module: "ModuleInfo", imports: ImportMap
    ) -> None:
        self.graph = graph
        self.module = module
        self.imports = imports

    def run(self) -> None:
        module_qname = f"{self.module.module}.{MODULE_BODY}"
        self.graph.functions[module_qname] = FunctionInfo(
            qname=module_qname,
            name=MODULE_BODY,
            cls=None,
            lineno=1,
            col=0,
            is_async=False,
            params=(),
            annotations=(),
            returns=None,
            node=self.module.tree,
            source=self.module,
        )
        self._walk_body(
            module_qname,
            self.module.tree.body,
            prefix=self.module.module,
            scopes=(),
            self_type=None,
            var_types={},
        )

    # -- scope recursion ----------------------------------------------

    def _local_scope(
        self, body: Sequence[ast.stmt], prefix: str
    ) -> dict[str, tuple[str, str]]:
        scope: dict[str, tuple[str, str]] = {}
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope[node.name] = (_FUNC, f"{prefix}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                scope[node.name] = (_CLASS, f"{prefix}.{node.name}")
        return scope

    def _walk_body(
        self,
        owner: str,
        body: Sequence[ast.stmt],
        prefix: str,
        scopes: tuple[dict[str, tuple[str, str]], ...],
        self_type: str | None,
        var_types: dict[str, str],
    ) -> None:
        scopes = scopes + (self._local_scope(body, prefix),)
        sites: list[CallSite] = []
        for call in self._calls_in(body):
            site = self._resolve_call(call, scopes, self_type, var_types)
            if site is not None:
                sites.append(site)
        existing = self.graph.calls.get(owner, ())
        self.graph.calls[owner] = existing + tuple(sites)
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{node.name}"
                info = self.graph.functions[qname]
                child_vars = {
                    p: t
                    for p, t in zip(info.params, info.annotations)
                    if t is not None
                }
                child_vars.update(
                    self._assigned_types(node.body, scopes)
                )
                self._walk_body(
                    qname,
                    node.body,
                    prefix=qname,
                    scopes=scopes,
                    self_type=info.cls,
                    var_types=child_vars,
                )
            elif isinstance(node, ast.ClassDef):
                qname = f"{prefix}.{node.name}"
                # Class bodies are not a lexical scope for methods:
                # recurse with the *outer* chain and self bound to the
                # class.  Calls in the class body itself are attributed
                # to the enclosing owner (decorators, default exprs).
                for stmt in node.body:
                    if isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        method_qname = f"{qname}.{stmt.name}"
                        info = self.graph.functions[method_qname]
                        method_vars = {
                            p: t
                            for p, t in zip(info.params, info.annotations)
                            if t is not None
                        }
                        method_vars.update(
                            self._assigned_types(stmt.body, scopes)
                        )
                        self._walk_body(
                            method_qname,
                            stmt.body,
                            prefix=method_qname,
                            scopes=scopes,
                            self_type=info.cls
                            if not _is_staticmethod(stmt)
                            else None,
                            var_types=method_vars,
                        )
                    elif isinstance(stmt, ast.ClassDef):
                        self._walk_body(
                            owner,
                            [stmt],
                            prefix=qname,
                            scopes=scopes[:-1],
                            self_type=None,
                            var_types={},
                        )

    def _calls_in(self, body: Sequence[ast.stmt]) -> Iterator[ast.Call]:
        """Calls in these statements, excluding nested def/class bodies."""

        def rec(node: ast.AST) -> Iterator[ast.Call]:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                return
            if isinstance(node, ast.Call):
                yield node
            for child in ast.iter_child_nodes(node):
                yield from rec(child)

        for stmt in body:
            yield from rec(stmt)

    def _assigned_types(
        self,
        body: Sequence[ast.stmt],
        scopes: tuple[dict[str, tuple[str, str]], ...],
    ) -> dict[str, str]:
        """Types of simple local assignments: annotations and direct
        ``x = Class(...)`` constructor calls."""
        out: dict[str, str] = {}

        def rec(node: ast.AST) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                return
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                resolved = resolve_annotation(node.annotation, self.imports)
                if resolved is not None:
                    out[node.target.id] = resolved
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                target = self._callable_target(
                    node.value.func, scopes, None, {}
                )
                if target is not None and target[0] in (_CLASS, "external"):
                    out[node.targets[0].id] = target[1]
            for child in ast.iter_child_nodes(node):
                rec(child)

        for stmt in body:
            rec(stmt)
        return out

    # -- call resolution ----------------------------------------------

    def _resolve_call(
        self,
        call: ast.Call,
        scopes: tuple[dict[str, tuple[str, str]], ...],
        self_type: str | None,
        var_types: dict[str, str],
    ) -> CallSite | None:
        target = self._callable_target(
            call.func, scopes, self_type, var_types
        )
        if target is None:
            return None
        kind, qname = target
        if kind == _FUNC:
            kind = "project"
        elif kind == _CLASS:
            kind = "constructor"
        return CallSite(
            target=qname, kind=kind, line=call.lineno, col=call.col_offset
        )

    def _callable_target(
        self,
        func: ast.expr,
        scopes: tuple[dict[str, tuple[str, str]], ...],
        self_type: str | None,
        var_types: dict[str, str],
    ) -> tuple[str, str] | None:
        dotted = dotted_name(func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        head = parts[0]

        if head in ("self", "cls") and self_type is not None:
            return self._resolve_on_type(self_type, parts[1:])

        if head in var_types and len(parts) > 1:
            owner = self.graph.chase(var_types[head])
            return self._resolve_on_type(owner, parts[1:])

        if len(parts) == 1:
            for scope in reversed(scopes):
                if head in scope:
                    return scope[head]
            return self._resolve_global(head)

        # Dotted chain through a scope-visible class (Cls.method(...)).
        for scope in reversed(scopes):
            if head in scope and scope[head][0] == _CLASS:
                return self._resolve_on_type(scope[head][1], parts[1:])
        return self._resolve_global(dotted)

    def _resolve_on_type(
        self, owner: str, rest: list[str]
    ) -> tuple[str, str] | None:
        """Resolve ``<owner-instance>.rest...(...)``."""
        if not rest:
            # Calling the object itself: a class instantiation when the
            # owner names a project class, otherwise dynamic.
            if owner in self.graph.classes:
                return (_CLASS, owner)
            return None
        if len(rest) == 1:
            if owner in self.graph.classes:
                method = self.graph.lookup_method(owner, rest[0])
                if method is not None:
                    return (_FUNC, method)
                return None
            return ("external", f"{owner}.{rest[0]}")
        # <owner>.attr.more...: step through one typed attribute.
        attr_type = (
            self.graph.attr_type(owner, rest[0])
            if owner in self.graph.classes
            else None
        )
        if attr_type is not None:
            return self._resolve_on_type(
                self.graph.chase(attr_type), rest[1:]
            )
        if owner in self.graph.classes:
            return None
        return ("external", f"{owner}.{'.'.join(rest)}")

    def _resolve_global(self, dotted: str) -> tuple[str, str] | None:
        resolved = self.graph.chase(self.imports.resolve(dotted))
        if resolved in self.graph.functions:
            return (_FUNC, resolved)
        if resolved in self.graph.classes:
            return (_CLASS, resolved)
        # Same-module attribute access on a project class
        # (module.Cls.method spelled via import).
        head, sep, tail = resolved.rpartition(".")
        if sep and head in self.graph.classes:
            method = self.graph.lookup_method(head, tail)
            if method is not None:
                return (_FUNC, method)
        return ("external", resolved)
