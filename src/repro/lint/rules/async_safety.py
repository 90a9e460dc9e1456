"""Asyncio-safety rules over the call graph (PR 9 service invariants).

The admission service's correctness argument is *serialisation by
construction*: one worker coroutine is the designated admission node
(paper Section 6), every other coroutine only submits and awaits.  That
argument holds only while three properties do:

* ``async-blocking`` — no blocking call (``time.sleep``, file or
  subprocess I/O, process-pool waits) inside any ``async def`` reachable
  from :class:`AdmissionService`/:class:`AdmissionClient`.  One blocking
  call stalls the event loop and with it *every* pending client; the
  latency SLO the churn harness measures becomes fiction.
* ``await-shared-state`` — the race detector.  A coroutine that touches
  ``self.*`` or module-global state on *both sides* of an ``await`` has
  opened a lost-update window: another task interleaves at the await and
  the late write clobbers its effect.  Inside the single ``_worker``
  serialisation point this is legal (nothing else mutates service
  state); anywhere else it is a hazard under churn storms.  The check is
  path-sensitive (branches are analysed separately, so exclusive
  branches do not cross-contaminate) and loop bodies are analysed twice
  to catch loop-carried read-await-write cycles.
* ``unawaited-coroutine`` — a bare call to a known-async function whose
  coroutine is neither awaited, gathered nor stored never runs; the
  operation silently does not happen.

All three resolve targets through the project call graph, so they see
through method calls on annotated attributes and re-exported names.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.lint.asthelpers import has_dotted_suffix
from repro.lint.context import ModuleInfo, Project
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, register

#: Class-qname suffixes whose methods root the service reachability set.
SERVICE_ROOTS = (
    "service.server.AdmissionService",
    "service.client.AdmissionClient",
)

#: Fully-qualified blocking calls banned on the event loop.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "subprocess.getoutput",
        "subprocess.getstatusoutput",
        "open",
        "io.open",
        "socket.create_connection",
        "concurrent.futures.ProcessPoolExecutor",
        "multiprocessing.Pool",
    }
)

#: Method names that are file I/O wherever they appear (pathlib-style).
BLOCKING_METHOD_NAMES = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Function-qname suffixes allowed to mutate shared state across awaits:
#: the designated admission node's worker loop *is* the serialisation
#: point, so its state transitions cannot interleave with themselves.
SERIALISATION_POINTS = ("service.server.AdmissionService._worker",)

#: External async callables a bare (un-awaited) call to is always a bug.
KNOWN_ASYNC_CALLS = frozenset(
    {
        "asyncio.sleep",
        "asyncio.gather",
        "asyncio.wait",
        "asyncio.wait_for",
        "asyncio.to_thread",
        "asyncio.shield",
        "asyncio.Queue.put",
        "asyncio.Queue.get",
        "asyncio.Queue.join",
    }
)


def _in_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _service_module(module: str) -> bool:
    return ".service" in f".{module}" and _in_repro(module)


# ---------------------------------------------------------------------
# async-blocking
# ---------------------------------------------------------------------


@register
class AsyncBlocking(LintRule):
    """Blocking calls inside service-reachable coroutines."""

    name = "async-blocking"
    summary = (
        "blocking calls (sleep/file/subprocess/pool) in async defs "
        "reachable from the admission service"
    )
    invariant = (
        "the admission service event loop never blocks: one stalled "
        "coroutine would freeze every pending client and the latency "
        "SLO (paper Section 6 serialisation-by-construction)"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.call_graph()
        roots: list[str] = []
        for suffix in SERVICE_ROOTS:
            roots.extend(graph.methods_of(suffix))
        reachable = graph.reachable(roots)
        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            if not info.is_async:
                continue
            if qname not in reachable and not _service_module(info.module):
                continue
            for site in graph.calls.get(qname, ()):
                if site.kind != "external":
                    continue
                leaf = site.target.rsplit(".", 1)[-1]
                if (
                    site.target in BLOCKING_CALLS
                    or leaf in BLOCKING_METHOD_NAMES
                ):
                    yield Finding(
                        rule=self.name,
                        path=info.rel,
                        line=site.line,
                        col=site.col,
                        message=(
                            f"blocking call {site.target}() inside async "
                            f"def {info.name} (reachable from the "
                            "admission service); it stalls the event "
                            "loop for every pending client — use the "
                            "asyncio equivalent or move it off-loop"
                        ),
                    )


# ---------------------------------------------------------------------
# await-shared-state
# ---------------------------------------------------------------------


@dataclass
class _FlowState:
    """Path state of the shared-state interpreter.

    ``accessed`` — shared locations touched so far on this path;
    ``dirty`` — locations that were touched *before* an await that has
    since happened (writing one of these is the lost-update hazard).
    """

    accessed: set[str] = field(default_factory=set)
    dirty: set[str] = field(default_factory=set)

    def copy(self) -> "_FlowState":
        return _FlowState(set(self.accessed), set(self.dirty))

    def join(self, *others: "_FlowState") -> "_FlowState":
        for other in others:
            self.accessed |= other.accessed
            self.dirty |= other.dirty
        return self


class _SharedStateAnalysis:
    """Path-sensitive scan of one coroutine for cross-await mutation."""

    def __init__(
        self,
        func: ast.AsyncFunctionDef,
        global_names: frozenset[str],
    ) -> None:
        self.func = func
        self.globals_declared: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
        self.globals_declared &= global_names
        #: (location, line, col) triples of hazardous writes.
        self.hazards: list[tuple[str, int, int]] = []
        self._seen: set[tuple[str, int]] = set()

    def run(self) -> list[tuple[str, int, int]]:
        state = _FlowState()
        self._body(self.func.body, state)
        return self.hazards

    # -- events --------------------------------------------------------

    def _location(self, node: ast.expr) -> str | None:
        """Shared-state location of an expression, if it is one."""
        if isinstance(node, ast.Attribute):
            parts: list[str] = []
            current: ast.expr = node
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                current = current.value
            if isinstance(current, ast.Name) and current.id == "self":
                return ".".join(["self"] + list(reversed(parts)))
            return None
        if (
            isinstance(node, ast.Name)
            and node.id in self.globals_declared
        ):
            return node.id
        return None

    def _access(self, location: str, state: _FlowState) -> None:
        state.accessed.add(location)

    def _write(
        self, node: ast.expr, location: str, state: _FlowState
    ) -> None:
        if location in state.dirty:
            key = (location, node.lineno)
            if key not in self._seen:
                self._seen.add(key)
                self.hazards.append(
                    (location, node.lineno, node.col_offset)
                )
        state.accessed.add(location)

    def _await_point(self, state: _FlowState) -> None:
        state.dirty |= state.accessed

    # -- expressions ---------------------------------------------------

    def _expr(self, node: ast.expr | None, state: _FlowState) -> None:
        if node is None:
            return
        if isinstance(node, ast.Await):
            self._expr(node.value, state)
            self._await_point(state)
            return
        if isinstance(node, ast.Attribute):
            location = self._location(node)
            if location is not None:
                self._access(location, state)
                return  # the inner chain is part of the location
        if isinstance(node, ast.Name):
            location = self._location(node)
            if location is not None:
                self._access(location, state)
            return
        if isinstance(node, ast.Lambda):
            return  # not evaluated here
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, state)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter, state)
                for cond in child.ifs:
                    self._expr(cond, state)

    def _target(self, node: ast.expr, state: _FlowState) -> None:
        """Process an assignment target (write events)."""
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._target(elt, state)
            return
        if isinstance(node, ast.Starred):
            self._target(node.value, state)
            return
        location = self._location(node)
        if location is not None:
            self._write(node, location, state)
            return
        if isinstance(node, ast.Subscript):
            # Key-indexed container fills are usually disjoint per task;
            # only the container *rebinding* counts, not item stores.
            self._expr(node.value, state)
            self._expr(node.slice, state)

    # -- statements ----------------------------------------------------

    def _body(self, body: Sequence[ast.stmt], state: _FlowState) -> None:
        for stmt in body:
            self._stmt(stmt, state)

    def _loop(
        self,
        stmt: ast.For | ast.AsyncFor | ast.While,
        state: _FlowState,
    ) -> None:
        if isinstance(stmt, ast.While):
            self._expr(stmt.test, state)
        else:
            self._expr(stmt.iter, state)
        loop_state = state.copy()
        # Two passes: the second models iteration N seeing awaits and
        # accesses of iteration N-1 (loop-carried lost updates).
        for _ in range(2):
            if isinstance(stmt, ast.AsyncFor):
                self._await_point(loop_state)
            if not isinstance(stmt, ast.While):
                self._target(stmt.target, loop_state)
            self._body(stmt.body, loop_state)
            if isinstance(stmt, ast.While):
                self._expr(stmt.test, loop_state)
        self._body(stmt.orelse, loop_state)
        state.join(loop_state)

    def _stmt(self, stmt: ast.stmt, state: _FlowState) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested defs are analysed as their own functions
        if isinstance(stmt, ast.Expr):
            self._expr(stmt.value, state)
        elif isinstance(stmt, ast.Assign):
            self._expr(stmt.value, state)
            for target in stmt.targets:
                self._target(target, state)
        elif isinstance(stmt, ast.AugAssign):
            location = self._location(stmt.target)
            if location is not None:
                self._access(location, state)  # read half
            self._expr(stmt.value, state)
            self._target(stmt.target, state)  # write half
        elif isinstance(stmt, ast.AnnAssign):
            self._expr(stmt.value, state)
            self._target(stmt.target, state)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test, state)
            then_state = state.copy()
            else_state = state.copy()
            self._body(stmt.body, then_state)
            self._body(stmt.orelse, else_state)
            state.accessed.clear()
            state.dirty.clear()
            state.join(then_state, else_state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            self._loop(stmt, state)
        elif isinstance(stmt, ast.Try):
            body_state = state.copy()
            self._body(stmt.body, body_state)
            # A handler can be entered from any point of the body.
            handler_entry = state.copy().join(body_state)
            handler_states = []
            for handler in stmt.handlers:
                handler_state = handler_entry.copy()
                self._body(handler.body, handler_state)
                handler_states.append(handler_state)
            self._body(stmt.orelse, body_state)
            state.accessed.clear()
            state.dirty.clear()
            state.join(body_state, *handler_states)
            self._body(stmt.finalbody, state)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._expr(item.context_expr, state)
                if item.optional_vars is not None:
                    self._target(item.optional_vars, state)
            self._body(stmt.body, state)
        elif isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                self._expr(item.context_expr, state)
                if item.optional_vars is not None:
                    self._target(item.optional_vars, state)
            self._await_point(state)  # __aenter__
            self._body(stmt.body, state)
            self._await_point(state)  # __aexit__
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            if isinstance(stmt, ast.Return):
                self._expr(stmt.value, state)
            else:
                self._expr(stmt.exc, state)
                self._expr(stmt.cause, state)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._target(target, state)
        elif isinstance(stmt, ast.Match):
            self._expr(stmt.subject, state)
            case_states = []
            for case in stmt.cases:
                case_state = state.copy()
                self._body(case.body, case_state)
                case_states.append(case_state)
            state.join(*case_states)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, state)


def _module_global_names(module: ModuleInfo) -> frozenset[str]:
    names: set[str] = set()
    for stmt in module.tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


@register
class AwaitSharedState(LintRule):
    """Cross-await shared-state mutation outside the worker."""

    name = "await-shared-state"
    summary = (
        "self.*/global state touched on both sides of an await outside "
        "the designated _worker serialisation point"
    )
    invariant = (
        "service state mutates only inside the single designated-node "
        "worker coroutine; any other read-await-write window is a "
        "lost-update race under churn storms (paper Section 6)"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.call_graph()
        global_names: dict[str, frozenset[str]] = {}
        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            if not info.is_async:
                continue
            if not _in_repro(info.module):
                continue
            if has_dotted_suffix(qname, *SERIALISATION_POINTS):
                continue
            assert isinstance(info.node, ast.AsyncFunctionDef)
            if info.module not in global_names:
                global_names[info.module] = _module_global_names(
                    info.source
                )
            analysis = _SharedStateAnalysis(
                info.node, global_names[info.module]
            )
            for location, line, col in analysis.run():
                yield Finding(
                    rule=self.name,
                    path=info.rel,
                    line=line,
                    col=col,
                    message=(
                        f"{location} is accessed before an await and "
                        f"written after it in coroutine {info.name}; "
                        "another task can interleave at the await, so "
                        "this write can lose its update — serialise "
                        "through the designated worker or restructure "
                        "claim-first"
                    ),
                )


# ---------------------------------------------------------------------
# unawaited-coroutine
# ---------------------------------------------------------------------


@register
class UnawaitedCoroutine(LintRule):
    """Bare calls to async functions that drop the coroutine."""

    name = "unawaited-coroutine"
    summary = (
        "calls to known-async functions whose coroutine is neither "
        "awaited, gathered nor stored"
    )
    invariant = (
        "a dropped coroutine never runs: the request it was meant to "
        "submit silently does not happen (and asyncio only warns at GC "
        "time, far from the bug)"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.call_graph()
        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            if not _in_repro(info.module):
                continue
            sites = {
                (site.line, site.col): site
                for site in graph.calls.get(qname, ())
            }
            for call in _bare_calls(info.node.body):
                # A ``f(...).g()`` statement shares (line, col) with its
                # inner call; only pure-dotted calls match graph sites.
                func: ast.expr = call.func
                while isinstance(func, ast.Attribute):
                    func = func.value
                if not isinstance(func, ast.Name):
                    continue
                site = sites.get((call.lineno, call.col_offset))
                if site is None:
                    continue
                is_async_target = (
                    site.kind == "project"
                    and site.target in graph.functions
                    and graph.functions[site.target].is_async
                ) or (
                    site.kind == "external"
                    and site.target in KNOWN_ASYNC_CALLS
                )
                if is_async_target:
                    yield Finding(
                        rule=self.name,
                        path=info.rel,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"call to async {site.target} is neither "
                            "awaited, gathered nor stored; the "
                            "coroutine is dropped and the operation "
                            "never runs (add await, or pass it to "
                            "asyncio.gather/create_task)"
                        ),
                    )


def _bare_calls(body: Sequence[ast.stmt]) -> Iterable[ast.Call]:
    """Expression-statement calls, excluding nested def/class bodies."""

    def rec(node: ast.AST) -> Iterable[ast.Call]:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            yield node.value
        for child in ast.iter_child_nodes(node):
            yield from rec(child)

    for stmt in body:
        yield from rec(stmt)
