"""Asyncio-safety rules over every ``repro`` coroutine (service invariants).

The admission service's correctness argument is *serialisation by
construction*: one worker coroutine is the designated admission node
(paper Section 6), every other coroutine only submits and awaits.  That
argument holds only while two properties do:

* ``async-blocking`` — no blocking call (``time.sleep``, file or
  subprocess I/O, process-pool waits) inside any ``async def`` of a
  ``repro`` module.  One blocking call stalls the event loop and with it
  *every* pending client; the latency SLO the churn harness measures
  becomes fiction.
* ``await-shared-state`` — the race detector.  A coroutine that touches
  ``self.*`` or module-global state on *both sides* of an ``await`` has
  opened a lost-update window: another task interleaves at the await and
  the late write clobbers its effect.  Inside the single ``_worker``
  serialisation point this is legal (nothing else mutates service
  state); anywhere else it is a hazard under churn storms.  The check is
  path-sensitive (branches are analysed separately, so exclusive
  branches do not cross-contaminate) and loop bodies are analysed twice
  to catch loop-carried read-await-write cycles.

Both are file-scoped: each coroutine is checked where it is defined,
nested ones included, so a blocking call in a helper module fires
there rather than only when a service method is seen to call it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.lint.asthelpers import (
    ImportMap,
    has_dotted_suffix,
    resolve_call_target,
)
from repro.lint.context import ModuleInfo
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, register

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

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _coroutines(
    module: ModuleInfo,
) -> Iterator[tuple[str, ast.AsyncFunctionDef]]:
    """Every ``async def`` of a ``repro`` module, nested ones included,
    with its lexical qualified name (``<module>.<Class>.<func>``)."""
    if module.module != "repro" and not module.module.startswith("repro."):
        return

    def rec(
        node: ast.AST, prefix: str
    ) -> Iterator[tuple[str, ast.AsyncFunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPES):
                qname = f"{prefix}.{child.name}"
                if isinstance(child, ast.AsyncFunctionDef):
                    yield qname, child
                yield from rec(child, qname)
            else:
                yield from rec(child, prefix)

    yield from rec(module.tree, module.module)


def _own_calls(func: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Calls in a function's body, not in nested def/class bodies."""

    def rec(node: ast.AST) -> Iterator[ast.Call]:
        if isinstance(node, _SCOPES):
            return
        if isinstance(node, ast.Call):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from rec(child)

    for stmt in func.body:
        yield from rec(stmt)


# ---------------------------------------------------------------------
# async-blocking
# ---------------------------------------------------------------------


@register
class AsyncBlocking(LintRule):
    """Blocking calls inside ``repro`` coroutines."""

    name = "async-blocking"
    summary = (
        "blocking calls (sleep/file/subprocess/pool) in async defs "
        "of repro modules"
    )
    invariant = (
        "the admission service event loop never blocks: one stalled "
        "coroutine would freeze every pending client and the latency "
        "SLO (paper Section 6 serialisation-by-construction)"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        for _, func in _coroutines(module):
            for call in _own_calls(func):
                target = resolve_call_target(call.func, imports)
                if target is None:
                    continue
                leaf = target.rsplit(".", 1)[-1]
                if target in BLOCKING_CALLS or leaf in BLOCKING_METHOD_NAMES:
                    yield Finding(
                        rule=self.name,
                        path=module.rel,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"blocking call {target}() inside async "
                            f"def {func.name}; it stalls the event loop "
                            "for every pending client — use the asyncio "
                            "equivalent or move it off-loop"
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

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        global_names = _module_global_names(module)
        for qname, func in _coroutines(module):
            if has_dotted_suffix(qname, *SERIALISATION_POINTS):
                continue
            analysis = _SharedStateAnalysis(func, global_names)
            for location, line, col in analysis.run():
                yield Finding(
                    rule=self.name,
                    path=module.rel,
                    line=line,
                    col=col,
                    message=(
                        f"{location} is accessed before an await and "
                        f"written after it in coroutine {func.name}; "
                        "another task can interleave at the await, so "
                        "this write can lose its update — serialise "
                        "through the designated worker or restructure "
                        "claim-first"
                    ),
                )
