"""Two source checks over ``src/repro``: plain AST walks, no framework.

* **Frozen dataclasses stay frozen.**  ``RunOptions``, ``ScenarioConfig``
  and the campaign specs are the identities that cache keys and
  fingerprints hash.  ``object.__setattr__`` may normalise one only in
  ``__post_init__`` (or pickle's ``__setstate__``), before anyone has
  seen it; anywhere else use ``dataclasses.replace()``.
* **No lost-update window across an ``await``.**  A coroutine that
  touches ``self.*`` or declared-global state before an ``await`` and
  writes it after lets another task interleave at the await and lose an
  update.  The admission service's ``_worker`` is the one serialisation
  point (paper Section 6), so it alone is exempt.  The scan is
  path-sensitive: exclusive branches do not mix, and loop bodies run
  twice to catch windows carried from one iteration to the next.
"""

import ast
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Methods in which ``object.__setattr__`` may touch a frozen value.
SETATTR_METHODS = frozenset({"__post_init__", "__setstate__"})

#: The designated admission node's worker, the one coroutine allowed to
#: mutate shared state across awaits.
SERIALISATION_POINT = "repro.service.server.AdmissionService._worker"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def frozen_mutations(node, allowed=False):
    """Lines of ``object.__setattr__`` calls outside the allowed methods."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and not allowed:
            if ast.unparse(child.func) == "object.__setattr__":
                yield child.lineno
        inside = allowed
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = child.name in SETATTR_METHODS
        yield from frozen_mutations(child, inside)


def _targets(stmt):
    return stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]


def coroutines(node, prefix):
    """``(qualified name, node)`` of every ``async def``, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            qname = f"{prefix}.{child.name}"
            if isinstance(child, ast.AsyncFunctionDef):
                yield qname, child
            yield from coroutines(child, qname)
        else:
            yield from coroutines(child, prefix)


class AwaitWindows:
    """Scan of one coroutine.  A path state is ``(accessed, dirty)``: the
    shared locations touched so far, and those touched before an await
    that has since happened.  Writing a dirty location is a lost update."""

    def __init__(self, shared_globals):
        self.shared_globals = shared_globals
        self.found = set()

    def location(self, node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            if parts and node.id == "self":
                return ".".join(["self", *reversed(parts)])
            if not parts and node.id in self.shared_globals:
                return node.id
        return None

    def expr(self, node, state):
        if node is None or isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Await):
            self.expr(node.value, state)
            state[1].update(state[0])
        elif (location := self.location(node)) is not None:
            state[0].add(location)
        else:
            for child in ast.iter_child_nodes(node):
                self.expr(child, state)

    def write(self, target, state):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.write(element, state)
        elif isinstance(target, ast.Starred):
            self.write(target.value, state)
        elif (location := self.location(target)) is not None:
            if location in state[1]:
                self.found.add((location, target.lineno))
            state[0].add(location)
        elif isinstance(target, ast.Subscript):
            # Item stores are usually disjoint per task; only rebinding
            # the container counts.
            self.expr(target.value, state)
            self.expr(target.slice, state)

    def body(self, stmts, state):
        for stmt in stmts:
            self.stmt(stmt, state)

    def branch(self, stmts, state):
        """The state after ``stmts`` on a copy of ``state``."""
        copy = (set(state[0]), set(state[1]))
        self.body(stmts, copy)
        return copy

    def join(self, state, branches):
        for accessed, dirty in branches:
            state[0].update(accessed)
            state[1].update(dirty)

    def stmt(self, stmt, state):
        if isinstance(stmt, _SCOPES):
            return  # a nested def is scanned as its own coroutine
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self.expr(stmt.value, state)
            for target in _targets(stmt):
                self.write(target, state)
        elif isinstance(stmt, ast.AugAssign):
            self.expr(stmt.target, state)
            self.expr(stmt.value, state)
            self.write(stmt.target, state)
        elif isinstance(stmt, ast.If):
            self.expr(stmt.test, state)
            branches = (stmt.body, stmt.orelse)
            self.join(state, [self.branch(b, state) for b in branches])
        elif isinstance(stmt, ast.Match):
            self.expr(stmt.subject, state)
            self.join(state, [self.branch(c.body, state) for c in stmt.cases])
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            loop = isinstance(stmt, ast.While)
            self.expr(stmt.test if loop else stmt.iter, state)
            for _ in range(2):
                if isinstance(stmt, ast.AsyncFor):
                    state[1].update(state[0])
                if not loop:
                    self.write(stmt.target, state)
                self.body(stmt.body, state)
                if loop:
                    self.expr(stmt.test, state)
            self.body(stmt.orelse, state)
        elif isinstance(stmt, ast.Try):
            self.body(stmt.body, state)
            # A handler can be entered from any point of the body.
            handlers = [self.branch(h.body, state) for h in stmt.handlers]
            self.body(stmt.orelse, state)
            self.join(state, handlers)
            self.body(stmt.finalbody, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.expr(item.context_expr, state)
                if item.optional_vars is not None:
                    self.write(item.optional_vars, state)
            if isinstance(stmt, ast.AsyncWith):  # __aenter__
                state[1].update(state[0])
            self.body(stmt.body, state)
            if isinstance(stmt, ast.AsyncWith):  # __aexit__
                state[1].update(state[0])
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.write(target, state)
        else:
            for child in ast.iter_child_nodes(stmt):
                self.expr(child, state)


def await_windows(tree, module):
    """``qualname: location @ line`` of every window outside the worker."""
    top = {
        target.id
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in _targets(stmt)
        if isinstance(target, ast.Name)
    }
    found = []
    for qname, func in coroutines(tree, module):
        if qname == SERIALISATION_POINT:
            continue
        declared = {
            name
            for node in ast.walk(func)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        scan = AwaitWindows(declared & top)
        scan.body(func.body, (set(), set()))
        found += [f"{qname}: {loc} @ {line}" for loc, line in sorted(scan.found)]
    return found


def windows(source, module="repro.service.server"):
    return await_windows(ast.parse(textwrap.dedent(source)), module)


class TestFrozenDataclassMutation:
    def test_fires_outside_post_init(self):
        tree = ast.parse(
            "class Spec:\n"
            "    def bump(self):\n"
            "        object.__setattr__(self, 'n', 1)\n"
            "def thaw(spec):\n"
            "    object.__setattr__(spec, 'n', 2)\n"
        )
        assert list(frozen_mutations(tree)) == [3, 5]

    def test_quiet_inside_post_init_and_setstate(self):
        tree = ast.parse(
            "class Spec:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'n', int(self.n))\n"
            "    def __setstate__(self, state):\n"
            "        object.__setattr__(self, 'n', state)\n"
        )
        assert list(frozen_mutations(tree)) == []


WORKER = """
    import asyncio

    class AdmissionService:
        async def _worker(self):
            while True:
                self.served += 1
                await asyncio.sleep(0)
                self.served += 1

        async def toggle(self):
            self.mode = "busy"  # claim-first: the write precedes the await
            await asyncio.sleep(0)

        async def one_op(self, close):
            if close:  # exclusive branches do not mix
                self.errors += 1
            else:
                await asyncio.sleep(0)
"""


class TestAwaitSharedState:
    def test_straight_line_window(self):
        source = """
            async def bump(self):
                self.count += 1
                await asyncio.sleep(0)
                self.count += 1
        """
        assert windows(source, "repro.service.racer") == [
            "repro.service.racer.bump: self.count @ 5"
        ]

    def test_loop_carried_window(self):
        source = """
            TOTAL = 0
            async def run(self, cycles):
                global TOTAL
                for _ in range(cycles):
                    self._cycle += 1
                    TOTAL = TOTAL + 1
                    await asyncio.sleep(0)
        """
        assert windows(source) == [
            "repro.service.server.run: TOTAL @ 7",
            "repro.service.server.run: self._cycle @ 6",
        ]

    def test_mutation_outside_worker_regression(self):
        """The exemption is the worker's qualified name, not its shape."""
        assert windows(WORKER, "repro.service.racer") == [
            f"repro.service.racer.AdmissionService._worker: self.served @ {n}"
            for n in (7, 9)
        ]

    def test_worker_branches_and_claim_first_are_quiet(self):
        assert windows(WORKER) == []


class TestRealTree:
    def test_src_repro_is_clean(self):
        found = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            found += [
                f"{path}:{n}: object.__setattr__" for n in frozen_mutations(tree)
            ]
            found += await_windows(tree, module.removesuffix(".__init__"))
        assert found == []
