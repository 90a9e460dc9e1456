"""Rule ``seed-provenance``: every RNG must trace back to master entropy.

The paper's replication study stands on one discipline: *all* randomness
derives from a single ``numpy.random.SeedSequence`` rooted in
``RunOptions``/campaign entropy, forked with ``spawn()``.  This is the
one RNG rule; it audits the constructors of :data:`RNG_CONSTRUCTORS` at
two scopes.

**Every linted module** (``examples/`` and ``benchmarks/`` included):

* an **entropy-less constructor** — ``default_rng()`` /
  ``SeedSequence()`` / ``RandomState()`` / ``random.Random()`` with no
  argument, ``None`` or ``seed=None`` pulls fresh OS entropy, so two
  invocations of the same run differ.  Only ``repro.cli`` may mint
  entropy (from ``--seed``); everything else takes an
  ``rng: np.random.Generator`` and passes it down.
* a **generator in a parameter default** —
  ``def f(rng=np.random.default_rng(0))`` evaluates the default once at
  def time, so every call without an explicit generator *shares one
  stream*: run isolation is gone even though the seed looks fixed.
  Default to ``None`` and construct per run instead.

**The deterministic packages** (``repro.sim``/``core``/``campaign``/
``traffic``/``service``), by walking the call graph, so the
*inter-procedural* ways of breaking provenance are caught too:

1. **Unseeded constructors** whose entropy only *resolves* to nothing
   (``seed = None; default_rng(seed)``), even hidden in a helper.
2. **Literal forks mid-path** — ``default_rng(1234)`` directly, or a
   literal passed into a callee parameter that (transitively) becomes
   RNG entropy: ``make_rng(99)`` where ``make_rng`` forwards its
   argument into ``default_rng``.  A literal seed mid-path silently
   decouples that stream from the master seed, so two runs with
   different master seeds share draws.  (Scripts outside the five
   packages *are* the head of their path: ``default_rng(7)`` in an
   example is legal.)
3. **Laundering through untyped parameters** — a function that *draws*
   from a parameter (``rng.integers(...)``) without annotating it as a
   generator type.  The annotation is what lets both mypy and this rule
   keep tracking provenance across the call; an untyped parameter is
   where audits go to die.

Classification is deliberately conservative: attribute loads, module
constants and anything else not statically literal classify as
*unknown* and stay quiet — the rule under-approximates rather than
producing false positives.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.lint.asthelpers import (
    ImportMap,
    has_dotted_suffix,
    resolve_call_target,
)
from repro.lint.callgraph import MODULE_BODY, CallGraph, CallSite, FunctionInfo
from repro.lint.context import ModuleInfo, Project
from repro.lint.dataflow import fixpoint
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, register

#: Dotted-name prefixes of the deterministic packages whose literal
#: seeds and untyped generator parameters are audited.
SCOPED_PREFIXES = (
    "repro.sim",
    "repro.core",
    "repro.campaign",
    "repro.traffic",
    "repro.service",
)

#: The one module allowed to mint fresh entropy (the CLI entry point).
ENTROPY_MINTING_MODULE = "repro.cli"

#: Fully-qualified RNG constructors whose entropy argument is audited.
RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.RandomState",
        "random.Random",
    }
)

#: Entropy keyword names accepted by the constructors above.
ENTROPY_KEYWORDS = frozenset({"seed", "entropy", "x"})

#: Annotation types that certify a parameter as provenance-carrying.
SEEDED_ANNOTATIONS = frozenset(
    {
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.RandomState",
        "numpy.random.BitGenerator",
        "random.Random",
    }
)

#: Method names whose receiver is being used as a random generator.
DRAW_METHODS = frozenset(
    {
        "integers",
        "random",
        "normal",
        "standard_normal",
        "uniform",
        "choice",
        "shuffle",
        "permutation",
        "poisson",
        "exponential",
        "spawn",
        "randint",
        "randrange",
        "getrandbits",
        "sample",
        "gauss",
    }
)

# Abstract entropy values.
_LITERAL = ("literal",)
_FRESH = ("fresh",)
_SEEDED = ("seeded",)
_UNKNOWN = ("unknown",)
_NONE = ("none",)


def _param(index: int) -> tuple:
    return ("param", index)


def in_scope(module: str) -> bool:
    """Whether a dotted module name is inside the audited packages."""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in SCOPED_PREFIXES
    )


@dataclass(frozen=True)
class _Summary:
    """Inter-procedural summary of one function.

    ``entropy_params`` — parameter indices that (transitively) end up
    as RNG-constructor entropy; ``returns`` — abstract value of what
    the function returns, when it is RNG-like.
    """

    entropy_params: frozenset[int] = frozenset()
    returns: tuple = _NONE


class _FunctionContext:
    """Per-function classification environment."""

    def __init__(self, graph: CallGraph, info: FunctionInfo) -> None:
        self.graph = graph
        self.info = info
        self.param_index = {name: i for i, name in enumerate(info.params)}
        self.sites: dict[tuple[int, int], CallSite] = {
            (site.line, site.col): site
            for site in graph.calls.get(info.qname, ())
        }
        self.locals: dict[str, ast.expr] = {}
        for stmt in self._own_nodes():
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                self.locals[stmt.targets[0].id] = stmt.value
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.value is not None
            ):
                self.locals[stmt.target.id] = stmt.value

    def _own_nodes(self) -> Iterable[ast.AST]:
        """All nodes of this function, excluding nested def bodies."""

        def rec(node: ast.AST) -> Iterable[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                yield child
                yield from rec(child)

        yield from rec(self.info.node)

    def site_for(self, call: ast.Call) -> CallSite | None:
        # A nested ``ctor(...).method()`` shares (line, col) with its
        # inner call; only the pure-dotted call (the one whose func
        # chain roots at a Name) is the node the graph resolved.
        func: ast.expr = call.func
        while isinstance(func, ast.Attribute):
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        return self.sites.get((call.lineno, call.col_offset))

    def rng_constructor_sites(
        self,
    ) -> Iterable[tuple[ast.Call, CallSite]]:
        for node in self._own_nodes():
            if isinstance(node, ast.Call):
                site = self.site_for(node)
                if (
                    site is not None
                    and site.kind == "external"
                    and site.target in RNG_CONSTRUCTORS
                ):
                    yield node, site

    def project_call_sites(self) -> Iterable[tuple[ast.Call, CallSite]]:
        for node in self._own_nodes():
            if isinstance(node, ast.Call):
                site = self.site_for(node)
                if site is not None and site.kind == "project":
                    yield node, site


def _entropy_argument(call: ast.Call) -> ast.expr | None:
    """The entropy argument of an RNG constructor call, if given."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in ENTROPY_KEYWORDS:
            return keyword.value
    return None


def _is_entropyless(call: ast.Call) -> bool:
    """No entropy argument at all, or a literal ``None``."""
    entropy = _entropy_argument(call)
    return entropy is None or (
        isinstance(entropy, ast.Constant) and entropy.value is None
    )


def _classify(
    expr: ast.expr,
    ctx: _FunctionContext,
    summaries: Mapping[str, _Summary | None],
    depth: int = 0,
) -> tuple:
    """Abstract entropy value of an expression (conservative)."""
    if depth > 10:
        return _UNKNOWN
    if isinstance(expr, ast.Constant):
        if expr.value is None:
            return _NONE
        if isinstance(expr.value, (int, float, str, bytes)):
            return _LITERAL
        return _UNKNOWN
    if isinstance(expr, ast.Name):
        index = ctx.param_index.get(expr.id)
        if index is not None:
            return _param(index)
        bound = ctx.locals.get(expr.id)
        if bound is not None and bound is not expr:
            return _classify(bound, ctx, summaries, depth + 1)
        return _UNKNOWN
    if isinstance(expr, ast.Attribute):
        # ``self.<attr>`` with a generator-typed attribute is seeded by
        # construction (the constructor site was audited separately).
        if (
            isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and ctx.info.cls is not None
        ):
            attr_type = ctx.graph.attr_type(ctx.info.cls, expr.attr)
            if attr_type is not None and (
                attr_type in SEEDED_ANNOTATIONS
                or attr_type in RNG_CONSTRUCTORS
            ):
                return _SEEDED
        return _UNKNOWN
    if isinstance(expr, (ast.Subscript, ast.Starred, ast.Await)):
        return _classify(expr.value, ctx, summaries, depth + 1)
    if isinstance(expr, ast.UnaryOp):
        return _classify(expr.operand, ctx, summaries, depth + 1)
    if isinstance(expr, ast.BinOp):
        left = _classify(expr.left, ctx, summaries, depth + 1)
        right = _classify(expr.right, ctx, summaries, depth + 1)
        if left == _LITERAL and right == _LITERAL:
            return _LITERAL
        return _UNKNOWN
    if isinstance(expr, (ast.Tuple, ast.List)):
        parts = [
            _classify(elt, ctx, summaries, depth + 1) for elt in expr.elts
        ]
        if parts and all(part == _LITERAL for part in parts):
            return _LITERAL
        return _UNKNOWN
    if isinstance(expr, ast.Call):
        return _classify_call(expr, ctx, summaries, depth)
    return _UNKNOWN


def _classify_call(
    call: ast.Call,
    ctx: _FunctionContext,
    summaries: Mapping[str, _Summary | None],
    depth: int,
) -> tuple:
    site = ctx.site_for(call)
    if site is None:
        return _UNKNOWN
    if site.kind == "external":
        if site.target in RNG_CONSTRUCTORS:
            entropy = _entropy_argument(call)
            if entropy is None:
                return _FRESH
            value = _classify(entropy, ctx, summaries, depth + 1)
            if value == _NONE:
                return _FRESH
            if value == _LITERAL:
                return _LITERAL
            if value[0] == "param":
                return _param(value[1])
            return _SEEDED
        if site.target.rsplit(".", 1)[-1] == "spawn":
            # Children of a SeedSequence/Generator inherit provenance.
            return _SEEDED
        return _UNKNOWN
    if site.kind == "project":
        summary = summaries.get(site.target)
        if summary is None:
            return _UNKNOWN
        returns = summary.returns
        if returns[0] == "param":
            argument = _argument_for(
                call, ctx.graph.functions.get(site.target), returns[1]
            )
            if argument is None:
                return _UNKNOWN
            value = _classify(argument, ctx, summaries, depth + 1)
            if value[0] == "param":
                return value
            # Literal/fresh seeds are flagged at their own sites; the
            # resulting object is a generator either way.
            return _SEEDED
        if returns in (_FRESH, _LITERAL, _SEEDED):
            return _SEEDED
        return _UNKNOWN
    return _UNKNOWN


def _argument_for(
    call: ast.Call, callee: FunctionInfo | None, param_index: int
) -> ast.expr | None:
    """The argument expression bound to a callee parameter, if static."""
    if callee is None:
        return None
    if param_index < len(call.args):
        return call.args[param_index]
    if param_index < len(callee.params):
        wanted = callee.params[param_index]
        for keyword in call.keywords:
            if keyword.arg == wanted:
                return keyword.value
    return None


def _compute_summary(
    ctx: _FunctionContext, summaries: Mapping[str, _Summary | None]
) -> _Summary:
    entropy_params: set[int] = set()
    # Direct: a parameter used as constructor entropy.
    for call, _site in ctx.rng_constructor_sites():
        entropy = _entropy_argument(call)
        if entropy is None:
            continue
        value = _classify(entropy, ctx, summaries)
        if value[0] == "param":
            entropy_params.add(value[1])
    # Transitive: a parameter forwarded into a callee's entropy param.
    for call, site in ctx.project_call_sites():
        callee_summary = summaries.get(site.target)
        if callee_summary is None:
            continue
        callee = ctx.graph.functions.get(site.target)
        for index in callee_summary.entropy_params:
            argument = _argument_for(call, callee, index)
            if argument is None:
                continue
            value = _classify(argument, ctx, summaries)
            if value[0] == "param":
                entropy_params.add(value[1])
    # Return value: what does this function hand back?
    returns: tuple = _NONE
    for node in ctx._own_nodes():
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = _classify(node.value, ctx, summaries)
        if value[0] == "param":
            returns = value
            break
        if value in (_FRESH, _LITERAL, _SEEDED) and returns == _NONE:
            returns = value
    return _Summary(
        entropy_params=frozenset(entropy_params), returns=returns
    )


@register
class SeedProvenance(LintRule):
    """Whole-program audit of the SeedSequence provenance chain."""

    name = "seed-provenance"
    summary = (
        "no entropy-less or def-time-default RNG anywhere outside the CLI; "
        "RNGs in the deterministic packages trace to master entropy"
    )
    invariant = (
        "every random draw in repro.{sim,core,campaign,traffic,service} "
        "derives from the RunOptions/campaign SeedSequence chain; no "
        "unseeded or literal-seeded generator mid-path, no provenance "
        "laundering through untyped parameters; identical runs are "
        "bit-identical and no two runs share a def-time stream"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        graph = project.call_graph()
        contexts = {
            qname: _FunctionContext(graph, info)
            for qname, info in sorted(graph.functions.items())
            if info.name != MODULE_BODY and in_scope(info.module)
        }
        summaries = fixpoint(
            sorted(contexts),
            deps=lambda q: graph.project_callees(q),
            compute=lambda q, s: _compute_summary(contexts[q], s),
        )
        scoped = [
            finding
            for qname in sorted(contexts)
            for finding in self._check_function(contexts[qname], summaries)
        ]
        yield from scoped
        # The graph-backed pass names the enclosing function; the
        # syntactic pass reports a constructor only where it did not.
        reported = {(f.path, f.line, f.col) for f in scoped}
        for module in project.modules:
            yield from self._check_module(module, reported)

    def _check_module(
        self, module: ModuleInfo, reported: set[tuple[str, int, int]]
    ) -> Iterable[Finding]:
        """Entropy-less constructors and def-time defaults, any module."""
        may_mint = has_dotted_suffix(module.module, ENTROPY_MINTING_MODULE)
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                for default in node.args.defaults + node.args.kw_defaults:
                    if not isinstance(default, ast.Call):
                        continue
                    target = resolve_call_target(default.func, imports)
                    if (
                        target in RNG_CONSTRUCTORS
                        or target == "numpy.random.Generator"
                    ):
                        yield Finding(
                            rule=self.name,
                            path=module.rel,
                            line=default.lineno,
                            col=default.col_offset,
                            message=(
                                "RNG constructed in a parameter default is "
                                "evaluated once at def time and shared by "
                                "all calls; default to None and construct "
                                "per run"
                            ),
                        )
            elif isinstance(node, ast.Call) and not may_mint:
                target = resolve_call_target(node.func, imports)
                if (
                    target in RNG_CONSTRUCTORS
                    and _is_entropyless(node)
                    and (module.rel, node.lineno, node.col_offset)
                    not in reported
                ):
                    short = target.rsplit(".", 1)[-1]
                    yield Finding(
                        rule=self.name,
                        path=module.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{short}() with no entropy draws fresh OS "
                            "randomness; thread an rng: np.random.Generator "
                            "(or a seed) down from the caller"
                        ),
                    )

    def _check_function(
        self,
        ctx: _FunctionContext,
        summaries: Mapping[str, _Summary | None],
    ) -> Iterable[Finding]:
        rel = ctx.info.rel
        constructor = None  # keep the last ctor name for messages
        for call, site in ctx.rng_constructor_sites():
            constructor = site.target
            entropy = _entropy_argument(call)
            value = (
                _NONE
                if entropy is None
                else _classify(entropy, ctx, summaries)
            )
            if value == _NONE:
                yield Finding(
                    rule=self.name,
                    path=rel,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"{constructor}() constructed without entropy in "
                        f"{ctx.info.qname}; every generator must derive "
                        "from the RunOptions/campaign SeedSequence chain"
                    ),
                )
            elif value == _LITERAL:
                yield Finding(
                    rule=self.name,
                    path=rel,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"{constructor}() seeded from a literal in "
                        f"{ctx.info.qname}; a mid-path literal fork "
                        "decouples this stream from the master seed "
                        "(spawn from the upstream SeedSequence instead)"
                    ),
                )
        for call, site in ctx.project_call_sites():
            callee_summary = summaries.get(site.target)
            if callee_summary is None:
                continue
            callee = ctx.graph.functions.get(site.target)
            for index in sorted(callee_summary.entropy_params):
                argument = _argument_for(call, callee, index)
                if argument is None:
                    continue
                if _classify(argument, ctx, summaries) == _LITERAL:
                    param_name = (
                        callee.params[index]
                        if callee is not None
                        and index < len(callee.params)
                        else f"#{index}"
                    )
                    yield Finding(
                        rule=self.name,
                        path=rel,
                        line=argument.lineno,
                        col=argument.col_offset,
                        message=(
                            f"literal seed passed to {site.target} "
                            f"(entropy parameter {param_name!r}); the "
                            "callee forks an RNG from it, so this is a "
                            "literal fork mid-path — derive the value "
                            "from the upstream SeedSequence"
                        ),
                    )
        yield from self._check_laundering(ctx)

    def _check_laundering(self, ctx: _FunctionContext) -> Iterable[Finding]:
        untyped = {
            name
            for name, annotation in zip(
                ctx.info.params, ctx.info.annotations
            )
            if annotation is None
        }
        if not untyped:
            return
        drawn_from: set[str] = set()
        for node in ctx._own_nodes():
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in untyped
                and node.func.attr in DRAW_METHODS
            ):
                drawn_from.add(node.func.value.id)
        for name in sorted(drawn_from):
            yield Finding(
                rule=self.name,
                path=ctx.info.rel,
                line=ctx.info.lineno,
                col=ctx.info.col,
                message=(
                    f"parameter {name!r} of {ctx.info.qname} is drawn "
                    "from like a random generator but has no generator "
                    "annotation; seed provenance is laundered through "
                    "the untyped parameter (annotate it, e.g. "
                    "np.random.Generator)"
                ),
            )
