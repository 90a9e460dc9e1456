"""Call-graph construction, resolution and the --graph CLI."""

from repro.lint.callgraph import MODULE_BODY, CallGraph, CallSite, build_call_graph
from repro.lint.cli import main
from repro.lint.engine import load_project

from tests.lint.conftest import materialise


def _project(tmp_path, *fixtures):
    root = materialise(tmp_path, *fixtures)
    project, findings = load_project([root], root=root)
    assert findings == []
    return project


class TestBuild:
    def test_functions_methods_and_module_bodies(self, tmp_path):
        project = _project(tmp_path, "awaitstate_worker_good.py")
        graph = build_call_graph(project)
        assert "repro.service.server.AdmissionService._worker" in graph.functions
        assert graph.functions[
            "repro.service.server.AdmissionService._worker"
        ].is_async
        body = graph.functions[f"repro.service.server.{MODULE_BODY}"]
        # Each entry carries its live def node and module.
        worker = graph.functions["repro.service.server.AdmissionService._worker"]
        assert worker.node.name == "_worker"
        assert body.node is body.source.tree is worker.source.tree
        assert worker.rel == worker.source.rel
        cls = graph.classes["repro.service.server.AdmissionService"]
        assert "_worker" in cls.methods
        assert "toggle" in cls.methods

    def test_direct_call_resolution(self, tmp_path):
        project = _project(tmp_path, "callgraph_bare_calls.py")
        graph = build_call_graph(project)
        sites = graph.calls["repro.service.fire.go"]
        assert any(
            s.kind == "project" and s.target == "repro.service.fire.ping"
            for s in sites
        )
        assert any(
            s.kind == "external" and s.target == "asyncio.sleep" for s in sites
        )

    def test_cross_module_import_resolution(self, tmp_path):
        project = _project(
            tmp_path, "asyncblock_reach_bad.py", "asyncblock_helper.py"
        )
        graph = build_call_graph(project)
        submit = "repro.service.server.AdmissionService.submit"
        assert "repro.ioutil.flush_log" in graph.project_callees(submit)

    def test_typed_attribute_method_resolution(self, tmp_path):
        project = _project(
            tmp_path, "callgraph_typed_attr.py", "callgraph_typed_attr_defs.py"
        )
        graph = build_call_graph(project)
        close_all = "repro.service.caller.Teardown.close_all"
        assert (
            "repro.service.client.AdmissionClient.close_lrtc"
            in graph.project_callees(close_all)
        )

    def test_methods_of_and_reachable(self, tmp_path):
        project = _project(
            tmp_path, "asyncblock_reach_bad.py", "asyncblock_helper.py"
        )
        graph = build_call_graph(project)
        roots = graph.methods_of("service.server.AdmissionService")
        assert roots == ("repro.service.server.AdmissionService.submit",)
        assert "repro.ioutil.flush_log" in graph.reachable(roots)

    def test_render_is_deterministic_and_labelled(self, tmp_path):
        project = _project(tmp_path, "callgraph_bare_calls.py")
        graph = build_call_graph(project)
        text = graph.render()
        assert text == graph.render()
        assert "# call graph:" in text
        assert "async repro.service.fire.go" in text
        assert "-> repro.service.fire.ping" in text
        assert "~> asyncio.sleep" in text


class TestGraphCli:
    def test_graph_flag_prints_and_exits_zero(self, tmp_path, capsys):
        root = materialise(tmp_path, "callgraph_bare_calls.py")
        assert main([str(root), "--graph"]) == 0
        out = capsys.readouterr().out
        assert "# call graph:" in out
        assert "repro.service.fire.ping" in out

    def test_graph_on_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope"), "--graph"]) == 2


def _edges_graph(edges):
    """A bare graph whose project calls are exactly ``edges``."""
    return CallGraph(
        functions=dict.fromkeys(edges),
        calls={
            caller: tuple(CallSite(c, "project", 1, 0) for c in callees)
            for caller, callees in edges.items()
        },
    )


class TestReachable:
    def test_reachable_is_transitive_and_inclusive(self):
        graph = _edges_graph({"a": ("b",), "b": ("c",), "c": (), "d": ("a",)})
        assert graph.reachable(["a"]) == frozenset({"a", "b", "c"})
        assert graph.reachable([]) == frozenset()

    def test_reachable_handles_cycles(self):
        graph = _edges_graph({"a": ("b",), "b": ("a", "c"), "c": ()})
        assert graph.reachable(["a"]) == frozenset({"a", "b", "c"})
