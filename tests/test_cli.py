"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_lint_is_a_usage_error(self, capsys):
        """The invariants are test-suite checks now; no ``lint`` command."""
        with pytest.raises(SystemExit) as exc:
            main(["lint", "src/repro"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'lint'" in err
        assert "Traceback" not in err

    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.nodes == 8
        assert args.link_length == 10.0
        assert args.payload == 1024

    def test_simulate_protocol_choices(self):
        args = build_parser().parse_args(["simulate", "--protocol", "ccfpr"])
        assert args.protocol == "ccfpr"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--protocol", "aloha"])

    def test_compare_workload_args(self):
        args = build_parser().parse_args(
            ["compare", "--utilisation", "0.5", "--seed", "3", "--drop-late"]
        )
        assert args.utilisation == 0.5
        assert args.seed == 3
        assert args.drop_late is True


class TestCommands:
    def test_info_prints_model(self, capsys):
        assert main(["info", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "U_max" in out
        assert "Eq. 2" in out

    def test_info_reflects_parameters(self, capsys):
        main(["info", "--nodes", "4", "--link-length", "10"])
        short = capsys.readouterr().out
        main(["info", "--nodes", "4", "--link-length", "1000"])
        long = capsys.readouterr().out

        def umax(text):
            for line in text.splitlines():
                if "U_max" in line:
                    return float(line.split(":")[1])
            raise AssertionError("no U_max line")

        assert umax(long) < umax(short)

    def test_simulate_runs(self, capsys):
        rc = main(
            [
                "simulate",
                "--nodes", "6",
                "--utilisation", "0.5",
                "--slots", "2000",
                "--seed", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "RT released" in out
        assert "ratio 0.0000" in out  # feasible load: no misses

    def test_simulate_deterministic(self, capsys):
        argv = ["simulate", "--slots", "1000", "--seed", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_replications_print_the_resolved_job_count(self, capsys):
        """``--jobs 0`` means every available CPU, capped at one worker
        per replication; the banner names that count, not the flag."""
        from repro.sim.batch import resolve_jobs

        argv = ["simulate", "--slots", "500", "--seed", "5",
                "--replications", "2"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out.splitlines()
        assert main(argv + ["--jobs", "0"]) == 0
        every_cpu = capsys.readouterr().out.splitlines()
        assert serial[0].endswith("master seed 5, 1 job(s)")
        assert every_cpu[0].endswith(f", {min(resolve_jobs(0), 2)} job(s)")
        assert every_cpu[1:] == serial[1:]

    def test_replicated_manifest_registry_is_the_reports(self, tmp_path, capsys):
        """``--manifest``'s registry section is derived from the
        replications' reports: byte-identical for any job count, its
        fault and recovery counters the sums over the three reports."""
        import json
        from collections import Counter
        from functools import partial

        from repro.cli import _REPLICATION_METRICS, _build_replication
        from repro.sim.batch import replicate

        argv = ["simulate", "--slots", "3000", "--seed", "4",
                "--replications", "3", "--fault-node-mttf", "1500",
                "--fault-collection-loss", "0.01",
                "--fault-distribution-loss", "0.01",
                "--fault-clock-glitch", "0.005"]
        sections = []
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.json"
            assert main(argv + ["--jobs", jobs, "--manifest", str(path)]) == 0
            sections.append(
                json.dumps(json.loads(path.read_text())["registry"])
            )
        capsys.readouterr()
        assert sections[0] == sections[1]

        reports = replicate(
            partial(_build_replication, build_parser().parse_args(argv)),
            n_slots=3000,
            metrics=_REPLICATION_METRICS,
            n_replications=3,
            master_seed=4,
        ).reports
        faults = Counter()
        for report in reports:
            faults.update(report.availability_stats.fault_events)
        counters = json.loads(sections[0])["counters"]
        assert len(faults) == 4
        assert {
            name: n for name, n in counters.items()
            if name.startswith("sim:fault:")
        } == {f"sim:fault:{kind}": n for kind, n in faults.items()}
        assert counters["sim:recoveries"] == sum(
            r.availability_stats.recoveries for r in reports
        ) > 0

    def test_compare_lists_all_protocols(self, capsys):
        rc = main(
            ["compare", "--slots", "1000", "--utilisation", "0.4", "--seed", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for proto in ("ccr-edf", "upper-edf", "ccfpr", "tdma"):
            assert proto in out

    def test_compare_output_is_the_same_for_any_job_count(self, capsys):
        argv = ["compare", "--slots", "500", "--utilisation", "0.4"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_analysis_mode_flag(self, capsys):
        rc = main(
            [
                "simulate",
                "--slots", "1000",
                "--no-spatial-reuse",
                "--utilisation", "0.3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # Analysis mode: at most one packet per slot -> reuse factor 1.
        assert "reuse factor      : 1.00" in out


class TestEngineLine:
    """``simulate`` says which engine tier ran, on the console and in
    the manifest's ``extra["engine"]``."""

    ARGV = ["simulate", "--nodes", "8", "--slots", "2000", "--seed", "1"]

    def _run(self, tmp_path, capsys, *flags):
        import json

        manifest = tmp_path / "run.manifest.json"
        assert main([*self.ARGV, "--manifest", str(manifest), *flags]) == 0
        (line,) = [
            text.split(":", 1)[1].strip()
            for text in capsys.readouterr().out.splitlines()
            if text.startswith("engine ")
        ]
        return line, json.loads(manifest.read_text())["extra"]["engine"]

    def test_closed_world_runs_compiled(self, tmp_path, capsys):
        from repro.sim.vector import ckernel

        if ckernel._kernel_fn() is None:
            pytest.skip("no C toolchain; compiled tier unavailable")
        line, engine = self._run(tmp_path, capsys, "--engine", "vector")
        assert line == "vector (compiled)"
        assert engine == {
            "requested": "vector",
            "backend": "compiled",
            "fallback_reason": None,
            "numpy_reason": None,
        }

    def test_profile_keeps_the_compiled_tier(self, tmp_path, capsys):
        from repro.sim.vector import ckernel

        if ckernel._kernel_fn() is None:
            pytest.skip("no C toolchain; compiled tier unavailable")
        line, engine = self._run(
            tmp_path, capsys, "--engine", "vector", "--profile"
        )
        assert line == "vector (compiled)"
        assert engine["backend"] == "compiled"

    def test_drop_late_runs_numpy(self, tmp_path, capsys):
        line, engine = self._run(
            tmp_path, capsys, "--engine", "vector", "--drop-late"
        )
        assert line == "vector (numpy: drop-late)"
        assert engine["backend"] == "numpy"
        assert engine["numpy_reason"] == "drop-late"

    def test_events_run_names_the_numpy_refusal(self, tmp_path, capsys):
        line, engine = self._run(
            tmp_path,
            capsys,
            "--engine",
            "vector",
            "--events",
            str(tmp_path / "run.events.jsonl"),
        )
        assert line == "vector (numpy: observer attached)"
        assert engine["backend"] == "numpy"
        assert engine["numpy_reason"] == "observer attached"

    def test_policy_falls_back_to_oracle(self, tmp_path, capsys):
        line, engine = self._run(
            tmp_path, capsys, "--engine", "vector", "--policy", "rm"
        )
        assert line == "vector -> oracle: policy"
        assert engine == {
            "requested": "vector",
            "backend": "oracle",
            "fallback_reason": "policy",
            "numpy_reason": None,
        }

    def test_python_engine(self, tmp_path, capsys):
        line, engine = self._run(tmp_path, capsys, "--engine", "python")
        assert line == "python"
        assert engine == {
            "requested": "python",
            "backend": "oracle",
            "fallback_reason": None,
            "numpy_reason": None,
        }


class TestCampaign:
    def _spec_file(self, tmp_path):
        import json

        spec = {
            "name": "cli-test",
            "n_slots": 500,
            "replications": 2,
            "seed": 3,
            "base": {"n_nodes": 6},
            "workload": {"n_connections": 4, "utilisation": 0.5},
            "axes": {"protocol": ["ccr-edf", "tdma"]},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_run_status_resume_report(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        store = str(tmp_path / "store")

        rc = main(
            ["campaign", "run", "--spec", str(spec), "--store", store,
             "--limit", "1"]
        )
        # Incomplete-but-resumable exits 3 (0 is reserved for "every run
        # is in the store", 4 for quarantine).
        assert rc == 3
        out = capsys.readouterr().out
        assert "executed 1" in out and "3 remaining" in out

        rc = main(["campaign", "status", "--store", store])
        assert rc == 0
        assert "1/4 cached" in capsys.readouterr().out

        # Resume from the store snapshot alone (no --spec) and skip the
        # cached run.
        rc = main(["campaign", "run", "--store", store, "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "skipped 1 cached" in out and "0 remaining" in out

        csv_path = tmp_path / "out.csv"
        rc = main(
            ["campaign", "report", "--store", store,
             "--csv", str(csv_path), "--marginal", "rt_miss_ratio"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rows written" in out and "marginal means" in out
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 5  # header + 4 runs
        assert lines[0].startswith("point,replication,run_key,seed,protocol")

    def test_report_refuses_incomplete_without_partial(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        store = str(tmp_path / "store")
        main(["campaign", "run", "--spec", str(spec), "--store", store,
              "--limit", "1"])
        capsys.readouterr()
        rc = main(
            ["campaign", "report", "--store", store,
             "--csv", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        assert "not cached yet" in capsys.readouterr().err
        rc = main(
            ["campaign", "report", "--store", store, "--partial",
             "--csv", str(tmp_path / "o.csv")]
        )
        assert rc == 0
        assert len((tmp_path / "o.csv").read_text().splitlines()) == 2

    def test_missing_store_and_spec_is_an_error(self, tmp_path, capsys):
        rc = main(
            ["campaign", "status", "--store", str(tmp_path / "nowhere")]
        )
        assert rc == 2
        assert "cannot load campaign" in capsys.readouterr().err


class TestAnalyze:
    def test_specs_admitted_and_bounded(self, capsys):
        rc = main(
            ["analyze", "--nodes", "8", "--spec", "10:2", "--spec", "25:5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "U_max" in out
        assert out.count("yes") == 2
        assert "headroom" in out

    def test_overload_rejected_in_output(self, capsys):
        main(["analyze", "--spec", "2:1", "--spec", "2:1", "--spec", "2:1"])
        out = capsys.readouterr().out
        assert "NO" in out

    def test_bad_spec_format(self, capsys):
        rc = main(["analyze", "--spec", "banana"])
        assert rc == 2
        assert "bad --spec" in capsys.readouterr().err

    def test_spec_with_zero_period_is_a_usage_error(self, capsys):
        rc = main(["analyze", "--spec", "4:2", "--spec", "0:1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "bad --spec '0:1': period must be >= 1 slot, got 0\n"
        )

    def test_spec_larger_than_its_period_is_a_usage_error(self, capsys):
        rc = main(["analyze", "--spec", "10:20"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "bad --spec '10:20': message size 20 exceeds period 10: "
            "intrinsically infeasible\n"
        )

    def test_spec_required(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    def test_wcrt_within_window_for_admitted(self, capsys):
        main(["analyze", "--spec", "12:3", "--spec", "6:1"])
        out = capsys.readouterr().out
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 5 and parts[2] == "yes":
                wcrt, window = int(parts[3]), int(parts[4])
                assert wcrt <= window
