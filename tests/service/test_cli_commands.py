"""``repro serve`` and ``repro churn`` run in-process.

Run through :func:`repro.cli.main`, their coroutines execute under the
runtime audit of ``tests/runtime_audit.py`` (blocking calls, host-clock
reads, RNG provenance) like the rest of the suite.
"""

import json

from repro.cli import main


def test_serve_probes_then_shuts_down_clean(capsys):
    assert main(["serve", "--probes", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("status  ") for line in out) == 2
    assert "shutdown            : clean (queue drained)" in out


def test_churn_event_log_replays_the_live_totals(tmp_path, capsys):
    events = tmp_path / "churn.jsonl"
    argv = ["churn", "--ops", "400", "--clients", "2", "--fault-every",
            "3", "--events", str(events), "--manifest", "--verify-replay"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].endswith("log matches live totals bit-identically")
    (written,) = [line for line in out if line.startswith("manifest written")]
    manifest = json.loads(
        open(written.split(":", 1)[1].strip()).read()
    )
    churn = manifest["extra"]["churn"]
    assert churn["operations"] >= 400
    assert churn["suspends"] + churn["resumes"] > 0
    assert manifest["extra"]["events"] == str(events)
    assert manifest["master_seed"] == 0
