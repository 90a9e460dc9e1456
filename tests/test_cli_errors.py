"""The ``repro`` usage-error boundary.

An input outside the model's domain -- a malformed flag or a value the
library rejects while a command builds its inputs -- ends in exit status
2, nothing on stdout and one ``repro <command>: error: ...`` line on
stderr, never in a traceback.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of one in-process ``repro`` call.

    An exception escaping :func:`main` is what the real entry point
    would print as a traceback; it propagates and fails the test.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv: list[str], allowed=(0, 2)) -> int:
    code, out, err = run(argv)
    assert code in allowed, (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
        assert err.startswith("repro ") and err.count("\n") == 1, (argv, err)
    return code


#: Invocations that once ended in a traceback or a silent exit 0.
USAGE_ERRORS = [
    "info --nodes 1",
    "analyze --nodes 1 --spec 10:2",
    "simulate --nodes 1",
    "simulate --payload 0",
    "simulate --link-length -3",
    "simulate --link-length nan",
    "simulate --connections 0",
    "simulate --utilisation -1",
    "simulate --utilisation inf",
    "simulate --slots -5",
    "simulate --fault-collection-loss 2",
    "simulate --fault-collection-loss -0.5",
    "simulate --policy rm --protocol ccfpr",
    "simulate --replications 0",
    "simulate --replications 2 --events run.jsonl",
    "simulate --trace --trace-max -1",
    "simulate --fault-node-mttf 500 --fault-timeout-us 0.001",
    "simulate --fault-node-mttf 500 --fault-timeout-us 0.001 "
    "--events run.jsonl",
    "compare --nodes 1",
    "serve --queue-depth 0",
    "serve --admission-node 99",
    "serve --probes 0",
    "serve --verify-replay",
    "churn --burst 0",
    "churn --close-fraction 3",
    "churn --fault-every -1",
    "churn --ops 0",
    "churn --clients 0",
    "churn --verify-replay",
    "simulate --events missing/run.jsonl",
    "simulate --manifest missing/run.manifest.json",
    "churn --events missing/run.jsonl",
    "campaign run --store store --events missing/run.jsonl",
    "campaign run --store store --limit -1",
    "campaign run --store store",
    "campaign run --store store --spec missing.json",
    "campaign status --store store",
    "campaign report --store store",
    "campaign fsck --store store",
]


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_error_is_exit_2_and_one_line(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert assert_clean_exit(command.split(), allowed=(2,)) == 2
    # A rejected input leaves no log, manifest or store behind.
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    ("command", "with_spec"),
    [("status", False), ("status", True), ("report", False),
     ("report", True), ("fsck", False)],
)
def test_read_only_campaign_command_creates_no_store(
    command, with_spec, tmp_path
):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    store = tmp_path / "store"
    extra = ["--spec", str(spec)] if with_spec else []
    code, out, err = run(["campaign", command, "--store", str(store), *extra])
    assert (code, out) == (2, "")
    assert err.startswith(f"repro campaign {command}: error: ")
    assert err.endswith(f"no store at {store}\n")
    assert not store.exists()


def test_verify_replay_without_events_fails_before_the_run():
    code, out, err = run(["churn", "--ops", "20", "--verify-replay"])
    assert (code, out) == (2, "")
    assert err == "repro churn: error: --verify-replay requires --events\n"


def test_entry_point_prints_no_traceback():
    """``python -m repro`` goes through the same boundary."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", "--nodes", "1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "repro simulate: error: a ring needs at least 2 nodes, got 1\n"
    )


# -- every numeric option, out of its range ------------------------------

NAN_INF = st.sampled_from([math.nan, math.inf, -math.inf])
BELOW_ONE = st.integers(max_value=0)
NEGATIVE_INT = st.integers(max_value=-1)
NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), NAN_INF)
NEGATIVE = st.one_of(st.floats(max_value=0.0, exclude_max=True), NAN_INF)
#: Outside [0, 1] (``p_outside_closed``) and outside [0, 1).
P_OUTSIDE_CLOSED = st.one_of(
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=1.0, exclude_min=True),
    NAN_INF,
)
P_OUTSIDE_OPEN = st.one_of(
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=1.0),
    NAN_INF,
)

NETWORK = {
    "--nodes": st.integers(max_value=1),
    "--link-length": NEGATIVE,
    "--payload": BELOW_ONE,
}
WORKLOAD = {
    "--utilisation": NOT_POSITIVE,
    "--connections": BELOW_ONE,
    "--slots": BELOW_ONE,
    "--seed": NEGATIVE_INT,
}
FAULTS = {
    "--fault-node-mttf": NOT_POSITIVE,
    "--fault-node-mttr": NOT_POSITIVE,
    "--fault-collection-loss": P_OUTSIDE_OPEN,
    "--fault-distribution-loss": P_OUTSIDE_OPEN,
    "--fault-burst-p-gb": P_OUTSIDE_CLOSED,
    "--fault-burst-p-bg": P_OUTSIDE_CLOSED,
    "--fault-clock-glitch": P_OUTSIDE_OPEN,
    "--fault-timeout-us": NOT_POSITIVE,
    "--fault-seed": NEGATIVE_INT,
}
SERVICE = {
    **NETWORK,
    "--admission-node": st.one_of(NEGATIVE_INT, st.integers(min_value=4)),
    "--queue-depth": BELOW_ONE,
}

#: (base argv, {option: out-of-range values}).  ``--jobs`` has no
#: out-of-range value (``<= 0`` is one worker per CPU), nor has churn's
#: ``--seed`` (client ``i`` seeds ``random.Random(seed + i)``).  The
#: fault bases switch node faults on, so every fault knob is read.
COMMANDS = {
    "info": (["info"], NETWORK),
    "analyze": (["analyze", "--spec", "10:2"], NETWORK),
    "simulate": (
        ["simulate", "--nodes=4", "--connections=3", "--slots=60",
         "--fault-node-mttf=500"],
        {**NETWORK, **WORKLOAD, **FAULTS, "--replications": BELOW_ONE},
    ),
    "simulate-trace": (
        ["simulate", "--nodes=4", "--slots=60", "--trace"],
        {"--trace-max": BELOW_ONE},
    ),
    "compare": (
        ["compare", "--nodes=4", "--connections=3", "--slots=60",
         "--fault-node-mttf=500"],
        {**NETWORK, **WORKLOAD, **FAULTS},
    ),
    "serve": (["serve", "--nodes=4"], {**SERVICE, "--probes": BELOW_ONE}),
    "churn": (
        ["churn", "--nodes=4", "--ops=20", "--clients=2", "--fault-every=2"],
        {
            **SERVICE,
            "--ops": BELOW_ONE,
            "--clients": BELOW_ONE,
            "--burst": BELOW_ONE,
            "--close-fraction": P_OUTSIDE_CLOSED,
            "--fault-every": NEGATIVE_INT,
        },
    ),
}
CASES = [
    (name, option)
    for name, (_, options) in COMMANDS.items()
    for option in options
]


@pytest.mark.parametrize(("name", "option"), CASES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_out_of_range_option_exits_0_or_2(name, option, data):
    base, options = COMMANDS[name]
    value = data.draw(options[option], label=option)
    assert_clean_exit([*base, f"{option}={value}"])


#: A small valid campaign; one attempt per run, so a failing run is
#: quarantined at once instead of retried with backoff.
SPEC = {
    "name": "bounds",
    "n_slots": 50,
    "replications": 1,
    "seed": 1,
    "base": {"n_nodes": 4},
    "workload": {"n_connections": 2, "utilisation": 0.4},
    "axes": {"protocol": ["ccr-edf", "tdma"]},
    "retry": {"max_attempts": 1, "backoff_base_s": 0.0},
}
#: (path into the spec, out-of-range values); an ``axes`` path adds a
#: one-value axis.
SPEC_FIELDS = {
    ("n_slots",): NEGATIVE_INT,
    ("replications",): BELOW_ONE,
    ("seed",): NEGATIVE_INT,
    ("base", "n_nodes"): st.integers(max_value=1),
    ("base", "link_length_m"): NEGATIVE,
    ("base", "slot_payload_bytes"): BELOW_ONE,
    ("workload", "n_connections"): BELOW_ONE,
    ("workload", "utilisation"): NOT_POSITIVE,
    ("axes", "n_slots"): NEGATIVE_INT,
    ("axes", "n_nodes"): st.integers(max_value=1),
    ("axes", "utilisation"): NOT_POSITIVE,
}
CAMPAIGN_RUN = {
    "--limit": NEGATIVE_INT,
    "--max-attempts": BELOW_ONE,
    "--run-timeout": NEGATIVE,
}


@pytest.mark.parametrize("field", list(SPEC_FIELDS), ids="/".join)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_out_of_range_spec_value_exits_before_any_run(field, data):
    value = data.draw(SPEC_FIELDS[field], label="/".join(field))
    spec = json.loads(json.dumps(SPEC))
    *parents, key = field
    target = spec
    for parent in parents:
        target = target[parent]
    target[key] = [value] if parents == ["axes"] else value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "spec.json")
        path.write_text(json.dumps(spec))
        store = ["--store", str(Path(tmp, "store")), "--spec", str(path)]
        for sub in ("run", "status", "report"):
            allowed = (0, 2, 3, 4) if sub == "run" else (0, 2)
            assert_clean_exit(["campaign", sub, *store], allowed)


@pytest.mark.parametrize("option", list(CAMPAIGN_RUN))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_out_of_range_campaign_run_option(option, data):
    value = data.draw(CAMPAIGN_RUN[option], label=option)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "spec.json")
        path.write_text(json.dumps(SPEC))
        assert_clean_exit(
            ["campaign", "run", "--store", str(Path(tmp, "store")),
             "--spec", str(path), f"{option}={value}"],
            (0, 2, 3, 4),
        )
