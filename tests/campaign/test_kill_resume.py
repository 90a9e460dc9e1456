"""Kill -9 a sharded campaign mid-grid, resume, and demand the bytes.

The harshest resumability check: a real ``repro campaign run``
subprocess (worker pool and all) is SIGKILLed while results are landing,
so nothing gets to clean up -- not the pool, not the store, not the
signal handlers.  The follow-up invocation must finish the grid from
whatever the store holds, and the final report must be byte-identical to
a campaign that was never interrupted.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import Campaign, CampaignReport, ResultStore

#: Sized so one run takes ~0.2 s: long enough to kill mid-grid
#: reliably, short enough for the suite.
SPEC = {
    "name": "kill-resume",
    "base": {"n_nodes": 4},
    "n_slots": 20_000,
    "axes": {"utilisation": [0.4, 0.8]},
    "workload": {"n_connections": 4},
    "replications": 4,
    "seed": 11,
}


def _cli(*argv, env):
    return subprocess.run(
        [sys.executable, "-m", "repro", "campaign", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def _report_bytes(store_root, path):
    store = ResultStore(store_root)
    campaign = store.load_campaign()
    CampaignReport.from_store(campaign, store).to_csv(path)
    return path.read_bytes()


def test_sigkill_mid_grid_then_resume_bit_identical(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    campaign = Campaign.from_json_file(spec_path)

    # Reference: the same campaign, serial, never interrupted.
    clean_store = tmp_path / "clean"
    done = _cli(
        "run", "--spec", str(spec_path), "--store", str(clean_store), env=env
    )
    assert done.returncode == 0, done.stdout + done.stderr

    # Victim: sharded, SIGKILLed as soon as results start landing.
    store = tmp_path / "killed"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         "--spec", str(spec_path), "--store", str(store), "--jobs", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
        start_new_session=True,  # so the orphaned workers can be reaped
    )
    segment = store / "runs.jsonl"

    def landed_records():
        """Complete lines in the segment (a torn tail does not count)."""
        return segment.read_bytes().count(b"\n") if segment.exists() else 0

    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if landed_records():
            break
        if proc.poll() is not None:
            pytest.fail("campaign finished before it could be killed; "
                        "grow SPEC['n_slots']")
        time.sleep(0.005)
    else:
        proc.kill()
        pytest.fail("no run landed in the store within 60 s")
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    # Only the supervisor was killed; its pool workers outlive it, idle.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass

    landed = landed_records()
    assert 0 < landed < campaign.total_runs, (
        f"kill was not mid-grid: {landed}/{campaign.total_runs} runs landed"
    )

    # The store survived the kill in a resumable state: fsck finds at
    # worst a torn last record / a stray tmp file, and --repair clears
    # them.
    fsck = _cli("fsck", "--store", str(store), "--repair", env=env)
    assert fsck.returncode in (0, 1), fsck.stdout + fsck.stderr
    if fsck.returncode == 1:
        fsck = _cli("fsck", "--store", str(store), "--repair", env=env)
        assert fsck.returncode == 0, fsck.stdout + fsck.stderr

    # Resume from the snapshot alone (no --spec): must complete and skip
    # at least one run the killed invocation persisted.
    resumed = _cli("run", "--store", str(store), env=env)
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert "skipped 0 cached" not in resumed.stdout

    assert _report_bytes(store, tmp_path / "killed.csv") == _report_bytes(
        clean_store, tmp_path / "clean.csv"
    )
