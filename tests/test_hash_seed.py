"""Artifacts do not depend on the interpreter's hash seed.

Identical runs must write identical bytes: the resume and shard tests
compare artifacts byte for byte, and a published report must not change
with ``PYTHONHASHSEED``.  Iterating a ``set`` of strings while
serialising breaks that, because string hashes (and so set order) are
salted per process.  This test writes the event log, the run manifest, a
campaign store and its CSV/JSON report in fresh interpreters under three
hash seeds and compares the bytes.  Only host fields differ between two
runs, so only they are masked: ``created_unix_s``, ``elapsed_s``,
``elapsed_host_s`` (with the store's per-record ``sha256``, which covers
it) and the output directory.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

HOST_FIELDS = re.compile(
    r'("(?:created_unix_s|elapsed_s|elapsed_host_s)":\s*)[-+.\deE]+'
    r'|("sha256":)"[0-9a-f]+"'
)

SPEC = {
    "name": "hash-seed",
    "n_slots": 600,
    "replications": 1,
    "seed": 7,
    "base": {"n_nodes": 6},
    "workload": {"n_connections": 6, "utilisation": 0.6},
    "axes": {"protocol": ["ccr-edf", "tdma"], "utilisation": [0.4, 0.9]},
}

COMMANDS = (
    "simulate --nodes 6 --slots 3000 --utilisation 0.9 --events run.jsonl "
    "--manifest run.manifest.json --fault-node-mttf 800 "
    "--fault-collection-loss 0.01 --fault-distribution-loss 0.01 "
    "--fault-clock-glitch 0.005 --fault-seed 3",
    "campaign run --spec spec.json --store store",
    "campaign report --store store --csv report.csv --json report.json",
)


def artifacts(out: Path, hash_seed: str) -> dict[str, str]:
    """Every file the commands write under ``out``, host fields masked."""
    out.mkdir()
    (out / "spec.json").write_text(json.dumps(SPEC))
    script = (
        "from repro.cli import main\n"
        "for argv in %r:\n"
        "    assert main(argv.split()) == 0\n"
    )
    subprocess.run(
        [sys.executable, "-c", script % (COMMANDS,)],
        cwd=out,
        env={
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PYTHONHASHSEED": hash_seed,
        },
        check=True,
        capture_output=True,
    )
    return {
        str(path.relative_to(out)): HOST_FIELDS.sub(
            r"\1\2<host>", path.read_text().replace(str(out), "<out>")
        )
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_artifacts_are_hash_seed_independent(tmp_path):
    first, *others = (
        artifacts(tmp_path / seed, seed) for seed in ("0", "1", "2")
    )
    assert {
        "run.jsonl",
        "run.manifest.json",
        "store/runs.jsonl",
        "report.csv",
    } <= set(first)
    for other in others:
        assert other.keys() == first.keys()
        for name, text in first.items():
            assert other[name] == text, name
