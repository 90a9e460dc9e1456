"""The repo benchmark: one command, six workloads, every metric by name.

Driver form (what ``BENCHMARK.json`` declares) -- one workload, one run::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints ``workload metric value unit`` lines and, last, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Human form -- no ``--workload`` -- runs all six, each in a fresh
subprocess so peak RSS and caches do not leak between them::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--traced|--aa] [--out FILE]

Exit status is non-zero on any correctness mismatch.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
#: Everything the benchmark writes lives here (ignored by git).
BUILD_DIR = ROOT / ".bench_build"
#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Fixed names: later issues cite them.
WORKLOAD_NAMES = (
    "oracle_loaded_n8",
    "oracle_sparse_n16",
    "vector_loaded_n8",
    "campaign_grid",
    "service_closed_c4",
    "service_open_r750",
)


def import_paths() -> None:
    """Put the program under test and this directory on ``sys.path``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"run.py: the program under test is missing ({src}/repro): "
            "run from a full checkout"
        )
    for path in (str(src), str(E2E_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def prepare_environment() -> Path:
    """Point the program and this process at the checkout; returns the
    scratch directory of this run (inside the checkout, removed at exit)."""
    import_paths()
    BUILD_DIR.mkdir(exist_ok=True)
    # The compiled kernel defaults to a cache under /tmp; keep it, and
    # every temporary file, inside the checkout.
    os.environ["REPRO_CKERNEL_CACHE"] = str(BUILD_DIR / "ckernel")
    workdir = Path(tempfile.mkdtemp(prefix="e2e-", dir=BUILD_DIR))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    return workdir


def expected_digest(workload: str, seed: int, scale: float) -> str | None:
    """The pinned digest, if this seed and scale have one."""
    if scale != 1.0:
        return None
    pinned = json.loads((E2E_DIR / "expected_digests.json").read_text())
    return pinned.get(f"seed-{seed}", {}).get(workload)


def probe_setup(args: argparse.Namespace) -> tuple[float, int]:
    """Median reference seconds of a fresh process doing only set-up."""
    from workloads import in_reference_seconds, stopwatch

    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", str(args.scale),
        "--setup-probe",
    ]  # fmt: skip
    child = stopwatch(
        lambda: subprocess.run(
            command, check=True, stdout=subprocess.DEVNULL, timeout=170
        )
    )
    samples = [in_reference_seconds(child) for _ in range(SETUP_PROBES)]
    return statistics.median(samples), len(samples)


def run_workload(args: argparse.Namespace) -> int:
    """Driver form: set up, measure, check and print one workload."""
    workdir = prepare_environment()
    try:
        return _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args: argparse.Namespace, workdir: Path) -> int:
    import harness
    from tracing import Tracer
    from workloads import LAYER_METRICS, WORKLOADS

    name = args.workload
    workload = WORKLOADS[name](args.seed, args.scale, workdir)
    if args.setup_probe:
        workload.setup()
        return 0
    # First set-up in a checkout compiles the C kernel into BUILD_DIR
    # (the build); the timed set-ups after it find it there.
    tier = workload.setup()
    traced_run = bool(args.trace)
    setup_s, setup_n = (0.0, 0) if traced_run else probe_setup(args)

    tracer = Tracer() if traced_run else None
    plain, traced = harness.measure(workload, args.seconds, tracer)
    reps = plain + traced
    problems = workload.check(
        plain, traced, expected_digest(name, args.seed, args.scale)
    )
    attempted = sum(rep.attempted for rep in reps)
    failed = attempted if problems else sum(rep.failed for rep in reps)

    if tracer is None:
        units = harness.END_TO_END_UNITS
        metrics = harness.end_to_end_metrics(plain, setup_s)
        samples = {
            "setup_s": setup_n,
            "slots_per_s": len(plain),
            "ops_per_s": len(plain),
            "latency_p50_ms": plain[0].ops,
            "latency_p90_ms": plain[0].ops,
            "peak_rss_mb": 1,
        }
    else:
        units = LAYER_METRICS
        metrics = dict.fromkeys(LAYER_METRICS, 0.0)
        metrics.update(workload.layer_metrics(tracer, traced, plain))
        metrics["trace.overhead_share"] = (
            statistics.median(r.wall_s * r.speed for r in traced)
            / statistics.median(r.wall_s * r.speed for r in plain)
            - 1.0
        )
        metrics["host.speed_factor"] = statistics.median(r.speed for r in reps)
        samples = dict.fromkeys(metrics, len(traced))

    for key, value in tier.items():
        print(f"{name} {key} {value}")
    print(f"{name} report_digest {plain[0].digest}")
    print(f"{name} repetitions {len(plain)} plain, {len(traced)} traced")
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]} (n={samples[metric]})")
    for problem in problems:
        print(f"INCORRECT {problem}", file=sys.stderr)
    if args.out:
        detail = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": int(traced_run),
            "tier": tier,
            "report_digest": plain[0].digest,
            "repetitions": {"plain": len(plain), "traced": len(traced)},
            "metrics": metrics,
            "units": {m: units[m] for m in metrics},
            "problems": problems,
            "trace_dump": tracer.dump() if tracer is not None else None,
        }
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m: {"value": v, "unit": units[m]} for m, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 1 if problems else 0


# ----------------------------------------------------------------------
# Human form: every workload, each in its own process
# ----------------------------------------------------------------------


def spawn(name: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    """One driver-form run in a fresh process; returns its detail doc."""
    BUILD_DIR.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(
        suffix=".json", dir=BUILD_DIR, delete=False
    ) as handle:
        out = Path(handle.name)
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--trace", str(trace),
        "--out", str(out),
    ]  # fmt: skip
    try:
        done = subprocess.run(command, timeout=900)
        detail = json.loads(out.read_text()) if out.stat().st_size else {}
    finally:
        out.unlink(missing_ok=True)
    detail["exit"] = done.returncode
    return detail


def declared_bounds() -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` as fixed in ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}


def compare_aa(
    first: dict[str, dict[str, Any]],
    second: dict[str, dict[str, Any]],
    exact_only: bool,
) -> bool:
    """Print an A/A comparison of two passes; True when every row passes."""
    from workloads import EXACT_LAYER_METRICS

    bounds = {} if exact_only else declared_bounds()
    ok = True
    for name, a in first.items():
        b = second[name]
        for metric, va in a["metrics"].items():
            vb = b["metrics"][metric]
            if exact_only:
                if metric not in EXACT_LAYER_METRICS:
                    continue
                passed = va == vb
                note = "exact"
            else:
                better, bound = bounds[metric]
                worse = (vb - va) / va if better == "lower" else (va - vb) / va
                passed = worse <= bound
                note = f"gap {(vb - va) / va:+.3f} bound {bound}"
            ok &= passed
            print(
                f"A/A {name} {metric} {va:.6g} {vb:.6g} {note} "
                f"{'PASS' if passed else 'FAIL'}"
            )
    return ok


def run_all(args: argparse.Namespace) -> int:
    passes: list[tuple[int, dict[str, dict[str, Any]]]] = []
    plan = [0, 0] if args.aa else [0]
    if args.traced or args.aa:
        plan += [1, 1] if args.aa else [1]
    status = 0
    for trace in plan:
        results = {name: spawn(name, args, trace) for name in WORKLOAD_NAMES}
        status |= max(detail["exit"] for detail in results.values())
        passes.append((trace, results))
    if args.aa and not status:
        import_paths()
        untraced = [r for t, r in passes if t == 0]
        traced = [r for t, r in passes if t == 1]
        ok = compare_aa(untraced[0], untraced[1], exact_only=False)
        ok &= compare_aa(traced[0], traced[1], exact_only=True)
        status |= 0 if ok else 1
    if args.out:
        doc = [
            {"trace": trace, "workloads": results} for trace, results in passes
        ]
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES,
        help="run this workload only (driver form)",
    )  # fmt: skip
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every workload size (smoke tests; 1.0 = the benchmark)",
    )  # fmt: skip
    parser.add_argument("--out", help="also write the full result as JSON here")
    parser.add_argument(
        "--traced", action="store_true",
        help="human form: add the traced pass (per-layer metrics)",
    )  # fmt: skip
    parser.add_argument(
        "--aa", action="store_true",
        help="human form: run both passes twice and compare them",
    )  # fmt: skip
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
