"""Benchmark of axiometer: every command end to end, and each layer traced.

Run from the repository root:

    python3 perfbench/run.py --workload lattice_j20 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): lattice_j20, cli_j16,
cli_demo, simulation.  Each run generates its inputs from --seed (numpy
only, see gen.py), measures set-up time over fresh interpreters, then runs
the workload in a fresh worker process for --seconds and checks every
output.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: the median per-pass time
of each command's fixed operation list, set-up time, peak RSS and the share
of operations that succeeded.  Times are calibrated against the machine's
speed of the moment (see calibration.py).  With --trace 1 they are the per-layer self
times and counters of a traced run, and the tracing overhead.  The line
before it holds the machine and library versions and any failures; spans of
a traced run go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import Calibration, normalized_median  # noqa: E402

#: Fresh interpreters whose median gives setup_s.
SETUP_LAUNCHES = 9
PROBE_TIMEOUT_S = 60
#: Time a worker may take beyond --seconds: build, the last pass, oracles.
WORKER_GRACE_S = 120


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "AXIOMETER_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(workload: str, work: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--dir", str(work), *extra]


def setup_reps(workload: str, work: Path, env: dict, calibration: Calibration) -> list:
    """[[start, end, seconds]] from launching an interpreter to its program
    objects being built, for each launch, calibrating before each one."""
    reps = []
    for _ in range(SETUP_LAUNCHES):
        calibration.measure()
        start = time.perf_counter()
        proc = subprocess.run(worker_cmd(workload, work, "--setup-only"), env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        built = float(proc.stdout.strip().splitlines()[-1])
        reps.append([[start, built, built - start]])
    calibration.measure()
    return reps


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "axiometer" / "__init__.py").is_file():
        fail("run from the root of an axiometer checkout (src/axiometer is missing)")
    if not (root / "demo").is_dir():
        fail("demo/ is missing")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    import gen
    from workloads import SPEED_TASK

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env(root)
    try:
        gen.generate(args.workload, args.seed, work)
        calibration = Calibration()
        setup = None if args.trace else setup_reps(args.workload, work, env, calibration)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(results / f"{tag}-spans.jsonl")]
        proc = subprocess.run(worker_cmd(args.workload, work, *extra), env=env,
                              timeout=args.seconds + WORKER_GRACE_S)
        if proc.returncode != 0 or not (work / "result.json").exists():
            fail(f"worker exited with code {proc.returncode}")
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = result["metrics"]
    else:
        task = SPEED_TASK[args.workload]
        reps = {f"{c}_s": r for c, r in result["reps"].items()}
        times, samples = result["calibration"]
        metrics = {name: normalized_median(r, times, samples[task], task) for name, r in reps.items()}
        metrics["setup_s"] = normalized_median(setup, calibration.times, calibration.samples[task], task)
        reps["setup_s"] = setup
        result["raw_s"] = {name: statistics.median(sum(o[2] for o in rep) for rep in r)
                           for name, r in reps.items()}
        result["calibration_s"] = {t: statistics.median(s) for t, s in samples.items()}
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["success_rate"] = 1.0 - result["failed"] / result["attempted"]
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        fail(f"metrics not produced: {sorted(missing)}")
    details = {k: v for k, v in result.items() if k != "metrics"}
    details.update(workload=args.workload, seed=args.seed, metrics=metrics)
    (results / f"{tag}.json").write_text(json.dumps(details, indent=1))
    for line in result["failures"] + [f"missing wrap: {m}" for m in result.get("missing_wraps", [])]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({k: v for k, v in details.items() if k not in ("metrics", "reps", "calibration")}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
