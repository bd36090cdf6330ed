"""Run one workload in a fresh interpreter and write its measurements.

Started by run.py, never by hand:

    worker.py --workload W --dir WORK [--setup-only] [--seconds S --trace T --spans FILE]

With --setup-only it imports the program, builds the workload's program
objects and prints the monotonic clock; run.py times that from the launch.
Otherwise it runs the closed loop: one operation at a time, passes over the
six commands until the time is up, checking every output.  With --trace 1
every operation runs twice in a row, untraced then traced; the untraced runs
give the overhead base, the traced ones the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import Calibration  # noqa: E402

#: A command whose operations take less than CHEAP_S gets extra repetitions,
#: interleaved with the other commands' operations across the whole run,
#: until it has had CHEAP_SHARE of the loop's time: its median then rests on
#: many samples taken at many moments.
CHEAP_S = 0.1
CHEAP_SHARE = 0.04
MAX_SELF_SUM_ERROR_S = 1e-6
CALIBRATIONS_AT_START = 5
#: The machine's speed is sampled after any operation that ends this long
#: after the previous sample.
CALIBRATION_INTERVAL_S = 0.25


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(axiometer) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "AXIOMETER_THREADS": os.environ.get("AXIOMETER_THREADS", "unset"),
        "backend": getattr(axiometer, "BACKEND", "unknown"),
        "axiometer": str(Path(axiometer.__file__).parent),
    }


class Runner:
    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.op_id = 0

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def execute(self, command: str, op) -> float:
        """Run and check one operation; return its untraced wall time."""
        wall = self._once(command, op, traced=False)
        if self.tracer is not None:
            self.untraced_s += wall
            self.traced_s += self._once(command, op, traced=True)
        return wall

    def _once(self, command, op, traced: bool) -> float:
        self.attempted += 1
        self.op_id += 1
        start = time.perf_counter()
        try:
            if traced:
                out, wall = self.tracer.run_op(self.op_id, command, op.fn)
            else:
                out = op.fn()
                wall = time.perf_counter() - start
        except Exception as exc:  # the operation failed: count it and go on
            self.fail(f"{command} {op.name}", exc)
            return time.perf_counter() - start
        if traced and op.cli:
            self.output_bytes += len(out[1].encode()) + (
                os.path.getsize(op.out_path) if op.out_path and os.path.exists(op.out_path) else 0)
        try:
            op.check(out)
        except Exception as exc:  # a wrong output, or one the check cannot read
            self.fail(f"{command} {op.name}", exc)
        return wall


class Loop:
    """The closed loop: passes over the commands until the time is up.

    Each repetition of a command is recorded as the list of its operations'
    [start, end, seconds] (untraced), for calibration per operation."""

    def __init__(self, groups: dict, runner: Runner, commands):
        self.groups, self.runner, self.commands = groups, runner, commands
        self.reps = {c: [] for c in commands}
        self.spent = dict.fromkeys(commands, 0.0)
        self.cheap: list[str] = []
        self.calibration = Calibration()
        self.start = 0.0

    def rep(self, command: str, fill: bool) -> None:
        ops = []
        for op in self.groups[command]:
            start = time.perf_counter()
            wall = self.runner.execute(command, op)
            ops.append([start, start + wall, wall])
            if time.perf_counter() - self.calibration.last >= CALIBRATION_INTERVAL_S:
                self.calibration.measure()
            if fill:
                self.fill()
        self.reps[command].append(ops)
        self.spent[command] += sum(o[2] for o in ops)
        if fill and len(self.reps[command]) == 1 and all(o[2] < CHEAP_S for o in ops):
            self.cheap.append(command)

    def fill(self) -> None:
        """Extra repetitions of cheap commands that are behind their share."""
        for command in self.cheap:
            while self.spent[command] < CHEAP_SHARE * (time.perf_counter() - self.start):
                self.rep(command, fill=False)

    def run(self, seconds: float) -> int:
        for _ in range(CALIBRATIONS_AT_START):
            self.calibration.measure()
        self.start = time.perf_counter()
        deadline = self.start + seconds
        passes = 0
        while True:
            pass_start = time.perf_counter()
            for command in self.commands:
                self.rep(command, fill=self.runner.tracer is None)
            passes += 1
            now = time.perf_counter()
            if now + (now - pass_start) > deadline:
                return passes


def layer_metrics(tracer, runner: Runner, passes: int, commands) -> dict:
    """Per-pass layer numbers from the traced operations."""
    from tracer import WRAPS

    s, n = tracer.self_s, tracer.counts
    per = lambda x: x / passes  # noqa: E731
    m = {
        "lattice.transform_calls": per(n["lattice.transform_calls"]),
        "lattice.transform_gbps": (n["lattice.transform_bytes"] / s["lattice.transform"] / 1e9
                                   if s["lattice.transform"] else 0.0),
        "collections.is_member_calls": per(n["collections.is_member_calls"]),
        "performance.evaluate_calls": per(n["performance.evaluate_calls"]),
        "robustness.family_values_calls": per(n["robustness.family_values_calls"]),
        "preferences.rankings_sampled": per(n["preferences.rankings_sampled"]),
        "axioms.profiles_evaluated": per(n["axioms.profiles_evaluated"]),
        "axioms.related_pair_ratio": (n["axioms.related_pairs"] / n["axioms.pairs"]
                                      if n["axioms.pairs"] else 0.0),
        "cli.output_bytes": per(runner.output_bytes),
        "bench.self_s": per(s["bench.op"]),
        "estimate.self_s": per(s["estimate"]),
        "trace.counter_s": per(s["trace.counter"]),
        "trace.overhead_ms_per_op": 1e3 * (runner.traced_s - runner.untraced_s) / (runner.op_id / 2),
        "trace.overhead_share": runner.traced_s / runner.untraced_s - 1.0,
        "trace.missing_wraps": len(tracer.missing),
        "trace.self_sum_error_s": tracer.max_self_sum_error,
        "trace.spans_per_pass": per(len(tracer.spans)),
    }
    spans = {span for _, _, span in WRAPS if "{" not in span} - {"estimate"}
    for span in spans:
        m[f"{span}_s"] = per(s[span])
    for command in commands:
        m[f"cli.{command}.self_s"] = per(s[f"cli.{command}"])
    # a layer whose every wrapped name is gone reads -1, not a silent 0
    resolved = {span for modname, path, span in WRAPS if f"{modname}.{path}" not in tracer.missing}
    for span in {span for _, _, span in WRAPS} - resolved:
        for key in [k for k in m if k.startswith(span.split("{")[0])]:
            m[key] = -1.0
    return m


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    import workloads

    spec = json.loads((args.dir / "spec.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    state = workload.build(spec, args.dir)
    if args.setup_only:
        print(repr(time.perf_counter()))
        return

    import simrefs
    from tracer import Tracer

    src = (Path.cwd() / "src").resolve()
    if src not in Path(state.A.__file__).resolve().parents:
        raise SystemExit(f"imported axiometer from {state.A.__file__}, not from {src}")
    groups = workload.groups(state, simrefs.load())
    commands = workloads.COMMANDS
    tracer = Tracer() if args.trace else None
    runner = Runner(tracer)
    t0 = time.perf_counter()
    loop = Loop(groups, runner, commands)
    passes = loop.run(args.seconds)
    reps, calibration = loop.reps, loop.calibration
    loop_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, check in workload.oracles(state):
        runner.attempted += 1
        try:
            check()
        except Exception as exc:  # a failed identity or oracle check
            runner.fail(f"oracle {name}", exc)
    result = {
        "env": environment(state.A),
        "passes": passes,
        "loop_s": loop_s,
        "samples": {c: len(v) for c, v in reps.items()},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
    }
    if tracer is None:
        result["reps"] = reps
        result["calibration"] = [calibration.times, calibration.samples]
        result["peak_rss_mb"] = peak_rss_mb
    else:
        runner.attempted += 1
        if tracer.max_self_sum_error > MAX_SELF_SUM_ERROR_S:
            runner.fail("trace", ValueError(f"self times miss wall time by {tracer.max_self_sum_error}"))
        result["attempted"], result["failed"] = runner.attempted, runner.failed
        result["missing_wraps"] = tracer.missing
        result["metrics"] = layer_metrics(tracer, runner, passes, commands)
        if args.spans:
            tracer.write(args.spans, t0)
    (args.dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(3)
