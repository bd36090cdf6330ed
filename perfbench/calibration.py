"""Machine-speed calibration, so that times from a shared machine compare.

The machine this benchmark runs on is shared: over a few seconds its speed
drifts by 10-25 %, which is more than the bounds the benchmark sets.  Two
fixed tasks of the benchmark's own are therefore timed between operations:
"numpy", memory-bound sweeps over 4 MB, and "python", parsing a 0.3 MB JSON
document of subset keys into a dict ("both" is their sum).  Contention slows
the two kinds of work by different amounts, so each workload is calibrated
with the task like its own work (workloads.SPEED_TASK).  Each operation's
time is divided by the median task time of the seconds around it and
multiplied by the task's REFERENCE_S: the result reads as seconds at the
reference speed.  The raw seconds are reported beside it.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

#: Median time of each task on the machine the benchmark was defined on
#: (2 vCPU, Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4).
REFERENCE_S = {"numpy": 0.013, "python": 0.011, "both": 0.024}
#: Calibrations within this many seconds of an operation, or within the
#: operation's own duration if longer, count as its speed.
WINDOW_S = 1.0
MIN_NEIGHBOURS = 3


class Calibration:
    def __init__(self):
        self.base = np.random.default_rng(0).random(1 << 19)
        self.x = np.empty_like(self.base)
        self.text = json.dumps({f"a{i % 97}+a{i}+b{i // 7}": i / 7.0 for i in range(8000)})
        self.times: list[float] = []
        self.samples: dict[str, list[float]] = {task: [] for task in REFERENCE_S}

    def measure(self) -> None:
        start = time.perf_counter()
        np.copyto(self.x, self.base)
        for b in range(19):
            v = self.x.reshape(-1, 2, 1 << b)
            v[:, 0, :] += v[:, 1, :]
        middle = time.perf_counter()
        doc = json.loads(self.text)
        len({tuple(k.split("+")): v for k, v in doc.items()})
        end = time.perf_counter()
        self.times.append(end)
        self.samples["numpy"].append(middle - start)
        self.samples["python"].append(end - middle)
        self.samples["both"].append(end - start)

    @property
    def last(self) -> float:
        return self.times[-1] if self.times else 0.0


def local_speed(times, samples, start: float, end: float) -> float:
    """Median calibration near [start, end] (at least the MIN_NEIGHBOURS
    nearest ones)."""
    window = max(WINDOW_S, end - start)
    i = bisect.bisect_left(times, start - window)
    j = bisect.bisect_right(times, end + window)
    if j - i < MIN_NEIGHBOURS:
        mid = (start + end) / 2
        nearest = sorted(range(len(times)), key=lambda k: abs(times[k] - mid))[:MIN_NEIGHBOURS]
        return statistics.median(samples[k] for k in nearest)
    return statistics.median(samples[i:j])


def normalized_median(reps, times, samples, task: str) -> float:
    """Median over repetitions of the calibrated seconds; a repetition is a
    list of operations [start, end, seconds], each calibrated on its own
    against ``samples`` of ``task``."""
    return REFERENCE_S[task] * statistics.median(
        sum(s / local_speed(times, samples, t0, t1) for t0, t1, s in rep) for rep in reps
    )
