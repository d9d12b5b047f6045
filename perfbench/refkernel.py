"""Fixed reference kernels that tell how fast the host runs at the moment.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds to minutes.  Every timed workload call is bracketed by
timings of a reference kernel, and the times the benchmark reports are
``call / kernel * REF_S[kind]``: the call's time on a host that runs the
kernel in ``REF_S[kind]`` seconds.  The kernels do not touch exindex, so a
change to the package moves the call time and leaves the kernel time alone.

The host's drift slows interpreted code and whole-array numpy code by
different amounts, so there are two kernels and each workload names the one
whose work is most like its own:

* ``interpreted``: many small numpy calls and a plain Python loop, plus a sort
  and a search of a 20 000-value sample.  Like the curve sweeps of
  ``exindex mc``, which loop over thresholds in Python.
* ``array``: simulate a 20 000-value AR(1) Cauchy path, rank it, cut it into
  blocks and reduce the blocks at a few levels.  Like the Monte Carlo kernel,
  which works on whole arrays.

The inputs are fixed and independent of the benchmark seed.  numpy and scipy
are imported on first use, so that importing this module does not shorten
the set-up timing of a fresh interpreter.
"""

from __future__ import annotations

import time
from statistics import median

# Nominal kernel times: typical ``Reference(kind).seconds()`` on a 2-vCPU
# Intel Xeon VM (they range over about 0.6x to 1.2x of these there as the
# host's load changes).  Reported times are scaled to them.
REF_S = {"interpreted": 0.008, "array": 0.015}

_REPEATS = 5  # one timing is the median of this many kernel runs


class Reference:
    def __init__(self, kind: str):
        import numpy as np

        if kind not in REF_S:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.kind = kind
        self._np = np
        rng = np.random.default_rng(20110705)
        self._x = rng.random(20_000)
        self._probe = rng.random(64)
        self._once = self._interpreted if kind == "interpreted" else self._array
        self._once()  # warm-up: the first run in a fresh interpreter is often slow

    def _interpreted(self) -> None:
        np = self._np
        x, probe = self._x, self._probe
        for _ in range(4):
            ordered = np.sort(x)
            np.searchsorted(ordered, probe)
            np.cumsum(x)
            int((x > 0.5).sum())
            for _ in range(300):
                float(np.sum(probe[:10]))
            total = 0
            for i in range(10_000):
                total += i

    def _array(self) -> None:
        from scipy.signal import lfilter

        np = self._np
        n = self._x.size
        for _ in range(3):
            noise = np.random.default_rng(7).standard_cauchy(n)
            path = lfilter([1.0], [1.0, -0.6], noise)
            ranks = np.empty(n)
            ranks[np.argsort(path, kind="stable")] = np.arange(1, n + 1)
            blocks = np.clip((ranks / n - 0.9) / 0.1, 0.0, None).reshape(-1, 10)
            for level in np.linspace(0.0, 0.95, 10):
                int((blocks.max(axis=1) > level).sum())
                int(np.count_nonzero(blocks > level, axis=1).sum())

    def seconds(self) -> float:
        """Median time of a few kernel runs, in seconds."""
        times = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t0)
        return median(times)
