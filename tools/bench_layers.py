"""Time exindex layer by layer and write BENCH_<label>.json.

    python3 tools/bench_layers.py --label L

Run from anywhere; the package is imported from the ``src/`` directory of
the checkout that holds this script, so a copy of the script in another
checkout measures that checkout.  Each layer runs 15 times after one warm-up
call, in this one process, and the record holds the median and quartiles of
its wall time in seconds.  Layers, each on n = 20 000 and the 81 levels
0.2, 0.21, ..., 1 of the benchmark workloads:

* ``generate.<model>``: one ``generate`` call per model (AR(1) Cauchy, random
  repetition, moving maxima, iid uniform).
* ``replicate_kernel.<config>``: ``harness._replicates`` over samples
  generated beforehand, so generation is excluded, divided by the replicate
  count: the blocks and corrected curves of every r of one replicate.
  ``ar1_c6`` is the criterion-6 shape (r in {5, 10, 20}, k = 2000, two-atom
  measure), ``ar1_product128`` the same with a 128-atom product measure, and
  ``wn_ties`` random repetition with ties (r in {10, 20}, k = 400).
* ``kernel_replicate.ar1_kernel``: ``clusterproc.estimate_kernel_mc`` over
  samples generated beforehand, divided by the replicate count: the level
  sums of f_max and g_count and theta_hat(1) of one replicate, on the
  benchmark's kernel config (AR(1) Cauchy, r = 10, k = 200, the 20 levels
  0.05, 0.1, ..., 1, 200 replicates, rank mode).
* ``sweep`` and ``corrected_curve``: one call on one AR(1) sample with
  r = 10, k = 2000 and the two-atom measure, evaluator build included.
* ``runs_curve``: the runs curve of one sample at run length 10 over the
  grid thresholds.
* ``summarize_persist``: ``summarize`` plus writing curves.csv, summary.csv
  and meta.json of a 50-replicate ``ar1_c6`` result into a temporary
  directory.

The output file goes to the current directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import exindex as ex  # noqa: E402
from exindex import clusterproc, harness, sim  # noqa: E402

N = 20_000
GRID = tuple(np.linspace(0.2, 1.0, 81))
TWO_ATOM = ex.two_atom_measure(0.5, 1.0, 2.0)
MODELS = {
    "ar1_cauchy": ex.AR1Cauchy(phi=0.6),
    "wn": ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()),
    "mm": ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2.0, beta2=1.0, c1=1.0, c2=0.5),
    "iid": ex.IID(innovation=ex.Uniform01()),
}
KERNEL_CONFIGS = {
    "ar1_c6": dict(model=MODELS["ar1_cauchy"], r_list=(5, 10, 20), k=2000, measure=TWO_ATOM),
    "ar1_product128": dict(
        model=MODELS["ar1_cauchy"],
        r_list=(5, 10, 20),
        k=2000,
        measure=ex.product_measure(1.0, 2.0, 1.5, 8),
    ),
    "wn_ties": dict(model=MODELS["wn"], r_list=(10, 20), k=400, measure=TWO_ATOM),
}
KERNEL_REPLICATES = 20
AR1_KERNEL = dict(
    model=MODELS["ar1_cauchy"],
    n=N,
    cfg=ex.EstimatorConfig(r=10, k=200),
    grid=np.linspace(0.05, 1.0, 20),
    replicates=200,
    seed=0,
)
REPEATS = 15


def environment() -> dict:
    """Interpreter, numpy, cores and CPU model of this run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def timed(call, per: int = 1) -> dict:
    """Median and quartiles of ``call()``'s wall time over ``REPEATS`` runs, divided by ``per``."""
    call()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) / per)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "repeats": REPEATS}


@contextmanager
def replayed(owner, paths):
    """``owner.replicate_paths`` replaced by a replay of ``paths``, generated once beforehand."""
    original = owner.replicate_paths
    owner.replicate_paths = lambda *args: iter(paths)
    try:
        yield
    finally:
        owner.replicate_paths = original


def layers() -> dict:
    out = {}
    for name, model in MODELS.items():
        out[f"generate.{name}"] = timed(lambda: ex.generate(model, N, 0))

    for name, fields in KERNEL_CONFIGS.items():
        cfg = harness.ExperimentConfig(
            n=N, t_grid=GRID, replicates=KERNEL_REPLICATES, **fields
        )
        paths = list(
            harness.replicate_paths(cfg.model, cfg.n, cfg.base_seed, cfg.replicates, cfg.burn_in)
        )
        with replayed(harness, paths):
            out[f"replicate_kernel.{name}"] = timed(
                lambda: harness._replicates(cfg), per=KERNEL_REPLICATES
            )

    kernel = AR1_KERNEL
    paths = list(
        sim.replicate_paths(kernel["model"], kernel["n"], kernel["seed"], kernel["replicates"])
    )
    with replayed(sim, paths):
        out["kernel_replicate.ar1_kernel"] = timed(
            lambda: clusterproc.estimate_kernel_mc(**kernel), per=kernel["replicates"]
        )

    x = ex.generate(MODELS["ar1_cauchy"], N, 0).values
    est = ex.EstimatorConfig(r=10, k=2000)
    out["sweep"] = timed(lambda: ex.sweep(x, est, GRID))
    out["corrected_curve"] = timed(lambda: ex.corrected_curve(x, est, TWO_ATOM, GRID))
    thresholds = np.sort(x)[N - ex.count_at(est.k, np.asarray(GRID)) - 1]
    out["runs_curve"] = timed(lambda: harness._runs_curve_values(x, 10, thresholds))

    cfg = harness.ExperimentConfig(
        n=N, t_grid=GRID, replicates=50, **KERNEL_CONFIGS["ar1_c6"]
    )
    result, _ = harness._replicates(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        result = dataclasses.replace(
            result, config=dataclasses.replace(cfg, out_dir=os.path.join(tmp, "out"))
        )
        out["summarize_persist"] = timed(lambda: harness._persist(result))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)
    record = {
        "label": args.label,
        "environment": environment(),
        "unit": "s",
        "n": N,
        "levels": len(GRID),
        "layers": layers(),
    }
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, stats in record["layers"].items():
        print(f"{name:32s} {1e3 * stats['median_s']:9.3f} ms")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
