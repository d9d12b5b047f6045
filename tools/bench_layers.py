"""Time exindex layer by layer and write BENCH_<label>.json.

    python3 tools/bench_layers.py --label L

Run from anywhere; the package is imported from the ``src/`` directory of
the checkout that holds this script, so a copy of the script in another
checkout measures that checkout.  Each layer runs 15 times after one warm-up
call, in this one process.  The host's speed drifts by tens of percent over
seconds, so every repeat is bracketed by timings of one of the benchmark's
reference kernels (``perfbench/refkernel.py``, named per layer below) and
scaled as the benchmark scales its calls: ``measured / kernel * REF_S``.
The record holds the median and quartiles of the scaled times in seconds,
and the median raw time.  Layers, each on n = 20 000 and the 81 levels
0.2, 0.21, ..., 1 of the benchmark workloads:

* ``fork_round_trip.rss<M>`` (interpreted kernel): fork this process once
  it holds at least M MB (40 and 110; the imports alone take ~46), have the
  child send an empty result through a pipe as a replicate worker does, and
  reap it.  A run of any model, AR(1) included, holds 36-42 MB; 110 MB is a
  process that has imported ``scipy.signal`` (~104 MB), as every AR(1) run
  did while it generated through ``lfilter``.  These run first, before scipy
  or any layer raises the resident size; the record gives the resident size
  each was taken at.
* ``generate.<model>`` (array): one ``generate`` call per model (AR(1)
  Cauchy, random repetition, moving maxima, iid uniform).
* ``generate_top.mm`` (array): one moving-maxima replicate as ``exindex mc``
  draws it at k = 2000, ``generate(..., top=2001)``: only the innovations
  that can reach the top k + 1 values are inverted.
* ``top_values.mm_top`` (array): ``estimate._top_slice`` at k = 2000 of
  that path, the partition and sort that every curve of the replicate reads
  its thresholds from, plus the pass that locates the values at or above
  them.  How the path fills the values it does not invert (ties or
  distinct stand-ins) sets the partition's speed.
* ``replicate_kernel.<config>`` (interpreted): ``harness._replicates`` over
  samples generated beforehand, so generation is excluded, divided by the
  replicate count: the blocks and corrected curves of every r of one
  replicate, from one ``CurveKernel`` call per group of replicates
  (``sim._GROUP``), which counts each path and runs the float stage once
  for the group.  ``ar1_c6`` is the criterion-6 shape (r in {5, 10, 20},
  k = 2000, two-atom measure), ``ar1_product128`` the same with a 128-atom
  product measure, and ``wn_ties`` random repetition with ties
  (r in {10, 20}, k = 400).
* ``group_kernel.<config>`` (interpreted): the float stage alone, the
  ``CurveKernel`` value stage on the stacked counts of a full group of
  ``sim._GROUP`` replicates (the counts of those samples, repeated),
  divided by the group size.
* ``kernel_replicate.ar1_kernel`` (array): ``clusterproc.estimate_kernel_mc``
  over samples generated beforehand, divided by the replicate count: the
  level sums of f_max and g_count and theta_hat(1) of one replicate, on the
  benchmark's kernel config (AR(1) Cauchy, r = 10, k = 200, the 20 levels
  0.05, 0.1, ..., 1, 200 replicates, rank mode).
* ``kernel_mc.ar1_kernel`` (array): the same call with generation, as a
  user runs it, so across every core the replicate driver uses, divided by
  the replicate count.
* ``sigma2_mu.tail_product8`` (array): ``biascorrect.sigma2_mu`` at
  delta = 1 of the 128-atom ``product_measure(1, 2, 1.5, 8)`` (256 atoms
  once symmetrized, on 29 distinct levels) under the tail-chain kernel of
  AR(1) Cauchy from ``tail_chain_probabilities`` (v = 0.001, K = 50, 100
  paths of n = 100 000, seed 0); ``windows`` gives its window count.
* ``sigma2_mu.ar1_kernel`` (interpreted): ``sigma2_mu`` of the two-atom
  measure under the ``MCGrid`` of the kernel config above, as the
  benchmark's ``ar1_kernel`` workload calls it after ``estimate_kernel_mc``.
* ``kernel_cli.tail`` (array): ``exindex kernel --model ar1_cauchy --phi 0.6
  --v 0.05 --s 0.5 --t 1`` through ``cli.dispatch``, its stdout discarded:
  the tail-chain kernel of 100 paths of n = 10 000 (K = 50, seed 0, the
  command's defaults) and the four numbers it prints.
* ``sweep`` and ``corrected_curve`` (interpreted): one call on one AR(1)
  sample with r = 10, k = 2000 and the two-atom measure, the kernel build
  and the partial sort included.
* ``runs_curve`` (interpreted): the runs curves of one sample at the run
  lengths 5, 10 and 20 of the ``mm_figure`` workload over the grid
  thresholds, one ``estimate._runs_curves`` call for all three.  The
  ``above`` positions of ``estimate._top_slice`` (k = 2000) that it takes
  are found beforehand, as the replicate step has them.
* ``quantile.second_order_pareto`` (array): one ``quantile`` call of the
  moving-maxima innovation law (2, 1, 1, 0.5) on 20 001 uniform draws, as a
  full path makes it: ``exindex simulate --model mm``, or IID and random
  repetition paths with that innovation.
* ``quantile.second_order_pareto_top`` (array): the same call on the 2 003
  largest of those draws (top + q + 1), the innovations that
  ``generate(..., top=2001)`` inverts for each ``exindex mc`` replicate.
* ``oracle.mm_figure`` (interpreted): ``theta_nt_mm_exact`` of that model at
  every r of the ``mm_figure`` workload (5, 10, 20) and v = 2000 / 20 000,
  as one ``summarize`` of that workload calls it.
* ``mc_figure.mm_figure`` (interpreted): ``exindex mc --out --figure1`` on the
  ``mm_figure`` config (run lengths 5, 10, 20, no measure, 10 replicates), as
  a user runs it, divided by the replicate count.
* ``summarize_persist.mm_figure`` (interpreted): what the parent process of
  that command does with its result once the replicates have run:
  ``harness._persist`` with the band files (``summarize``, curves.csv,
  summary.csv, meta.json, the three band files and figure1_meta.json), into
  a temporary directory, per call.
* ``persist.format_rows.<config>`` (interpreted): formatting the curves.csv
  rows of a 50-replicate ``ar1_c6`` or ``wn_ties`` result, divided by the
  replicate count: one ``harness._format_rows`` call per replicate on its
  integer codes, as each replicate formats its own rows.  ``wn_ties`` leaves most values
  undefined, ``ar1_c6`` few.
* ``summarize_persist.<config>`` (interpreted): what the parent process
  still does with that result: ``summarize`` plus writing curves.csv,
  summary.csv and meta.json into a temporary directory, the rows already
  formatted by the replicates.
* ``mc_persist.ar1_c6`` (interpreted): ``exindex mc --out`` on the
  ``ar1_c6`` config with 50 replicates, as a user runs it, so across every
  core the replicate driver uses, divided by the replicate count.
* ``cold_mc.ar1_c6`` (interpreted): the same command in a fresh interpreter
  of this checkout, start to exit, per call: what one run costs a user
  beyond the warm layers, imports included.
* ``cold_import.nocache`` and ``cold_import.cached`` (interpreted): a fresh
  interpreter imports numpy untimed, then times ``from exindex import cli``
  and prints that time, which is the layer's measurement.  Bytecode goes to
  a temporary ``PYTHONPYCACHEPREFIX`` that one untimed run warms, so no
  ``__pycache__`` lands under ``src/``.  ``cached`` reads the package's
  bytecode from it; ``nocache`` runs with ``PYTHONDONTWRITEBYTECODE=1``
  after the package's entries are removed from it, so every start compiles
  ``src/`` while the standard library and numpy stay cached.
* ``cold_import_kernel.nocache`` (interpreted): as ``cold_import.nocache``,
  but the fresh interpreter times ``from exindex import biascorrect,
  clusterproc, estimate, sim``, the imports of the benchmark's kernel
  workload.

The replayed layers pin the replicate driver to this process, so they time
one replicate's work on one core.  ``break_even_replicates`` is the
replicate count of the kernel config at which a second chunk pays for its
fork: 2 * ``fork_round_trip.rss40`` / (``generate.ar1_cauchy`` +
``kernel_replicate.ar1_kernel``), from the scaled medians.  It leaves out
the copy-on-write faults that a fork adds to both processes' later writes.

The output file goes to the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402
from refkernel import REF_S, Reference  # noqa: E402

import exindex as ex  # noqa: E402
from exindex import cli, clusterproc, estimate, harness, sim  # noqa: E402
from exindex.estimate import CurveKernel  # noqa: E402

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
PERSIST_REPLICATES = 50
MM_FIGURE_REPLICATES = 10
RUN_LENGTHS = (5, 10, 20)
AR1_KERNEL = dict(
    model=MODELS["ar1_cauchy"],
    n=N,
    cfg=ex.EstimatorConfig(r=10, k=200),
    grid=np.linspace(0.05, 1.0, 20),
    replicates=200,
    seed=0,
)
TAIL_CHAIN = dict(v=1e-3, K=50, replicates=100, seed=0, n=100_000)
KERNEL_CLI_TAIL = "kernel --model ar1_cauchy --phi 0.6 --v 0.05 --s 0.5 --t 1".split()
REPEATS = 15
COLD_MC = "import sys; from exindex.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))"
COLD_IMPORT = (
    "import time, numpy; start = time.perf_counter(); "
    "from exindex import cli; print(time.perf_counter() - start)"
)
COLD_IMPORT_KERNEL = COLD_IMPORT.replace("cli", "biascorrect, clusterproc, estimate, sim")
FORK_RSS_MB = (40, 110)


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


class Timer:
    """Times layers, each repeat scaled by the reference kernel timed before and after it."""

    def __init__(self):
        self.references = {}  # built on first use: the array kernel imports scipy

    def __call__(self, kind: str, call, per: int = 1) -> dict:
        """Median and quartiles of ``call()``'s scaled wall time over ``REPEATS`` runs, / per."""

        def measure():
            start = time.perf_counter()
            call()
            return (time.perf_counter() - start) / per

        return self.measured(kind, measure)

    def measured(self, kind: str, measure) -> dict:
        """As a call, for a ``measure()`` that returns the seconds it timed itself."""
        if kind not in self.references:
            self.references[kind] = Reference(kind)
        reference = self.references[kind]
        measure()
        raw, scaled = [], []
        before = reference.seconds()
        for _ in range(REPEATS):
            elapsed = measure()
            after = reference.seconds()
            raw.append(elapsed)
            scaled.append(elapsed / (before + after) * 2.0 * REF_S[kind])
            before = after
        q1, median, q3 = statistics.quantiles(scaled, n=4, method="inclusive")
        return {"median_s": median, "q1_s": q1, "q3_s": q3, "raw_median_s": statistics.median(raw),
                "reference": kind, "repeats": REPEATS}


@contextmanager
def replayed(paths):
    """``sim.generate`` replaced by a replay of ``paths``, generated once beforehand.

    Path i answers the draw from ``substream(seed, i)``.  The replicate
    driver is pinned to this process.
    """
    saved = sim.generate, sim._usable_cores
    sim.generate = lambda model, n, seed, **_: paths[seed.spawn_key[0]]
    sim._usable_cores = lambda: 1
    try:
        yield
    finally:
        sim.generate, sim._usable_cores = saved


def group_counts(cfg, paths) -> tuple:
    """``cfg``'s ``CurveKernel`` and the stacked counts of a full group, ``paths`` repeated."""
    kernel = CurveKernel(cfg.k, cfg.t_grid, cfg.measure, cfg.r_list)
    counts = [kernel._sample(x.values)[0] for x in paths]
    tied, hit, in_blocks = zip(*(counts[i % len(counts)] for i in range(sim._GROUP)))
    return kernel, (np.stack(tied), np.stack(hit, axis=1), np.stack(in_blocks, axis=1))


def generated(model, n, seed, replicates):
    return [ex.generate(model, n, ex.substream(seed, i)) for i in range(replicates)]


def resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def fork_round_trip() -> None:
    """Fork, have the child pickle an empty result into a pipe and exit, read it, reap the child."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps((True, [])))
        os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        pickle.loads(pipe.read())
    os.waitpid(pid, 0)


def fork_layers(timed) -> dict:
    out = {}
    ballast = []
    for target in FORK_RSS_MB:
        missing = int((target - resident_mb()) * 2**20) // 8
        if missing > 0:
            ballast.append(np.ones(missing))  # np.ones writes, so every page is resident
        out[f"fork_round_trip.rss{target}"] = dict(
            timed("interpreted", fork_round_trip), rss_mb=round(resident_mb(), 1)
        )
    return out


def layers() -> dict:
    timed = Timer()
    out = fork_layers(timed)
    for name, model in MODELS.items():
        out[f"generate.{name}"] = timed("array", lambda: ex.generate(model, N, 0))
    out["generate_top.mm"] = timed("array", lambda: ex.generate(MODELS["mm"], N, 0, top=2001))
    x = ex.generate(MODELS["mm"], N, 0, top=2001).values
    out["top_values.mm_top"] = timed("array", lambda: estimate._top_slice(x, 2000))

    for name, fields in KERNEL_CONFIGS.items():
        cfg = harness.ExperimentConfig(
            n=N, t_grid=GRID, replicates=KERNEL_REPLICATES, **fields
        )
        paths = generated(cfg.model, cfg.n, cfg.base_seed, cfg.replicates)
        with replayed(paths):
            out[f"replicate_kernel.{name}"] = timed(
                "interpreted", lambda: harness._replicates(cfg), per=KERNEL_REPLICATES
            )
        kernel, counts = group_counts(cfg, paths)
        out[f"group_kernel.{name}"] = timed(
            "interpreted", lambda: kernel._rows(*counts), per=sim._GROUP
        )

    kernel = AR1_KERNEL
    paths = generated(kernel["model"], kernel["n"], kernel["seed"], kernel["replicates"])
    with replayed(paths):
        out["kernel_replicate.ar1_kernel"] = timed(
            "array", lambda: clusterproc.estimate_kernel_mc(**kernel), per=kernel["replicates"]
        )
    del paths
    out["kernel_mc.ar1_kernel"] = timed(
        "array", lambda: clusterproc.estimate_kernel_mc(**kernel), per=kernel["replicates"]
    )

    out.update(sigma2_layers(timed))
    out["kernel_cli.tail"] = timed("array", lambda: run_cli(KERNEL_CLI_TAIL))

    x = ex.generate(MODELS["ar1_cauchy"], N, 0).values
    est = ex.EstimatorConfig(r=10, k=2000)
    out["sweep"] = timed("interpreted", lambda: ex.sweep(x, est, GRID))
    out["corrected_curve"] = timed(
        "interpreted", lambda: ex.corrected_curve(x, est, TWO_ATOM, GRID)
    )
    thresholds = np.sort(x)[N - ex.count_at(est.k, np.asarray(GRID)) - 1]
    above = estimate._top_slice(x, est.k)[1]
    out["runs_curve"] = timed(
        "interpreted", lambda: estimate._runs_curves(x, above, RUN_LENGTHS, thresholds)
    )

    out.update(mm_figure_layers(timed))
    out.update(persist_layers(timed))
    out.update(cold_import_layers(timed))
    return out


def sigma2_layers(timed) -> dict:
    """``sigma2_mu.tail_product8`` and ``sigma2_mu.ar1_kernel``."""
    tail = clusterproc.tail_chain_probabilities(MODELS["ar1_cauchy"], **TAIL_CHAIN)
    product8 = ex.product_measure(1.0, 2.0, 1.5, 8)
    grid_kernel = clusterproc.estimate_kernel_mc(**AR1_KERNEL)
    return {
        "sigma2_mu.tail_product8": dict(
            timed("array", lambda: ex.sigma2_mu(product8, 1.0, tail)), windows=len(tail.windows)
        ),
        "sigma2_mu.ar1_kernel": timed(
            "interpreted", lambda: ex.sigma2_mu(TWO_ATOM, 1.0, grid_kernel)
        ),
    }


def mm_figure_layers(timed) -> dict:
    """``quantile.second_order_pareto[_top]``, ``oracle.mm_figure`` and ``mc_figure.mm_figure``."""
    mm = MODELS["mm"]
    draws = np.random.Generator(np.random.Philox(0)).random(N + mm.q)  # no zero among them
    skip = len(draws) - (2001 + mm.q + 1)  # the draws MovingMaxima.sample_top leaves uninverted
    top = draws[np.argpartition(draws, skip)[skip:]]
    out = {
        "quantile.second_order_pareto": timed("array", lambda: mm.innovation.quantile(draws)),
        "quantile.second_order_pareto_top": timed("array", lambda: mm.innovation.quantile(top)),
    }
    cfg = harness.ExperimentConfig(
        model=mm, n=N, r_list=(5, 10, 20), k=2000, t_grid=GRID, measure=None,
        replicates=MM_FIGURE_REPLICATES, run_lengths=RUN_LENGTHS,
    )
    out["oracle.mm_figure"] = timed(
        "interpreted", lambda: ex.theta_nt_mm_exact(mm, cfg.r_list, cfg.k / cfg.n, GRID)
    )
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "mm_figure.json")
        with open(config_path, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        argv = ["mc", "--config", config_path, "--out", os.path.join(tmp, "mc"), "--figure1"]
        out["mc_figure.mm_figure"] = timed(
            "interpreted", lambda: run_cli(argv), per=cfg.replicates
        )
        persist_cfg = dataclasses.replace(cfg, out_dir=os.path.join(tmp, "persist"))
        out["summarize_persist.mm_figure"] = figure_persist_layer(timed, persist_cfg)
    return out


def figure_persist_layer(timed, cfg) -> dict:
    """``summarize_persist.mm_figure``: every file ``_persist`` writes of ``cfg``'s replicates."""
    result, rows, flags = harness._replicates(cfg, cfg.run_lengths)
    return timed("interpreted", lambda: harness._persist(result, rows, flags, bands=True))


def run_cli(argv) -> None:
    """An ``exindex`` command through ``cli.dispatch``, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.dispatch(argv) != 0:
            raise RuntimeError(f"exindex {argv[0]} failed")


def persist_layers(timed) -> dict:
    """``persist.format_rows.*``, ``summarize_persist.*`` and ``mc_persist.ar1_c6``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("ar1_c6", "wn_ties"):
            cfg = harness.ExperimentConfig(
                n=N, t_grid=GRID, replicates=PERSIST_REPLICATES,
                out_dir=os.path.join(tmp, name), **KERNEL_CONFIGS[name],
            )
            out.update(
                {f"{layer}.{name}": stats for layer, stats in persist_result_layers(timed, cfg)}
            )

        cfg = harness.ExperimentConfig(
            n=N, t_grid=GRID, replicates=PERSIST_REPLICATES, **KERNEL_CONFIGS["ar1_c6"]
        )
        config_path = os.path.join(tmp, "ar1_c6.json")
        with open(config_path, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        argv = ["mc", "--config", config_path, "--out", os.path.join(tmp, "mc")]
        out["mc_persist.ar1_c6"] = timed(
            "interpreted", lambda: run_cli(argv), per=cfg.replicates
        )
        out["cold_mc.ar1_c6"] = timed("interpreted", lambda: run_cold_mc(argv))
    return out


def persist_result_layers(timed, cfg) -> list:
    """``[("persist.format_rows", stats), ("summarize_persist", stats)]`` of ``cfg``'s result."""
    result, rows, flags = harness._replicates(cfg)
    coded = [entry for entry in result.curves if entry.codes is not None]
    templates = harness._row_templates([(entry.kind, entry.keys) for entry in coded], cfg.t_grid)
    # each replicate's (rows x grid) values and codes, the rows in table order, as views of
    # its group's (rows x replicates x grid) kernel arrays
    values, codes = (
        np.concatenate(arrays).swapaxes(0, 1)
        for arrays in zip(*((entry.values, entry.codes) for entry in coded))
    )
    inputs = list(zip(values, codes))

    def format_rows():
        for rep, (values, codes) in enumerate(inputs):
            harness._format_rows(templates, rep, values, codes)

    return [
        ("persist.format_rows", timed("interpreted", format_rows, per=cfg.replicates)),
        ("summarize_persist", timed("interpreted", lambda: harness._persist(result, rows, flags))),
    ]


def checkout_env(**overrides) -> dict:
    """This process's environment with ``src/`` first on ``PYTHONPATH``, then ``overrides``."""
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **overrides)


def run_cold_mc(argv) -> None:
    """``exindex mc`` in a fresh interpreter that imports this checkout's package."""
    subprocess.run([sys.executable, "-c", COLD_MC, *argv], env=checkout_env(), check=True,
                   stdout=subprocess.DEVNULL)


def cold_import_layers(timed) -> dict:
    """The ``cold_import`` and ``cold_import_kernel`` layers (see the module docstring)."""
    with tempfile.TemporaryDirectory() as prefix:
        env = {k: v for k, v in checkout_env(PYTHONPYCACHEPREFIX=prefix).items()
               if k != "PYTHONDONTWRITEBYTECODE"}

        def cold_import(script=COLD_IMPORT):
            done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  stdout=subprocess.PIPE, text=True)
            return float(done.stdout)

        out = {"cold_import.cached": timed.measured("interpreted", cold_import)}
        # the prefix mirrors each source directory's absolute path
        shutil.rmtree(os.path.join(prefix, os.path.join(ROOT, "src").lstrip(os.sep)))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        out["cold_import.nocache"] = timed.measured("interpreted", cold_import)
        out["cold_import_kernel.nocache"] = timed.measured(
            "interpreted", lambda: cold_import(COLD_IMPORT_KERNEL)
        )
    return out


def break_even_replicates(out: dict) -> float:
    per_replicate = (
        out["generate.ar1_cauchy"]["median_s"] + out["kernel_replicate.ar1_kernel"]["median_s"]
    )
    return 2.0 * out[f"fork_round_trip.rss{FORK_RSS_MB[0]}"]["median_s"] / per_replicate


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
    record["break_even_replicates"] = break_even_replicates(record["layers"])
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, stats in record["layers"].items():
        print(f"{name:32s} {1e3 * stats['median_s']:9.3f} ms")
    print(f"{'break_even_replicates':32s} {record['break_even_replicates']:9.1f}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
