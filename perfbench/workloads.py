"""The four benchmark workloads: their inputs, the call that is timed, and its outputs.

Every workload runs at n = 20 000 and, where it sweeps, on 81 levels from 0.2
to 1.  The replicate count sets how long one call takes.  Each workload takes
the benchmark seed as its experiment's ``base_seed``; the package sees only
the config.

* ``ar1_c6``: the criterion-6 experiment (AR(1) Cauchy, phi = 0.6, r in
  {5, 10, 20}, k = 2000, two-atom measure, outputs persisted) through
  ``exindex mc``.  Time goes to the corrected curve, the raw sweep and
  persistence; the oracle is idle because AR(1) has no closed form.
* ``wn_ties``: random repetition with uniform innovations (psi = 0.6, r in
  {10, 20}, k = 400), same measure and persistence.  Tied values make most
  points skip with a code, so it weights the skip and error path that
  ``ar1_c6`` barely touches.
* ``mm_figure``: moving maxima through ``exindex mc --figure1`` with no
  measure.  Generation (twice per replicate), the exact oracle and the runs
  curves do the work; the bias correction is bypassed.
* ``ar1_kernel``: ``estimate_kernel_mc`` then ``sigma2_mu``.  The only
  workload that runs ``clusterproc``; sweeps, correction and persistence are
  idle.

This module uses the standard library only, so the set-up timing that imports
``exindex`` starts from a clean interpreter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os

GRID = {"lo": 0.2, "hi": 1.0, "count": 81}
TWO_ATOM = {"kind": "two_atom", "p": 0.5, "q": 1.0, "a": 2.0, "delta": 1.0}


@dataclasses.dataclass(frozen=True)
class McWorkload:
    """``exindex mc --config <file> --out <dir> [--figure1]`` through ``cli.dispatch``."""

    name: str
    why: str
    model: dict
    r_list: tuple
    k: int
    replicates: int
    measure: dict = None
    run_lengths: tuple = None
    figure1: bool = False
    n: int = 20_000
    reference: str = "interpreted"  # refkernel.py: its sweeps loop in Python
    t_grid: object = dataclasses.field(default_factory=lambda: dict(GRID))

    def config(self, seed: int) -> dict:
        cfg = {
            "model": self.model,
            "n": self.n,
            "r_list": list(self.r_list),
            "k": self.k,
            "t_grid": self.t_grid,
            "measure": self.measure,
            "replicates": self.replicates,
            "base_seed": seed,
        }
        if self.run_lengths:
            cfg["run_lengths"] = list(self.run_lengths)
        return cfg

    def write_inputs(self, workdir: str, seed: int) -> None:
        with open(os.path.join(workdir, "config.json"), "w") as fh:
            json.dump(self.config(seed), fh, indent=2)

    def setup(self, workdir: str, seed: int, tag: str = "out"):
        """Import the package and parse the config, as a user's first call would.

        The output directory is passed relative to ``workdir`` (the caller's
        working directory), so the bytes written do not depend on where the
        checkout lives.
        """
        from exindex import cli
        from exindex.harness import ExperimentConfig

        config = ExperimentConfig.from_json(os.path.join(workdir, "config.json"))
        argv = ["mc", "--config", "config.json", "--out", tag]
        if self.figure1:
            argv.append("--figure1")
        return {"cli": cli, "argv": argv, "config": config, "out": os.path.join(workdir, tag)}

    def call(self, state):
        with contextlib.redirect_stdout(io.StringIO()):
            code = state["cli"].dispatch(state["argv"])
        if code != 0:
            raise RuntimeError(f"exindex mc exited with {code}")

    def snapshot(self, state) -> dict:
        """The persisted files, name -> bytes."""
        out = state["out"]
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        return files


@dataclasses.dataclass(frozen=True)
class KernelWorkload:
    """``estimate_kernel_mc`` on AR(1) Cauchy, then ``sigma2_mu`` of a two-atom measure."""

    name: str
    why: str
    phi: float
    r: int
    k: int
    grid: tuple  # (lo, hi, count) for numpy.linspace
    replicates: int
    measure: tuple  # two-atom (p, q, a)
    delta: float = 1.0
    n: int = 20_000
    reference: str = "array"  # refkernel.py: it works on whole arrays

    @property
    def r_list(self):
        return (self.r,)

    def write_inputs(self, workdir: str, seed: int) -> None:
        pass

    def setup(self, workdir: str, seed: int, tag: str = "out"):
        """Import the package and build the model, estimator config, grid and measure."""
        import numpy as np

        from exindex import biascorrect, clusterproc, estimate, sim

        return {
            "clusterproc": clusterproc,
            "biascorrect": biascorrect,
            "model": sim.AR1Cauchy(phi=self.phi),
            "est": estimate.EstimatorConfig(r=self.r, k=self.k),
            "grid": np.linspace(*self.grid),
            "mu": biascorrect.two_atom_measure(*self.measure),
            "seed": seed,
            "result": None,
        }

    def call(self, state):
        kernel = state["clusterproc"].estimate_kernel_mc(
            state["model"], self.n, state["est"], state["grid"], self.replicates,
            state["seed"],
        )
        sigma2 = state["biascorrect"].sigma2_mu(state["mu"], self.delta, kernel)
        state["result"] = (kernel, float(sigma2))

    def snapshot(self, state) -> dict:
        """Kernel values at every grid pair, its theta, and sigma^2."""
        kernel, sigma2 = state["result"]
        grid = [float(t) for t in state["grid"]]
        return {
            "c": [[kernel.c(s, t) for t in grid] for s in grid],
            "c_g": [[kernel.c_g(s, t) for t in grid] for s in grid],
            "c_fg": [[kernel.c_fg(s, t) for t in grid] for s in grid],
            "theta": float(kernel.theta),
            "sigma2": sigma2,
        }


WORKLOADS = {
    w.name: w
    for w in (
        McWorkload(
            name="ar1_c6",
            why="criterion-6 figure experiment: corrected curve, raw sweep and "
            "persistence dominate; oracle idle",
            model={"name": "ar1_cauchy", "phi": 0.6},
            r_list=(5, 10, 20),
            k=2000,
            measure=TWO_ATOM,
            replicates=50,
        ),
        McWorkload(
            name="wn_ties",
            why="random repetition with ties: most points skip with a code, so "
            "the skip and error path does the work",
            model={"name": "wn", "psi": 0.6, "innovation": "uniform"},
            r_list=(10, 20),
            k=400,
            measure=TWO_ATOM,
            replicates=100,
        ),
        McWorkload(
            name="mm_figure",
            why="moving-maxima figure bundle: generation twice per replicate, "
            "exact oracle and runs curves; bias correction bypassed",
            model={
                "name": "mm", "coeffs": [1.0, 0.5], "beta1": 2.0, "beta2": 1.0,
                "c1": 1.0, "c2": 0.5,
            },
            r_list=(5, 10, 20),
            run_lengths=(5, 10, 20),
            k=2000,
            replicates=10,
            figure1=True,
        ),
        KernelWorkload(
            name="ar1_kernel",
            why="Monte Carlo covariance kernel and sigma^2: the only workload "
            "in clusterproc; sweeps, correction and persistence idle",
            phi=0.6,
            r=10,
            k=200,
            grid=(0.05, 1.0, 20),
            replicates=200,
            measure=(0.5, 1.0, 2.0),
        ),
    )
}
