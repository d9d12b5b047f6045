"""The benchmark under ``perfbench/`` finds every package binding it traces and parses its configs.

The traced benchmark replaces functions where their callers look them up
(``perfbench/layers.py``), so a rename inside the package would break
``perfbench/run.py --trace 1``.  These tests load the benchmark's own modules
read-only and fail on such a rename.
"""

import importlib.util
import sys
from pathlib import Path

import exindex as ex

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


class _ResolvingTracer:
    """Stands in for the span tracer: looks each binding up and replaces nothing."""

    def __init__(self):
        self.bound = set()

    def wrap(self, owner, attr, name, on_result=None):
        getattr(owner, attr)
        self.bound.add(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")


def test_every_traced_binding_resolves():
    tracer = _ResolvingTracer()
    _load("layers").install(tracer)
    for binding in (
        "harness.generate",
        "sim.generate",
        "harness.sweep",
        "harness.corrected_curve",
        "harness.theta_nt_wn",
        "harness.theta_nt_mm_exact",
        "harness.runs_estimator",
        "cli.dispatch",
        "cli.run",
        "cli.figure1_bundle",
        "MCResult.summarize",
        "clusterproc.estimate_kernel_mc",
    ):
        assert binding in tracer.bound


def test_benchmark_configs_parse():
    workloads = _load("workloads").WORKLOADS
    for workload in workloads.values():
        if hasattr(workload, "config"):
            cfg = ex.ExperimentConfig.from_dict(workload.config(0))
            assert cfg.model.to_dict()["name"] == cfg.model.name
