"""Which exindex functions the traced run wraps, and the per-layer metrics it reports.

Each wrapper sits on the name a caller looks up at call time, so the span
covers exactly the calls that caller makes:

============================  ==============================================
span name                     wrapped binding(s)
============================  ==============================================
cli.dispatch                  ``cli.dispatch`` (entry of the mc workloads)
harness.run                   ``cli.run``
harness.figure1_bundle        ``cli.figure1_bundle``
harness.summarize             ``harness.MCResult.summarize``
sim.generate                  ``harness.generate``, ``sim.generate``
estimate.sweep                ``harness.sweep``
estimate.evaluator            ``BlocksEvaluator`` in estimate, biascorrect and
                              clusterproc (the span covers the build)
estimate.runs_estimator       ``harness.runs_estimator``
biascorrect.corrected_curve   ``harness.corrected_curve``
biascorrect.corrected_estimate ``biascorrect.corrected_estimate``
biascorrect.sigma2_mu         ``biascorrect.sigma2_mu``
oracle                        ``harness.theta_nt_wn``, ``harness.theta_nt_mm_exact``
clusterproc.*                 ``clusterproc.estimate_kernel_mc``,
                              ``standardize``, ``f_max``, ``g_count``
============================  ==============================================

Skipped points are counted from the curves that ``sweep`` and
``corrected_curve`` return.
"""

from __future__ import annotations

from statistics import median_low

# name -> unit, in report order
PER_LAYER = {
    "sim.generate.calls": "count",
    "sim.generate.busy_s": "s",
    "sim.generate.calls_per_replicate": "ratio",
    "estimate.sweep.calls": "count",
    "estimate.sweep.busy_s": "s",
    "estimate.sweep.skipped.TIES_DETECTED": "count",
    "estimate.sweep.skipped.NO_EXCEEDANCES": "count",
    "estimate.evaluator.builds": "count",
    "estimate.evaluator.busy_s": "s",
    "estimate.evaluator.builds_per_replicate_r": "ratio",
    "estimate.runs_estimator.calls": "count",
    "estimate.runs_estimator.busy_s": "s",
    "biascorrect.corrected_curve.calls": "count",
    "biascorrect.corrected_curve.busy_s": "s",
    "biascorrect.corrected_curve.self_s": "s",
    "biascorrect.corrected_estimate.calls": "count",
    "biascorrect.corrected_estimate.busy_s": "s",
    "biascorrect.skipped.TIES_DETECTED": "count",
    "biascorrect.skipped.NO_EXCEEDANCES": "count",
    "biascorrect.skipped.DEGENERATE_DENOMINATOR": "count",
    "biascorrect.sigma2_mu.busy_s": "s",
    "oracle.calls": "count",
    "oracle.busy_s": "s",
    "harness.run.self_s": "s",
    "harness.figure1_bundle.self_s": "s",
    "harness.summarize.busy_s": "s",
    "harness.bytes_written": "B",
    "clusterproc.estimate_kernel_mc.self_s": "s",
    "clusterproc.standardize.calls": "count",
    "clusterproc.standardize.busy_s": "s",
    "clusterproc.f_max.calls": "count",
    "clusterproc.f_max.busy_s": "s",
    "clusterproc.f_max.calls_per_replicate": "ratio",
    "clusterproc.g_count.calls": "count",
    "clusterproc.g_count.busy_s": "s",
    "clusterproc.g_count.calls_per_replicate": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_share": "ratio",
}


def _count_skips(prefix):
    def on_result(tracer, name, curve):
        for point in curve.skipped:
            tracer.counts[f"{prefix}.skipped.{point.reason}"] += 1

    return on_result


def install(tracer) -> None:
    """Wrap the bindings listed in the module docstring."""
    from exindex import biascorrect, cli, clusterproc, estimate, harness, sim

    wrap = tracer.wrap
    wrap(cli, "dispatch", "cli.dispatch")
    wrap(cli, "run", "harness.run")
    wrap(cli, "figure1_bundle", "harness.figure1_bundle")
    wrap(harness.MCResult, "summarize", "harness.summarize")
    wrap(harness, "generate", "sim.generate")
    wrap(sim, "generate", "sim.generate")
    wrap(harness, "sweep", "estimate.sweep", _count_skips("estimate.sweep"))
    for module in (estimate, biascorrect, clusterproc):
        wrap(module, "BlocksEvaluator", "estimate.evaluator")
    wrap(harness, "runs_estimator", "estimate.runs_estimator")
    wrap(harness, "corrected_curve", "biascorrect.corrected_curve", _count_skips("biascorrect"))
    wrap(biascorrect, "corrected_estimate", "biascorrect.corrected_estimate")
    wrap(biascorrect, "sigma2_mu", "biascorrect.sigma2_mu")
    wrap(harness, "theta_nt_wn", "oracle")
    wrap(harness, "theta_nt_mm_exact", "oracle")
    for name in ("estimate_kernel_mc", "standardize", "f_max", "g_count"):
        wrap(clusterproc, name, f"clusterproc.{name}")


def call_metrics(summary: dict, counts, replicates: int, r_count: int, bytes_written: int):
    """Per-layer metrics of one traced workload call (all but the trace.* ones)."""

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    out = {}
    for metric in PER_LAYER:
        if metric.startswith("trace."):
            continue
        if metric == "harness.bytes_written":
            out[metric] = bytes_written
        elif ".skipped." in metric:
            out[metric] = counts.get(metric, 0)
        elif metric == "estimate.evaluator.builds":
            out[metric] = get("estimate.evaluator", "calls")
        elif metric == "estimate.evaluator.builds_per_replicate_r":
            out[metric] = get("estimate.evaluator", "calls") / (replicates * r_count)
        elif metric.endswith(".calls_per_replicate"):
            out[metric] = get(metric.rsplit(".", 1)[0], "calls") / replicates
        else:
            span, field = metric.rsplit(".", 1)
            out[metric] = get(span, field)
    return out


def median_metrics(per_call: list) -> dict:
    """Median over traced calls of each metric; counts repeat exactly across calls."""
    return {name: median_low(call[name] for call in per_call) for name in per_call[0]}
