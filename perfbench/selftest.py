"""Self-tests of the benchmark on inputs the size of acceptance criterion 10.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The output check must pass on true outputs and reject each kind of perturbed
output; the traced counters must equal counts worked out by hand from the
config.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import TWO_ATOM, WORKLOADS, KernelWorkload, McWorkload  # noqa: E402

REPS = 20
R_LIST = (5, 10)
GRID = (0.25, 0.5, 0.75, 1.0)

SMALL_MC = McWorkload(
    name="small_wn",
    why="criterion-10 sized",
    model={"name": "wn", "psi": 0.6, "innovation": "uniform"},
    r_list=R_LIST,
    k=40,
    replicates=REPS,
    measure=TWO_ATOM,
    figure1=True,
    n=400,
    t_grid=list(GRID),
)
SMALL_KERNEL = KernelWorkload(
    name="small_kernel", why="small", phi=0.6, r=10, k=100, grid=(0.1, 1.0, 5),
    replicates=100, measure=(0.5, 1.0, 2.0), n=2000,
)


@pytest.fixture
def mc_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    SMALL_MC.write_inputs(str(tmp_path), 0)
    state = SMALL_MC.setup(str(tmp_path), 0)
    SMALL_MC.call(state)
    return state, SMALL_MC.snapshot(state)


def _replace_field(files, name, row_pred, field, new):
    """Copy of the outputs with one CSV field changed in the first row matching row_pred."""
    lines = files[name].decode().splitlines()
    header = lines[0].split(",")
    col = header.index(field)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if row_pred(dict(zip(header, cells))):
            cells[col] = new(cells[col])
            lines[i] = ",".join(cells)
            break
    else:
        raise AssertionError(f"no row of {name} matched")
    out = dict(files)
    out[name] = ("\n".join(lines) + "\n").encode()
    return out


def test_check_accepts_true_outputs(mc_run):
    state, files = mc_run
    report = check.check(SMALL_MC, state, files, 0)
    assert report.mismatched == 0, report.notes
    assert report.sampled > 0
    # every raw and corrected row plus runs points per (run length, level, replicate)
    assert report.attempted == REPS * len(GRID) * len(R_LIST) * 3


def _sampled(row):
    return int(row["replicate"]) in _sampled_reps()


def _sampled_reps():
    return set(random.Random(0).sample(range(REPS), check.SAMPLED_REPLICATES))


@pytest.mark.parametrize(
    "name,pred,field,new",
    [
        # a raw value off by one ulp
        ("curves.csv", lambda r: r["kind"] == "raw" and r["value"] and _sampled(r),
         "value", lambda v: repr(math.nextafter(float(v), 2.0))),
        # a skip code swapped for another
        ("curves.csv", lambda r: r["kind"] == "raw" and r["flag"] and _sampled(r),
         "flag", lambda v: "NO_EXCEEDANCES"),
        # a corrected value off by more than the tolerance
        ("curves.csv", lambda r: r["kind"] == "corrected" and r["value"] and _sampled(r),
         "value", lambda v: repr(float(v) * (1 + 1e-9))),
        # a summary mean
        ("summary.csv", lambda r: r["kind"] == "raw" and r["mean"] != "nan",
         "mean", lambda v: repr(float(v) + 1e-6)),
        # a runs band mean
        ("runs_curves.csv", lambda r: r["mean"] != "", "mean",
         lambda v: repr(float(v) + 1e-6)),
    ],
)
def test_check_rejects_perturbed_output(mc_run, name, pred, field, new):
    state, files = mc_run
    if name == "runs_curves.csv":
        # perturb every runs band row so a sampled level is hit
        for t in GRID:
            for rl in R_LIST:
                files = _replace_field(
                    files, name,
                    lambda r, t=t, rl=rl: float(r["t"]) == t and int(r["run_length"]) == rl,
                    field, new,
                )
    else:
        files = _replace_field(files, name, pred, field, new)
    report = check.check(SMALL_MC, state, files, 0)
    assert report.mismatched > 0
    assert report.fail_share > check.check(SMALL_MC, state, mc_run[1], 0).fail_share


def test_traced_counts_equal_hand_counts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    SMALL_MC.write_inputs(str(tmp_path), 0)
    state = SMALL_MC.setup(str(tmp_path), 0)
    tracer = Tracer()
    layers.install(tracer)
    try:
        SMALL_MC.call(state)
    finally:
        tracer.restore()
    files = SMALL_MC.snapshot(state)
    metrics = layers.call_metrics(
        tracer.summary(), tracer.counts, REPS, len(R_LIST),
        sum(len(b) for b in files.values()),
    )
    curves = check._rows(files["curves.csv"])
    flags = {}
    for row in curves:
        if row["flag"]:
            key = (row["kind"], row["flag"])
            flags[key] = flags.get(key, 0) + 1
    # run() and figure1_bundle() each generate, sweep and correct every replicate
    passes = 2
    per_pass = REPS * len(R_LIST)
    assert metrics["sim.generate.calls"] == passes * REPS
    assert metrics["sim.generate.calls_per_replicate"] == passes
    assert metrics["estimate.sweep.calls"] == passes * per_pass
    assert metrics["biascorrect.corrected_curve.calls"] == passes * per_pass
    assert metrics["estimate.evaluator.builds"] == 2 * passes * per_pass
    assert metrics["estimate.evaluator.builds_per_replicate_r"] == 2 * passes
    assert metrics["biascorrect.corrected_estimate.calls"] == passes * per_pass * len(GRID)
    assert metrics["estimate.runs_estimator.calls"] == REPS * len(R_LIST) * len(GRID)
    assert metrics["oracle.calls"] == len(R_LIST) * len(GRID)  # summary raw rows
    assert metrics["clusterproc.f_max.calls"] == 0
    for name, value in metrics.items():
        if ".skipped." in name:
            kind = "raw" if name.startswith("estimate.sweep.") else "corrected"
            assert value == passes * flags.get((kind, name.rsplit(".", 1)[1]), 0), name
    assert sum(v for n, v in metrics.items() if ".skipped." in n) == passes * sum(flags.values())
    assert metrics["harness.bytes_written"] == sum(
        os.path.getsize(os.path.join(state["out"], f)) for f in os.listdir(state["out"])
    )


def test_kernel_counts_and_check(tmp_path):
    state = SMALL_KERNEL.setup(str(tmp_path), 0)
    tracer = Tracer()
    layers.install(tracer)
    try:
        SMALL_KERNEL.call(state)
    finally:
        tracer.restore()
    metrics = layers.call_metrics(tracer.summary(), tracer.counts, 100, 1, 0)
    levels = SMALL_KERNEL.grid[2]
    assert metrics["clusterproc.standardize.calls"] == 100
    assert metrics["clusterproc.f_max.calls"] == 100 * levels
    assert metrics["clusterproc.g_count.calls_per_replicate"] == levels
    assert metrics["sim.generate.calls_per_replicate"] == 1
    assert metrics["estimate.evaluator.builds_per_replicate_r"] == 1
    assert metrics["estimate.sweep.calls"] == 0
    assert metrics["biascorrect.sigma2_mu.busy_s"] > 0

    snapshot = SMALL_KERNEL.snapshot(state)
    assert check.check(SMALL_KERNEL, state, snapshot, 0).mismatched == 0
    bad = dict(snapshot, sigma2=snapshot["sigma2"] * (1 + 1e-6))
    report = check.check(SMALL_KERNEL, state, bad, 0)
    assert report.mismatched > 0 and report.fail_share == 1.0


def test_traced_worker_alternates_and_keeps_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    SMALL_MC.write_inputs(str(tmp_path), 0)
    result = worker.measure(SMALL_MC, 0, str(tmp_path), 0.0, traced=True)
    assert result["failed"] == 0 and result["check"]["mismatched"] == 0
    assert len(result["wall_s"]) == len(result["traced_wall_s"]) >= 3
    assert result["attempted"] == 1 + 2 * len(result["wall_s"])
    assert result["layers"]["sim.generate.calls"] == 2 * REPS


def test_plain_worker_scales_each_call_to_the_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    SMALL_MC.write_inputs(str(tmp_path), 0)
    half = worker.REF_S[SMALL_MC.reference] / 2
    monkeypatch.setattr(worker.Reference, "seconds", lambda self: half)
    result = worker.measure(SMALL_MC, 0, str(tmp_path), 0.0, traced=False)
    assert result["failed"] == 0 and "traced_wall_s" not in result
    assert result["ref_wall_s"] == pytest.approx([2 * t for t in result["wall_s"]])


def test_restore_leaves_nothing_wrapped():
    from exindex import biascorrect, cli, clusterproc, estimate, harness, sim

    modules = (biascorrect, cli, clusterproc, estimate, harness, sim)
    before = [dict(vars(m)) for m in modules] + [dict(vars(harness.MCResult))]
    tracer = Tracer()
    layers.install(tracer)
    assert cli.dispatch is not before[1]["dispatch"]
    tracer.restore()
    after = [dict(vars(m)) for m in modules] + [dict(vars(harness.MCResult))]
    assert all(a == b for a, b in zip(before, after))


def test_self_time_subtracts_children():
    import time

    tracer = Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.span("outer", outer_body)()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(outer["busy_s"] - summary["inner"]["busy_s"])
    assert 0.005 < outer["self_s"] < outer["busy_s"]


def test_benchmark_json_lists_every_metric_and_workload():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
