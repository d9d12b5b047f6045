"""One measurement in a fresh interpreter; prints a JSON line as its last output.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --mode MODE
        [--seconds S] [--trace-out FILE]

``setup`` times importing exindex and parsing the config (or building the
measure), then times the workload's reference kernel (``refkernel.py``) and
exits.
``plain`` makes one warm-up call, then times calls until ``--seconds`` have
passed (at least three), each bracketed by timings of the reference kernel,
and checks the warm-up call's outputs; nothing is wrapped.  Both report their
times raw and scaled to the reference host (``ref_*``).  ``traced`` alternates
untraced calls with calls made while every layer is wrapped by
``layers.install``, so each traced call
has an untraced neighbour timed under the same machine load; it reports the
per-layer metrics of the traced calls and writes their spans to
``--trace-out``.  Every call's outputs must equal the warm-up call's.

``run.py`` starts this script with thread counts pinned and ``PYTHONPATH``
pointing at the package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from statistics import median

import layers
from refkernel import REF_S, Reference
from tracer import Tracer
from workloads import WORKLOADS


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def measure(workload, seed: int, workdir: str, seconds: float, traced: bool, trace_out=None):
    state = workload.setup(workdir, seed, tag="traced" if traced else "plain")
    workload.call(state)  # warm-up: lazy imports and caches, untimed
    first = workload.snapshot(state)
    tracer = Tracer()
    reference = None if traced else Reference(workload.reference)
    ref_s = REF_S[workload.reference]
    ref_before = reference.seconds() if reference else None
    walls, ref_walls, traced_walls, per_call = [], [], [], []
    attempted, failed = 1, 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(walls) < 3:
        for wrapped in (False, True) if traced else (False,):
            if wrapped:
                layers.install(tracer)
                mark = len(tracer.spans)
                before = dict(tracer.counts)
            t0 = time.perf_counter()
            workload.call(state)
            elapsed = time.perf_counter() - t0
            attempted += 1
            if reference:
                ref_after = reference.seconds()
                ref_walls.append(elapsed / (ref_before + ref_after) * 2.0 * ref_s)
                ref_before = ref_after
            if workload.snapshot(state) != first:
                failed += 1
            if not wrapped:
                walls.append(elapsed)
                continue
            tracer.restore()
            traced_walls.append(elapsed)
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            out = state.get("out")
            per_call.append(
                layers.call_metrics(
                    tracer.summary(mark), counts, workload.replicates,
                    len(workload.r_list), _dir_bytes(out) if out else 0,
                )
            )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace_out:
        tracer.dump(trace_out, meta={"workload": workload.name, "seed": seed})

    import check

    report = check.check(workload, state, first, seed)
    if report.mismatched:
        failed = attempted
    result = {
        "wall_s": walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "check": report.as_dict(),
    }
    if reference:
        result["ref_wall_s"] = ref_walls
    if traced:
        result["traced_wall_s"] = traced_walls
        result["overhead_share"] = median(t / p for t, p in zip(traced_walls, walls)) - 1.0
        result["layers"] = layers.median_metrics(per_call)
    return result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "plain", "traced"])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.chdir(args.workdir)

    if args.mode == "setup":
        t0 = time.perf_counter()
        workload.setup(args.workdir, args.seed)
        setup_s = time.perf_counter() - t0
        kernel_s = Reference(workload.reference).seconds()
        result = {
            "setup_s": setup_s,
            "ref_setup_s": setup_s / kernel_s * REF_S[workload.reference],
        }
    else:
        result = measure(
            workload, args.seed, args.workdir, args.seconds,
            traced=args.mode == "traced", trace_out=args.trace_out,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
