"""exindex benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every measurement runs in a fresh single-process interpreter
(``worker.py``) with BLAS and OpenMP thread counts pinned to 1.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of one workload call over the calls made in
  ``S`` seconds (at least three; the count is in the record line), nothing
  wrapped.
* ``replicates_per_s``: the workload's replicates divided by ``wall_s``.
* ``setup_s``: median over five fresh interpreters of the time to import
  exindex and parse the config or build the measure.
* ``peak_rss_mb``: peak resident set size of the measuring interpreter.
* ``ok_share``: share of attempted curve points (kernel workload:
  replicates) that got a value and passed the output check.  It is
  1 - fail_share, so that it is never 0.

The host's speed drifts by tens of percent over seconds to minutes, so every
time above is scaled to a reference host: each timed call or set-up is
followed (calls also preceded) by a timing of a fixed kernel that does not
touch exindex (``refkernel.py``; each workload names the kernel whose work is
most like its own), and the reported time is ``measured / kernel * REF_S``.
The raw times are in the record line.

``--trace 1`` reports the per-layer metrics of ``layers.PER_LAYER`` from
one interpreter that alternates untraced and traced calls for S seconds;
``trace.wall_s`` is the median traced call and ``trace.overhead_share`` the
median ratio of each traced call to the untraced call before it, minus 1.
The spans of the traced calls go to
``.perfbench/traces/<workload>-seed<N>.json``.

The outputs of every workload are checked (``check.py``).  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the environment, the sample counts and
the check.  A copy of both goes to ``.perfbench/results/``.  Persisted
outputs live in a temporary directory under ``.perfbench/`` that is removed
at the end.  The exit code is 0 when every check passed, 1 when an output
was wrong, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
RUN_TIMEOUT_S = 170  # every worker of one run must finish within this
SETUP_SAMPLES = 5

sys.path.insert(0, HERE)
from layers import PER_LAYER  # noqa: E402
from refkernel import REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "replicates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def worker(workload: str, seed: int, workdir: str, deadline: float, mode: str,
           seconds=1.0, trace_out=None):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", **PINNED)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--workdir", workdir, "--mode", mode,
        "--seconds", repr(seconds),
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} worker for {workload} ran past {RUN_TIMEOUT_S}s") from err
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} worker for {workload} exited with {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """Interpreter, libraries, cores, CPU model and source revision of this run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "exindex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads_pinned": PINNED,
    }


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Measure one workload; returns (record, result line)."""
    workload = WORKLOADS[workload_name]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{workload_name}-", dir=OUT)
    try:
        workload.write_inputs(workdir, seed)
        record = {
            "workload": workload_name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "n": workload.n,
            "replicates": workload.replicates,
        }
        if not trace:
            setups = [worker(workload_name, seed, workdir, deadline, "setup")
                      for _ in range(SETUP_SAMPLES)]
            result = worker(workload_name, seed, workdir, deadline, "plain", seconds)
            wall = median(result["ref_wall_s"])
            values = {
                "wall_s": wall,
                "replicates_per_s": workload.replicates / wall,
                "setup_s": median(s["ref_setup_s"] for s in setups),
                "peak_rss_mb": result["peak_rss_mb"],
                "ok_share": 1.0 - result["check"]["fail_share"],
            }
            metrics = _metrics(values, END_TO_END)
            record["setup_s_samples"] = [s["setup_s"] for s in setups]
            record["ref_setup_s_samples"] = [s["ref_setup_s"] for s in setups]
            record["ref_wall_s_samples"] = result["ref_wall_s"]
            record["reference"] = {
                "kernel": workload.reference, "s": REF_S[workload.reference],
            }
        else:
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            trace_out = os.path.join(OUT, "traces", f"{workload_name}-seed{seed}.json")
            result = worker(workload_name, seed, workdir, deadline, "traced", seconds, trace_out)
            values = dict(result["layers"])
            values["trace.wall_s"] = median(result["traced_wall_s"])
            values["trace.overhead_share"] = result["overhead_share"]
            metrics = _metrics(values, PER_LAYER)
            record["trace_file"] = os.path.relpath(trace_out, ROOT)
            record["traced_wall_s_samples"] = result["traced_wall_s"]
        record["plain_wall_s_samples"] = result["wall_s"]
        record["check"] = result["check"]
        record["environment"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = {
        "correct": result["failed"] == 0 and result["check"]["mismatched"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return record, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="exindex benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "exindex", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        record, line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w") as fh:
        json.dump({"record": record, "result": line}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
