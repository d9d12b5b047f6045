"""Output check: recompute sampled outputs from their definitions and compare.

For sampled replicates the series is regenerated with
``generate(model, n, substream(seed, rep))`` and each estimate is recomputed
from its definition, as acceptance criterion 9 does: the threshold is the
order statistic below the top ``count_at(k, t)`` values, a tie between it and
the smallest retained value is ``TIES_DETECTED``, no exceedance inside the
blocks is ``NO_EXCEEDANCES``, and the estimate is (blocks with an
exceedance) / (exceedances inside the blocks), counted directly on the
series.  None of the package's evaluators is used.

Raw values, runs values and skip codes must match exactly.  Corrected values
are rebuilt from the recomputed raw values at the scaled atom levels and must
match within ``CORRECTED_RTOL``.  Persisted means, standard deviations and
counts must equal those of the persisted per-replicate values.  For seed 0
the skip counts by (kind, r, code), and sigma^2 for the kernel workload, must
also equal the fingerprints recorded in ``fingerprints.json``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

import numpy as np
from scipy import stats

import exindex as ex
from workloads import KernelWorkload

CORRECTED_RTOL = 1e-12
KERNEL_RTOL = 1e-9
SAMPLED_REPLICATES = 6
SAMPLED_COLUMNS = 4
FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")

TIES = "TIES_DETECTED"
NO_EXC = "NO_EXCEEDANCES"
DEGENERATE = "DEGENERATE_DENOMINATOR"


# ---------------------------------------------------------------------------
# Estimates from their definitions
# ---------------------------------------------------------------------------


class DirectBlocks:
    """Blocks estimates of one series and block length, recomputed per k_t."""

    def __init__(self, x, xs, r: int):
        self.x = x
        self.xs = xs
        self.n = len(x)
        self.m = self.n // r
        self.r = r
        self._cache = {}

    def at_count(self, k_t: int):
        """(value, "") or (nan, code) with the threshold below the top k_t values."""
        if k_t not in self._cache:
            self._cache[k_t] = self._compute(k_t)
        return self._cache[k_t]

    def _compute(self, k_t: int):
        n = self.n
        u = self.xs[n - k_t - 1]
        if self.xs[n - k_t] == u:
            return math.nan, TIES
        covered = self.x[: self.m * self.r]
        exceed = int(np.count_nonzero(covered > u))
        if exceed == 0:
            return math.nan, NO_EXC
        hit = int(np.count_nonzero((covered.reshape(self.m, self.r) > u).any(axis=1)))
        return hit / exceed, ""


def direct_corrected(blocks: DirectBlocks, k: int, atoms, t: float):
    """Corrected estimate at level t from recomputed raw values at the scaled atoms.

    The measure is shrunk to (t s, t s', w); the first atom level whose raw
    value is skipped passes its code on; a denominator below 1e-8 times the
    total variation is ``DEGENERATE_DENOMINATOR``.
    """
    num = 0.0
    den = 0.0
    for s, s2, w in atoms:
        hs, code = blocks.at_count(ex.count_at(k, t * s))
        if code:
            return math.nan, code
        ht, code = blocks.at_count(ex.count_at(k, t * s2))
        if code:
            return math.nan, code
        num += w * hs * ht
        den += w * (hs + ht)
    if abs(den) < 1e-8 * sum(abs(w) for _, _, w in atoms):
        return math.nan, DEGENERATE
    return num / den, ""


def direct_runs(x, run_length: int, u: float):
    """Runs estimate: exceedances followed by run_length non-exceedances, per exceedance."""
    stop = len(x) - run_length
    exc = x > u
    starts = np.flatnonzero(exc[:stop])
    if starts.size == 0:
        return math.nan, NO_EXC
    ends = sum(1 for i in starts if not exc[i + 1 : i + run_length + 1].any())
    return ends / starts.size, ""


# ---------------------------------------------------------------------------
# Persisted outputs
# ---------------------------------------------------------------------------


def _rows(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode())))


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _close(a: float, b: float, rtol: float) -> bool:
    return _same(a, b) or abs(a - b) <= rtol * max(abs(a), abs(b))


def _mean_sd(values):
    used = np.asarray([v for v in values if not math.isnan(v)])
    mean = float(used.mean()) if used.size else math.nan
    sd = float(used.std(ddof=1)) if used.size > 1 else math.nan
    return mean, sd, int(used.size)


class Report:
    """Point counts and mismatches of one check."""

    def __init__(self):
        self.attempted = 0
        self.skipped = 0
        self.sampled = 0
        self.mismatched = 0
        self.skips = {}
        self.notes = []
        self.fingerprint = "not_recorded"

    def mismatch(self, what: str):
        self.mismatched += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    def point(self, where: str, got, want, rtol=0.0):
        """Compare one (value, code) pair against its recomputation."""
        self.sampled += 1
        ok = got[1] == want[1] and (
            _same(got[0], want[0]) if rtol == 0.0 else _close(got[0], want[0], rtol)
        )
        if not ok:
            self.mismatch(f"{where}: got {got}, want {want}")

    @property
    def fail_share(self) -> float:
        return min(1.0, (self.skipped + self.mismatched) / self.attempted)

    def as_dict(self) -> dict:
        return {
            "attempted_points": self.attempted,
            "skipped_points": self.skipped,
            "sampled_points": self.sampled,
            "mismatched": self.mismatched,
            "fail_share": self.fail_share,
            "skips": dict(sorted(self.skips.items())),
            "fingerprint": self.fingerprint,
            "corrected_rtol": CORRECTED_RTOL,
            "kernel_rtol": KERNEL_RTOL,
            "notes": self.notes,
        }


def _fingerprints() -> dict:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Monte Carlo experiment workloads
# ---------------------------------------------------------------------------


def check_mc(workload, config, files: dict, seed: int) -> Report:
    rep_count = config.replicates
    grid = list(config.t_grid)
    col = {t: j for j, t in enumerate(grid)}
    report = Report()

    # persisted per-replicate curves: (kind, r) -> replicate x grid values and codes
    values, codes = {}, {}
    for row in _rows(files["curves.csv"]):
        key = (row["kind"], int(row["r"]))
        if key not in values:
            values[key] = np.full((rep_count, len(grid)), math.nan)
            codes[key] = [[""] * len(grid) for _ in range(rep_count)]
        rep, j = int(row["replicate"]), col[float(row["t"])]
        values[key][rep, j] = _num(row["value"])
        codes[key][rep][j] = row["flag"]
        report.attempted += 1
        if row["flag"]:
            report.skipped += 1
            name = f"{row['kind']}/r{row['r']}/{row['flag']}"
            report.skips[name] = report.skips.get(name, 0) + 1
    expected_rows = rep_count * len(grid) * len(config.r_list) * (2 if config.measure else 1)
    if report.attempted != expected_rows:
        report.mismatch(f"curves.csv has {report.attempted} rows, want {expected_rows}")

    # summary rows are recomputable from the persisted curves
    for row in _rows(files["summary.csv"]):
        key = (row["kind"], int(row["r"]))
        j = col[float(row["t"])]
        mean, sd, used = _mean_sd(values[key][:, j])
        got = (_num(row["mean"]), _num(row["sd"]), int(row["n_used"]), int(row["n_skipped"]))
        if not (_same(got[0], mean) and _same(got[1], sd) and got[2:] == (used, rep_count - used)):
            report.mismatch(f"summary {key} t={row['t']}: got {got}, want {(mean, sd, used)}")

    atoms = config.measure.atoms if config.measure is not None else None
    rng = random.Random(seed)
    sampled = sorted(rng.sample(range(rep_count), min(SAMPLED_REPLICATES, rep_count)))
    for rep in sampled:
        x = ex.generate(config.model, config.n, ex.substream(config.base_seed, rep)).values
        xs = np.sort(x)
        for r in config.r_list:
            blocks = DirectBlocks(x, xs, r)
            for j, t in enumerate(grid):
                want = blocks.at_count(ex.count_at(config.k, t))
                got = (values[("raw", r)][rep, j], codes[("raw", r)][rep][j])
                report.point(f"raw r={r} rep={rep} t={t}", got, want)
                if atoms is not None:
                    want = direct_corrected(blocks, config.k, atoms, t)
                    got = (values[("corrected", r)][rep, j], codes[("corrected", r)][rep][j])
                    report.point(f"corrected r={r} rep={rep} t={t}", got, want, CORRECTED_RTOL)

    if workload.figure1:
        _check_figure1(config, files, values, codes, rng, report)

    fingerprint = _fingerprints().get(workload.name)
    if seed == 0 and fingerprint and fingerprint["replicates"] == rep_count:
        report.fingerprint = "match" if fingerprint["skips"] == report.skips else "mismatch"
        if report.fingerprint == "mismatch":
            report.mismatch(f"seed-0 skip counts {report.skips} != {fingerprint['skips']}")
    return report


def _check_figure1(config, files, values, codes, rng, report: Report) -> None:
    """Band rows of sampled levels against every replicate recomputed."""
    rep_count = config.replicates
    grid = list(config.t_grid)
    cols = sorted(rng.sample(range(len(grid)), min(SAMPLED_COLUMNS, len(grid))))
    bands = {}
    for fname, param in (("blocks_curves.csv", "r"), ("runs_curves.csv", "run_length")):
        for row in _rows(files[fname]):
            bands[(fname, int(row[param]), float(row["t"]))] = (
                _num(row["mean"]), _num(row["sd"]), int(row["n_used"]),
            )
    want_rows = len(grid) * (len(config.r_list) + len(config.run_lengths))
    if len(bands) != want_rows:
        report.mismatch(f"figure bundle has {len(bands)} band rows, want {want_rows}")
    for rl in config.run_lengths:
        for t in grid:
            _, _, used = bands[("runs_curves.csv", rl, t)]
            report.attempted += rep_count
            report.skipped += rep_count - used
            if used < rep_count:
                name = f"runs/r{rl}/skipped"
                report.skips[name] = report.skips.get(name, 0) + rep_count - used

    raw = {(r, j): [] for r in config.r_list for j in cols}
    runs = {(rl, j): [] for rl in config.run_lengths for j in cols}
    for rep in range(rep_count):
        x = ex.generate(config.model, config.n, ex.substream(config.base_seed, rep)).values
        xs = np.sort(x)
        n = len(x)
        for r in config.r_list:
            blocks = DirectBlocks(x, xs, r)
            for j in cols:
                value, code = blocks.at_count(ex.count_at(config.k, grid[j]))
                raw[(r, j)].append(value)
                got = (values[("raw", r)][rep, j], codes[("raw", r)][rep][j])
                report.point(f"raw r={r} rep={rep} t={grid[j]}", got, (value, code))
        for rl in config.run_lengths:
            for j in cols:
                u = xs[n - ex.count_at(config.k, grid[j]) - 1]
                runs[(rl, j)].append(direct_runs(x, rl, u)[0])
    for fname, recomputed in (("blocks_curves.csv", raw), ("runs_curves.csv", runs)):
        for (key, j), vals in recomputed.items():
            want = _mean_sd(vals)
            got = bands[(fname, key, grid[j])]
            report.sampled += len(vals)
            if not all(_same(a, b) for a, b in zip(got, want)):
                report.mismatch(f"{fname} {key} t={grid[j]}: got {got}, want {want}")


# ---------------------------------------------------------------------------
# Covariance-kernel workload
# ---------------------------------------------------------------------------


def _bilinear(grid, mat, s: float, t: float) -> float:
    """Bilinear interpolation on the grid extended by 0, where every covariance is 0."""
    g = np.concatenate([[0.0], grid])
    padded = np.zeros((len(g), len(g)))
    padded[1:, 1:] = mat
    i = min(int(np.searchsorted(g, s, side="right")), len(g) - 1)
    j = min(int(np.searchsorted(g, t, side="right")), len(g) - 1)
    ds = (s - g[i - 1]) / (g[i] - g[i - 1])
    dt = (t - g[j - 1]) / (g[j] - g[j - 1])
    return float(
        padded[i - 1, j - 1] * (1 - ds) * (1 - dt) + padded[i, j - 1] * ds * (1 - dt)
        + padded[i - 1, j] * (1 - ds) * dt + padded[i, j] * ds * dt
    )


def kernel_reference(workload, state):
    """Kernel matrices, theta and sigma^2 recomputed from every replicate.

    Returns (snapshot-shaped dict, number of replicates whose blocks estimate at
    t = 1 is undefined).
    """
    n, r, k = workload.n, workload.r, workload.k
    grid = np.asarray(state["grid"], dtype=float)
    v = k / n
    m = n // r
    reps = workload.replicates
    sf = np.zeros((reps, grid.size))
    sg = np.zeros((reps, grid.size))
    theta_hats = np.zeros(reps)
    undefined = 0
    for rep in range(reps):
        x = ex.generate(state["model"], n, ex.substream(state["seed"], rep)).values
        u = stats.rankdata(x, method="ordinal") / n
        excess = np.clip((u - (1.0 - v)) / v, 0.0, None)[: m * r].reshape(m, r)
        for j, t in enumerate(grid):
            sf[rep, j] = np.count_nonzero(excess.max(axis=1) > 1.0 - t)
            sg[rep, j] = np.count_nonzero(excess > 1.0 - t)
        theta_hats[rep], code = DirectBlocks(x, np.sort(x), r).at_count(k)
        undefined += bool(code)
    scale = 1.0 / np.sqrt(n * v)
    zf = scale * (sf - sf.mean(axis=0))
    zg = scale * (sg - sg.mean(axis=0))
    theta = float(theta_hats.mean())
    w = zf - theta * zg
    c_mat = w.T @ (w - w.mean(axis=0)) / (reps - 1)
    cg_mat = zg.T @ (zg - zg.mean(axis=0)) / (reps - 1)
    cfg_mat = zf.T @ zg / (reps - 1)

    # sigma^2: symmetrized atoms, double sum over pairs, squared normalizer
    atoms = list(state["mu"].atoms)
    atoms += [(t, s, wt) for s, t, wt in atoms]
    d = workload.delta
    norm = sum(wt * s**d for s, _, wt in atoms)
    total = sum(
        wa * wb * (sa * sb) ** d / (ta * tb) * _bilinear(grid, c_mat, ta, tb)
        for sa, ta, wa in atoms
        for sb, tb, wb in atoms
    )
    ref = {
        "c": c_mat.tolist(),
        "c_g": cg_mat.tolist(),
        "c_fg": cfg_mat.tolist(),
        "theta": theta,
        "sigma2": total / norm**2,
    }
    return ref, undefined


def check_kernel(workload, state, snapshot: dict, seed: int) -> Report:
    """Replicates are the attempted points: each must give a defined estimate at t = 1."""
    report = Report()
    report.attempted = workload.replicates
    ref, undefined = kernel_reference(workload, state)
    report.skipped = undefined
    report.sampled = workload.replicates
    if undefined:
        report.skips["kernel/theta_hat/undefined"] = undefined
    for name in ("c", "c_g", "c_fg"):
        got = np.asarray(snapshot[name])
        want = np.asarray(ref[name])
        scale = max(float(np.abs(want).max()), 1e-300)
        worst = float(np.abs(got - want).max()) / scale
        if not worst <= KERNEL_RTOL:
            report.mismatch(f"kernel {name}: max relative difference {worst:.3g}")
    for name in ("theta", "sigma2"):
        if not _close(snapshot[name], ref[name], KERNEL_RTOL):
            report.mismatch(f"{name}: got {snapshot[name]!r}, want {ref[name]!r}")
    if report.mismatched:
        # the kernel aggregates every replicate, so a wrong value spoils them all
        report.mismatched = report.attempted
    fingerprint = _fingerprints().get(workload.name)
    if seed == 0 and fingerprint and fingerprint["replicates"] == workload.replicates:
        ok = _close(snapshot["sigma2"], fingerprint["sigma2"], KERNEL_RTOL)
        report.fingerprint = "match" if ok else "mismatch"
        if not ok:
            report.mismatch(
                f"seed-0 sigma2 {snapshot['sigma2']!r} != {fingerprint['sigma2']!r}"
            )
    return report


def check(workload, state, snapshot: dict, seed: int) -> Report:
    if isinstance(workload, KernelWorkload):
        return check_kernel(workload, state, snapshot, seed)
    return check_mc(workload, state["config"], snapshot, seed)
