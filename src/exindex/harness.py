"""Configuration-driven Monte Carlo experiments over the estimators.

An experiment is described by a JSON-serializable config: a model, a sample
size, block lengths, the number k of top order statistics, a threshold grid,
an optional correcting measure with its bias exponent delta, a replicate
count, and a base seed.  Replicates run through :func:`sim.map_replicates`
with the base seed and are reduced in replicate order, so reruns are
bit-identical.

Outputs are plot-ready CSVs plus a JSON sidecar carrying the full config and
package version: per-replicate curves (so every summary row can be recomputed
exactly), per-(r, t) summaries with bias and RMSE against the closed-form
curve targets where available, and Figure-style bundles of blocks, runs, and
corrected curves averaged with standard-deviation bands.

One ``estimate.CurveKernel``, built once per config, is called once per
group of replicates: it partially sorts each replicate once, takes the
integer counts of every block length and the runs curves from that one slice,
and turns the group's counts into blocks and corrected curves.  ``sweep`` and
``corrected_curve`` call the same kernel on one sample and one block length.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .biascorrect import (
    SignedMeasureAtoms,
    check_conditions,
    product_measure,
    read_measure_csv,
    two_atom_measure,
)
from .errors import MeasureConditionError
from .estimate import CODE_NAMES, CurveKernel, _real, _whole, check_grid, check_run_length
# perfbench/layers.py traces these bindings
from .biascorrect import corrected_curve  # noqa: F401
from .estimate import runs_estimator, sweep  # noqa: F401
from .oracle import theta_nt_mm_exact, theta_nt_wn  # noqa: F401
from .sim import (
    IID,
    AR1Cauchy,
    MovingMaxima,
    RandomRepetition,
    SecondOrderPareto,
    StandardCauchy,
    Uniform01,
    UnitPareto,
    _config_value,
    config_fields,
    map_replicates,
)
from .sim import generate  # noqa: F401  (perfbench/layers.py traces this binding)

__all__ = [
    "ExperimentConfig",
    "MCResult",
    "NormalityReport",
    "run",
    "figure1_bundle",
    "normality_check",
    "model_from_dict",
]


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

# config name -> class; each class writes its own name in ``to_dict``
_MODELS = {cls.name: cls for cls in (IID, RandomRepetition, AR1Cauchy, MovingMaxima)}
_MODELS.update(random_repetition=RandomRepetition, moving_maxima=MovingMaxima)
_INNOVATIONS = {
    cls.name: cls for cls in (Uniform01, StandardCauchy, UnitPareto, SecondOrderPareto)
}


def _key(d: dict, key: str, where: str):
    """``d[key]``, with a ``ValueError`` that names the key if it is missing."""
    try:
        return d[key]
    except KeyError:
        raise ValueError(f"missing key {key!r} in {where}") from None


_REQUIRED = object()


def _int(value) -> int:
    """``int(value)`` for a whole number; a fractional one is rejected, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} is not a whole number")
    return int(value)


def _cast(cast, value):
    """``cast(value)``, with a JSON boolean rejected: ``int`` and ``float`` read it as 1 or 0."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return cast(value)


def _number(d: dict, key: str, where: str, cast=float, default=_REQUIRED):
    """``cast(d[key])``, or ``default`` when the key is absent and one is given.

    ``cast`` is ``float`` or ``_int``.  A missing required key, or a value
    ``cast`` rejects (a boolean, a list, an object, a non-numeric string, a
    fraction for an integer), raises ``ValueError`` naming the key.
    """
    if default is not _REQUIRED and key not in d:
        return default
    value = _key(d, key, where)
    try:
        return _cast(cast, value)
    except (TypeError, ValueError):
        what = "an integer" if cast is _int else "a number"
        raise ValueError(f"{where} key {key!r} must be {what}, got {value!r}") from None


def _numbers(values, key: str, where: str, cast=float) -> tuple:
    """The list ``values`` of key ``key`` as a tuple of ``cast`` numbers."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{where} key {key!r} must be a list, got {values!r}")
    try:
        return tuple(_cast(cast, v) for v in values)
    except (TypeError, ValueError):
        what = "integers" if cast is _int else "numbers"
        raise ValueError(
            f"{where} key {key!r} must be a list of {what}, got {values!r}"
        ) from None


def _object(d, what: str) -> dict:
    """``d`` itself if it is a JSON object, else a ``ValueError`` naming ``what``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object, got {d!r}")
    return d


def _from_dict(d: dict, registry: dict, what: str):
    """``registry[d["name"]]`` built from the other keys of ``d``.

    Every constructor field is a required float key, except ``coeffs``
    (a list of floats) and ``innovation`` (a law, uniform when omitted).
    Missing, unknown and wrongly typed keys raise ``ValueError`` naming them.
    """
    name = _key(_object(d, what), "name", what)
    cls = registry.get(str(name).lower().replace("-", "_"))
    if cls is None:
        raise ValueError(f"unknown {what} {name!r}")
    keys = config_fields(cls)
    unknown = sorted(set(d) - set(keys) - {"name"})
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    kwargs = {}
    for key in keys:
        if key == "innovation":
            kwargs[key] = _innovation_from_dict(d.get(key))
        elif key == "coeffs":
            kwargs[key] = _numbers(_key(d, key, what), key, what)
        else:
            kwargs[key] = _number(d, key, what)
    return cls(**kwargs)


def _innovation_from_dict(d) -> object:
    if d is None:
        return Uniform01()
    return _from_dict({"name": d} if isinstance(d, str) else d, _INNOVATIONS, "innovation")


def model_from_dict(d: dict):
    """Build a model from {"name": ..., <params>}.

    Names: iid, wn (alias random_repetition), ar1_cauchy, mm (alias
    moving_maxima); an innovation is {"name": ..., <params>} or just its name
    (uniform, cauchy, pareto, second_order_pareto).
    """
    return _from_dict(d, _MODELS, "model")


# measure kind -> its builder and the keys it takes, in order, besides "kind" and "delta"
_MEASURES = {
    "two_atom": (two_atom_measure, ("p", "q", "a")),
    "product": (product_measure, ("kappa", "a", "b", "m")),
    "file": (read_measure_csv, ("path",)),
}
_MEASURES.update(product_construction=_MEASURES["product"])
# what ``_measure_to_dict`` writes to meta.json: a provenance, with the atoms embedded
_EMBEDDED_MEASURE_KEYS = frozenset(("kind", "delta", "atom_count", "total_variation", "atoms"))
_PROVENANCES = ("two_atom", "product_construction", "custom")


def _measure_arg(d: dict, key: str, where: str):
    """Builder argument ``key``: ``m`` a whole number, ``path`` a string, any other a number."""
    if key != "path":
        return _number(d, key, where, _int if key == "m" else float)
    path = _key(d, key, where)
    if not isinstance(path, str):  # open() would take an integer for a file descriptor
        raise ValueError(f"{where} key 'path' must be a string, got {path!r}")
    return path


def _measure_from_dict(d, where="measure"):
    """``(measure, delta)`` from a measure object, which ``where`` names in errors."""
    if d is None:
        return None, 1.0
    embedded = "atoms" in _object(d, where) or "atom_count" in d
    kind = str(d.get("kind", "custom" if embedded else "two_atom")).lower()
    if embedded and kind not in _PROVENANCES:
        raise ValueError(f"{where} key 'kind' of embedded atoms must be one of "
                         f"{', '.join(_PROVENANCES)}, got {d['kind']!r}")
    if not embedded and kind not in _MEASURES:
        raise ValueError(f"unknown {where} kind {kind!r}")
    allowed = _EMBEDDED_MEASURE_KEYS if embedded else {"kind", "delta", *_MEASURES[kind][1]}
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    delta = _number(d, "delta", where, default=1.0)
    if not embedded:
        build, keys = _MEASURES[kind]
        return build(*(_measure_arg(d, key, where) for key in keys)), delta
    atoms = _key(d, "atoms", where)
    if not isinstance(atoms, list):
        raise ValueError(f"{where} key 'atoms' must be a list, got {atoms!r}")
    mu = SignedMeasureAtoms(tuple(_numbers(atom, "atoms", where) for atom in atoms), kind)
    for key, value in (("atom_count", len(mu.atoms)), ("total_variation", mu.total_variation)):
        if d.get(key, value) != value:
            raise ValueError(f"{where} key {key!r} is {d[key]!r}, but the atoms give {value}")
    return mu, delta


def _measure_to_dict(mu: SignedMeasureAtoms, delta: float):
    if mu is None:
        return None
    return {
        "kind": mu.provenance,
        "delta": delta,
        "atom_count": len(mu.atoms),
        "total_variation": mu.total_variation,
        "atoms": [list(atom) for atom in mu.atoms],
    }


def _grid_from_spec(spec, k: int):
    if spec is None:
        return tuple(np.linspace(0.05, 1.0, 20))
    if isinstance(spec, dict):
        unknown = sorted(set(spec) - {"lo", "hi", "count"})
        if unknown:
            raise ValueError(f"unknown t_grid keys: {', '.join(unknown)}")
        lo = _number(spec, "lo", "t_grid", default=1.0 / k)
        hi = _number(spec, "hi", "t_grid", default=1.0)
        count = _number(spec, "count", "t_grid", _int)
        return tuple(np.linspace(lo, hi, max(count, 0)))  # a count below 1 is an empty grid
    return _numbers(spec, "t_grid", "config")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one Monte Carlo experiment."""

    model: object
    n: int
    r_list: tuple
    k: int
    t_grid: tuple
    measure: SignedMeasureAtoms = None
    delta: float = 1.0
    replicates: int = 100
    base_seed: int = 0
    out_dir: str = None
    run_lengths: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "t_grid", tuple(check_grid(self.t_grid, "t_grid").tolist()))
        for key, low in (("n", 1), ("replicates", 1), ("base_seed", 0)):
            object.__setattr__(self, key, _whole(getattr(self, key), key, low))
        n = self.n
        object.__setattr__(self, "k", _whole(self.k, "k", high=n - 1))
        if not self.r_list:
            raise ValueError("r_list must be nonempty")
        r_list = tuple(_whole(r, "r_list entry", high=n) for r in self.r_list)
        # every block length a run can take, by default: a run stays below n
        lengths = [r for r in r_list if r < n] if self.run_lengths is None else self.run_lengths
        run_lengths = tuple(check_run_length(length, n) for length in lengths)
        for key, whole in (("r_list", r_list), ("run_lengths", run_lengths)):
            # a repeat would write its rows twice, or once where meta.json lists it twice
            if len(set(whole)) < len(whole):
                raise ValueError(f"{key} must not repeat a value, got {whole}")
            object.__setattr__(self, key, whole)
        object.__setattr__(self, "delta", _real(self.delta, "delta", 0))
        failed = self.measure and check_conditions(self.measure, (self.delta,)).violations()
        if failed:
            code = failed[0]
            raise MeasureConditionError(f"measure fails {code} at delta={self.delta}", code)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = sorted(set(_object(d, "config")) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        measure, delta = _measure_from_dict(d.get("measure"))
        k = _number(d, "k", "config", _int)
        out_dir = d.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ValueError(f"config key 'out_dir' must be a string, got {out_dir!r}")
        run_lengths = d.get("run_lengths")
        if run_lengths is not None:  # absent or null means the default, [] no run lengths
            run_lengths = _numbers(run_lengths, "run_lengths", "config", _int)
        return cls(
            model=model_from_dict(_key(d, "model", "config")),
            n=_number(d, "n", "config", _int),
            r_list=_numbers(_key(d, "r_list", "config"), "r_list", "config", _int),
            k=k,
            t_grid=_grid_from_spec(d.get("t_grid"), k),
            measure=measure,
            delta=delta,
            replicates=_number(d, "replicates", "config", _int, 100),
            base_seed=_number(d, "base_seed", "config", _int, 0),
            out_dir=out_dir,
            run_lengths=run_lengths,
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        """Every field as a model's config form writes it; ``delta`` goes inside ``measure``."""
        out = {key: _config_value(getattr(self, key)) for key in _CONFIG_KEYS}
        out["measure"] = _measure_to_dict(self.measure, self.delta)
        return out


# the top-level keys that to_dict writes and from_dict accepts
_CONFIG_KEYS = tuple(key for key in config_fields(ExperimentConfig) if key != "delta")


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------


class Curves(NamedTuple):
    """One curve kind of an ``MCResult``: ``values[i]`` and ``codes[i]`` belong to ``keys[i]``.

    Both are (replicates x grid): values NaN where undefined, codes the
    integer skip codes of ``CODE_NAMES``, and ``codes`` None for a kind
    without them (runs).  A kind has curves.csv and summary.csv rows if and
    only if it has codes, and a band file in a figure bundle.
    """

    kind: str
    param: str
    keys: tuple
    values: np.ndarray
    codes: np.ndarray
    band_file: str


@dataclass(frozen=True, eq=False)
class MCResult:
    """Per-replicate curves plus per-(kind, r, t) summaries.

    ``curves`` is the table of curve kinds in file order, one ``Curves``
    each: ``raw`` (blocks) by r, ``runs`` by the run lengths a figure bundle
    asks for, and ``corrected`` by r, empty without a measure.  A coded
    value is NaN exactly where its code is not OK, so n_used + n_skipped
    always equals the replicate count, and ``summarize`` recomputes the
    summary from the arrays.  ``raw[r]`` and ``corrected[r]`` read values.
    """

    config: ExperimentConfig
    curves: tuple
    files: tuple = ()
    raw = property(lambda self: self._by_key("raw"))
    corrected = property(lambda self: self._by_key("corrected"))

    def _by_key(self, kind: str) -> dict:
        (entry,) = (entry for entry in self.curves if entry.kind == kind)
        return dict(zip(entry.keys, entry.values))

    def summarize(self) -> list:
        """Per-(kind, r, t) rows of each coded kind: mean, sd, bias and RMSE against references.

        Raw curves are compared with the model's finite-sample curve target
        when a closed form exists; corrected curves are compared with the
        model's extremal index.
        """
        cfg = self.config
        # every r's curve target from one call: moving maxima invert the marginal once
        targets = cfg.model.theta_nt(cfg.r_list, cfg.k / cfg.n, cfg.t_grid)
        references = {"raw": np.nan if targets is None else targets, "corrected": cfg.model.theta}
        rows = []
        for entry in self.curves:
            if entry.codes is None:
                continue
            refs = np.broadcast_to(references[entry.kind], (len(cfg.r_list), len(cfg.t_grid)))
            for r, values, ref in zip(entry.keys, entry.values, refs.tolist()):
                stats = zip(cfg.t_grid, ref, *_column_stats(values, ref))
                for t, ref_t, used, mean, sd, rmse in stats:
                    rows.append(
                        {
                            "kind": entry.kind,
                            "r": r,
                            "t": t,
                            "n_used": used,
                            "n_skipped": len(values) - used,
                            "mean": mean,
                            "sd": sd,
                            "reference": ref_t,
                            "bias": mean - ref_t if used else np.nan,
                            "rmse": rmse,
                        }
                    )
        return rows


def _column_stats(arr: np.ndarray, refs=np.nan) -> tuple:
    """Lists of (n_used, mean, sd, rmse) of the non-NaN values ``used`` of each column of ``arr``.

    ``used.mean()``, ``used.std(ddof=1)`` and ``sqrt(((used - ref) ** 2).mean())``
    with ``ref`` the column's entry of ``refs``; NaN where undefined.  Columns
    with the same count of used values are reduced together: boolean
    indexing keeps each column's used values in order, so they form the rows
    of one C-contiguous block, which numpy reduces row by row as it reduces
    one column alone, with the same bits.  The distinct counts come from a
    set, since ``np.unique`` would import ``numpy.ma``.
    """
    cols = np.ascontiguousarray(arr.T)
    refs = np.broadcast_to(refs, len(cols))
    keep = cols == cols
    n_used = np.count_nonzero(keep, axis=1)
    mean, sd, rmse = np.full((3, len(cols)), np.nan)
    for used in set(n_used.tolist()) - {0}:
        js = np.flatnonzero(n_used == used)
        block = cols[js][keep[js]].reshape(len(js), used)
        mean[js] = block.mean(axis=1)
        rmse[js] = np.sqrt(((block - refs[js, None]) ** 2).mean(axis=1))
        if used > 1:
            sd[js] = block.std(axis=1, ddof=1)
    return n_used.tolist(), mean.tolist(), sd.tolist(), rmse.tolist()


def _band_line(key, t: str, used: int, mean: str, sd: str) -> str:
    """A figure band file's row at level text ``t``: ``mean`` and ``sd`` blank unless defined."""
    return f"{key},{t},{mean if used else ''},{sd if used > 1 else ''},{used}\n"


# a row's text after its value, per code: the flag and the line end
_CODE_TAILS = [f",{name}\n" for name in CODE_NAMES.tolist()]


def _replicates(cfg: ExperimentConfig, run_lengths=()) -> tuple:
    """Simulate every replicate once: ``(MCResult, rows, flags)``.

    The grid and its budgets are checked and tabulated once, in one
    ``estimate.CurveKernel`` for every r and run length.  One kernel call
    per group of replicates (``sim.map_replicates``) sorts each path
    partially once, keeps only its integer counts and runs curves, so the
    path is dropped before the next is drawn, and turns the group's counts
    into its blocks and corrected curves.  The result's table holds the raw
    and corrected curves of every r, the kernel's rows in that order, and
    the runs curves of ``run_lengths``.  ``rows`` is None, or if
    ``cfg.out_dir`` is set each replicate's curves.csv rows, formatted where
    it ran (``_format_rows``).  ``flags`` counts the values with a skip
    code.

    Every curve reads only the values at or above the (k + 1)-th largest:
    the thresholds lie there, and a block maximum, tail value or run
    maximum counts only when it exceeds one.  So the paths are drawn with
    ``top=k + 1``, and a model that can draw only those values exactly
    (moving maxima) gives the same bytes as its full path.
    """
    kernel = CurveKernel(cfg.k, cfg.t_grid, cfg.measure, cfg.r_list, run_lengths)
    corrected = cfg.r_list if cfg.measure is not None else ()
    # the coded kinds in table order: the kernel's rows are every raw, then every corrected key
    templates = _row_templates((("raw", cfg.r_list), ("corrected", corrected)), cfg.t_grid)
    formatted = cfg.out_dir is not None

    def step(first, paths):
        values, codes, runs = kernel(map(attrgetter("values"), paths))
        rows = None
        if formatted:
            rows = [_format_rows(templates, rep, *curves) for rep, curves in
                    enumerate(zip(values.swapaxes(0, 1), codes.swapaxes(0, 1)), first)]
        return values, codes, runs, rows

    groups = map_replicates(step, cfg.model, cfg.n, cfg.base_seed, cfg.replicates, top=cfg.k + 1)
    *tables, group_rows = zip(*groups)
    # (kind and r, replicate, level), so each (kind, r) is one contiguous array
    values, codes, runs = (np.concatenate(parts, axis=1) for parts in tables)
    rows = [text for texts in group_rows for text in texts] if formatted else None
    count = len(cfg.r_list)
    curves = (
        Curves("raw", "r", cfg.r_list, values[:count], codes[:count], "blocks_curves.csv"),
        Curves("runs", "run_length", tuple(run_lengths), runs, None, "runs_curves.csv"),
        Curves("corrected", "r", corrected, values[count:], codes[count:], "corrected_curves.csv"),
    )
    return MCResult(cfg, curves), rows, int(np.count_nonzero(codes))


def run(config: ExperimentConfig) -> MCResult:
    """Execute the experiment; write curves.csv, summary.csv, meta.json if out_dir set."""
    result, rows, flags = _replicates(config)
    if rows is not None:
        result = replace(result, files=_persist(result, rows, flags))
    return result


_CURVES_HEADER = "replicate,kind,r,t,value,flag\n"


def _row_templates(kinds, t_grid) -> list:
    """``(heads, skipped)`` per (kind, key), in curves.csv order: the text of one replicate's rows.

    ``kinds`` holds the (kind, keys) pairs of the coded kinds, in table
    order.  ``heads[j]`` is the row at grid level j from the comma after the
    replicate to the comma before the value, and ``skipped[code][j]`` that
    row's text after the replicate when its value is undefined and its flag
    is ``CODE_NAMES[code]``: ``heads[j]`` and the code's tail.
    """
    templates = []
    for kind, keys in kinds:
        for key in keys:
            heads = [f",{kind},{key},{t!r}," for t in t_grid]
            skipped = [[head + tail for head in heads] for tail in _CODE_TAILS]
            templates.append((heads, skipped))
    return templates


def _format_rows(templates, rep: int, values, codes) -> list:
    """The curves.csv rows of replicate ``rep``, one string per ``templates`` entry.

    ``values`` and the integer skip ``codes`` are (templates x grid) arrays.
    Cells are formatted as summary.csv formats them: ``repr`` of a float,
    "" for an undefined value, and the code's name as the flag.  A row with
    an undefined value is copied from ``skipped``; the others are formatted.
    """
    rep_text = str(rep)
    rows = []
    for (heads, skipped), row_values, row_codes in zip(templates, values.tolist(),
                                                      codes.tolist()):
        pieces = [
            skipped[code][j] if value != value else f"{heads[j]}{value!r}{_CODE_TAILS[code]}"
            for j, (value, code) in enumerate(zip(row_values, row_codes))
        ]
        rows.append(rep_text + rep_text.join(pieces))
    return rows


def _persist(result: MCResult, rows, flags: int, bands=False) -> tuple:
    """Write curves.csv, summary.csv and meta.json, and with ``bands`` the figure bundle.

    ``rows`` and ``flags`` come from ``_replicates``.  A ``summarize`` row
    is one f-string of Python scalars, ``repr`` of each float; with
    ``bands``, its mean and sd text also make its row of its kind's band
    file, and a kind without codes takes its band rows from
    ``_column_stats``.  The band files are written in table order, then
    figure1_meta.json.  Returns the paths of the CSVs and meta.json, the
    band files last.
    """
    cfg = result.config
    os.makedirs(cfg.out_dir, exist_ok=True)
    curves_path = os.path.join(cfg.out_dir, "curves.csv")
    with open(curves_path, "w") as fh:
        fh.write(_CURVES_HEADER)
        # each (kind, r) block, its replicates in order
        for block in zip(*rows):
            fh.writelines(block)
    levels = {t: repr(t) for t in cfg.t_grid}
    lines = ["kind,r,t,n_used,n_skipped,mean,sd,reference,bias,rmse\n"]
    band_lines = {}  # (kind, key) -> rows
    for row in result.summarize():
        r, t, used = row["r"], levels[row["t"]], row["n_used"]
        mean, sd = repr(row["mean"]), repr(row["sd"])
        lines.append(
            f"{row['kind']},{r},{t},{used},{row['n_skipped']},{mean},{sd},"
            f"{row['reference']!r},{row['bias']!r},{row['rmse']!r}\n"
        )
        if bands:
            band_lines.setdefault((row["kind"], r), []).append(_band_line(r, t, used, mean, sd))
    summary_path = os.path.join(cfg.out_dir, "summary.csv")
    Path(summary_path).write_text("".join(lines))
    paths = [curves_path, summary_path, os.path.join(cfg.out_dir, "meta.json")]
    config = cfg.to_dict()
    _write_json(paths[-1], config, flag_count=flags, outputs=["curves.csv", "summary.csv"])
    if not bands:
        return tuple(paths)
    for entry in result.curves:
        if entry.codes is None:  # no summary rows to take the band text from
            for key, arr in zip(entry.keys, entry.values):
                band_lines[entry.kind, key] = [
                    _band_line(key, levels[t], used, repr(mean), repr(sd))
                    for t, used, mean, sd, _ in zip(cfg.t_grid, *_column_stats(arr))
                ]
        path = os.path.join(cfg.out_dir, entry.band_file)
        body = "".join(line for key in sorted(entry.keys) for line in band_lines[entry.kind, key])
        Path(path).write_text(f"{entry.param},t,mean,sd,n_used\n{body}")
        paths.append(path)
    outputs = [os.path.basename(p) for p in paths[3:]]
    _write_json(os.path.join(cfg.out_dir, "figure1_meta.json"), config, outputs=outputs)
    return tuple(paths)


def _write_json(path, config: dict, **extra) -> None:
    """A JSON sidecar: the package, its version, the config dict and ``extra``.

    A non-finite number raises ``ValueError`` rather than being written as a
    bare ``NaN`` or ``Infinity`` token, which is not JSON.
    """
    payload = {"package": "exindex", "version": __version__, "config": config, **extra}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# Figure bundle: blocks / runs / corrected curve panels
# ---------------------------------------------------------------------------


def figure1_bundle(config: ExperimentConfig) -> tuple:
    """``run``'s three files plus blocks_curves.csv, runs_curves.csv, corrected_curves.csv.

    The band files hold per-(parameter, t) replicate means with
    standard-deviation bands; one simulation of each replicate drives every
    file, and figure1_meta.json lists the band files.  Returns the six paths.
    """
    if config.out_dir is None:
        raise ValueError("figure1_bundle requires out_dir")
    return _persist(*_replicates(config, config.run_lengths), bands=True)


# ---------------------------------------------------------------------------
# Normality and variance-stability check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalityReport:
    """Distributional diagnostics for sqrt(n v) * t * (estimate - curve target)."""

    t: float
    skewness: float
    kurtosis_excess: float
    stat: float
    pvalue: float
    variance: float
    variance_doubled: float
    variance_ratio: float
    degenerate: bool


def _standardized_estimates(cfg: ExperimentConfig):
    """sqrt(n v) * t * (estimate - curve target) of each replicate with an estimate.

    ``cfg`` has one block length and one level.
    """
    (r,), (t,) = cfg.r_list, cfg.t_grid
    v = cfg.k / cfg.n
    target = cfg.model.theta_nt(r, v, t)
    if target is None:
        raise ValueError("normality check needs a model with a closed-form curve target")
    vals = _replicates(cfg)[0].raw[r][:, 0]
    vals = vals[~np.isnan(vals)]
    return np.sqrt(cfg.n * v) * t * (vals - target)


def normality_check(config: ExperimentConfig) -> NormalityReport:
    """Check approximate normality and variance stability of the blocks estimator.

    Standardizes replicate estimates of the first block length at the largest
    grid level against the closed-form curve target, reports skewness, excess
    kurtosis, and an omnibus normality statistic, and compares the
    standardized variance against a doubled sample size (k doubled too,
    keeping the exceedance fraction fixed).  Independent data drive the limit
    variance to 0, so near-zero variance is reported as degenerate rather than
    failed.
    """
    from scipy import stats  # loaded here, so no other run imports scipy

    level = (max(config.t_grid),)
    cfg = replace(config, r_list=config.r_list[:1], t_grid=level, measure=None, out_dir=None)
    z1 = _standardized_estimates(cfg)
    z2 = _standardized_estimates(
        replace(cfg, n=2 * cfg.n, k=2 * cfg.k, base_seed=cfg.base_seed + 1)
    )
    if len(z1) < 8 or len(z2) < 2:  # scipy's normaltest takes 8, a sample variance 2
        raise ValueError(f"normality check needs 8 usable estimates at n and 2 at 2n, "
                         f"got {len(z1)} and {len(z2)}")
    var1 = float(z1.var(ddof=1))
    var2 = float(z2.var(ddof=1))
    stat, pvalue = stats.normaltest(z1)
    return NormalityReport(
        t=cfg.t_grid[0],
        skewness=float(stats.skew(z1)),
        kurtosis_excess=float(stats.kurtosis(z1)),
        stat=float(stat),
        pvalue=float(pvalue),
        variance=var1,
        variance_doubled=var2,
        variance_ratio=var2 / var1 if var1 > 0 else np.inf,
        degenerate=var1 < 0.1,
    )
