"""Experiment configs, the Monte Carlo driver, and its persisted outputs."""

import csv
import json
import math
import os

import numpy as np
import pytest
from scipy import stats

import exindex as ex
from exindex import harness
from exindex.estimate import OK
from exindex.sim import config_fields
from test_properties import per_cell_files

WN = ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01())


def small_config(**overrides):
    base = dict(
        model=WN,
        n=400,
        r_list=(5,),
        k=40,
        t_grid=(0.25, 0.5, 0.75, 1.0),
        measure=ex.two_atom_measure(0.5, 1.0, 2.0),
        replicates=30,
        base_seed=0,
    )
    base.update(overrides)
    return ex.ExperimentConfig(**base)


# the config form of every registered model and innovation class
CONFIG_FORMS = [
    (ex.Uniform01(), {"name": "uniform"}),
    (ex.StandardCauchy(), {"name": "cauchy"}),
    (ex.UnitPareto(alpha=1.5), {"name": "pareto", "alpha": 1.5}),
    (
        ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5),
        {"name": "second_order_pareto", "beta1": 2.0, "beta2": 1.0, "c1": 1.0, "c2": 0.5},
    ),
    (
        ex.IID(innovation=ex.UnitPareto(alpha=1.5)),
        {"name": "iid", "innovation": {"name": "pareto", "alpha": 1.5}},
    ),
    (
        ex.RandomRepetition(psi=0.25, innovation=ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5)),
        {
            "name": "wn",
            "psi": 0.25,
            "innovation": {
                "name": "second_order_pareto", "beta1": 2.0, "beta2": 1.0, "c1": 1.0, "c2": 0.5,
            },
        },
    ),
    (ex.AR1Cauchy(phi=0.6), {"name": "ar1_cauchy", "phi": 0.6}),
    (
        ex.MovingMaxima(coeffs=(1, 0.5, 0.25), beta1=2.0, beta2=1.0, c1=1.0, c2=0.5),
        {"name": "mm", "coeffs": [1.0, 0.5, 0.25], "beta1": 2.0, "beta2": 1.0, "c1": 1.0,
         "c2": 0.5},
    ),
]

FORM_IDS = [type(law).__name__ for law, _ in CONFIG_FORMS]


def test_config_dict_roundtrip(tmp_path):
    cfg = small_config(r_list=(5, 10), delta=0.5, base_seed=4)
    again = ex.ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert ex.ExperimentConfig.from_json(path).to_dict() == cfg.to_dict()


def test_model_dict_roundtrip():
    models = [
        ex.IID(innovation=ex.SecondOrderPareto(2.0, 1.0, 1.0, 0.5)),
        WN,
        ex.AR1Cauchy(phi=0.6),
        ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5),
    ]
    # every registered model, and every innovation as the law of an iid model
    models += [law if hasattr(law, "theta") else ex.IID(innovation=law) for law, _ in CONFIG_FORMS]
    for model in models:
        d = model.to_dict()
        assert ex.model_from_dict(d).to_dict() == d
        assert ex.model_from_dict(d) == model  # field-less laws compare by value too


def test_every_registered_class_has_a_recorded_config_form():
    registered = {*harness._MODELS.values(), *harness._INNOVATIONS.values()}
    assert registered == {type(law) for law, _ in CONFIG_FORMS}


@pytest.mark.parametrize("law, form", CONFIG_FORMS, ids=FORM_IDS)
def test_config_form_is_the_recorded_dict(law, form):
    assert law.to_dict() == form  # a list is not equal to a tuple, so coeffs must be a list


def test_config_fields_are_the_constructor_fields():
    assert config_fields(ex.Uniform01) == ()
    assert config_fields(ex.SecondOrderPareto) == ("beta1", "beta2", "c1", "c2")  # not z_min
    assert config_fields(ex.MovingMaxima) == ("coeffs", "beta1", "beta2", "c1", "c2")
    assert config_fields(ex.RandomRepetition) == ("psi", "innovation")
    assert harness._CONFIG_KEYS == (
        "model", "n", "r_list", "k", "t_grid", "measure", "replicates", "base_seed",
        "out_dir", "run_lengths",
    )


def test_measure_spec_kinds(tmp_path):
    two = ex.ExperimentConfig.from_dict(
        dict(
            model={"name": "iid", "innovation": "uniform"},
            n=1000,
            r_list=[5],
            k=50,
            t_grid=[0.5, 1.0],
            measure={"kind": "two_atom", "p": 0.5, "q": 1.0, "a": 2.0, "delta": 0.5},
        )
    )
    assert two.measure.atoms == ex.two_atom_measure(0.5, 1.0, 2.0).atoms
    assert two.delta == 0.5

    prod = ex.ExperimentConfig.from_dict(
        dict(
            model={"name": "iid", "innovation": "uniform"},
            n=1000,
            r_list=[5],
            k=50,
            t_grid=[1.0],
            measure={"kind": "product", "kappa": 1.0, "a": 2.0, "b": 3.0, "m": 2},
        )
    )
    assert prod.measure.provenance == "product_construction"

    path = tmp_path / "mu.csv"
    ex.write_measure_csv(ex.two_atom_measure(0.4, 0.9, 2.0), path)
    filed = ex.ExperimentConfig.from_dict(
        dict(
            model={"name": "iid", "innovation": "uniform"},
            n=1000,
            r_list=[5],
            k=50,
            t_grid=[1.0],
            measure={"kind": "file", "path": str(path)},
        )
    )
    assert filed.measure.atoms == ex.two_atom_measure(0.4, 0.9, 2.0).atoms


def test_grid_specs():
    base = dict(model={"name": "iid", "innovation": "uniform"}, n=1000, r_list=[5], k=50)
    cfg = ex.ExperimentConfig.from_dict(base)
    assert len(cfg.t_grid) == 20
    assert cfg.t_grid[0] == pytest.approx(0.05) and cfg.t_grid[-1] == 1.0
    cfg = ex.ExperimentConfig.from_dict({**base, "t_grid": {"count": 5, "lo": 0.2, "hi": 1.0}})
    np.testing.assert_allclose(cfg.t_grid, np.linspace(0.2, 1.0, 5))
    cfg = ex.ExperimentConfig.from_dict({**base, "t_grid": [0.5, 1.0]})
    assert cfg.t_grid == (0.5, 1.0)
    # a misspelt bound is rejected, not replaced by its default
    for spec, unknown in (({"count": 5, "high": 0.5}, "high"),
                          ({"count": 5, "lo": 0.2, "to": 1, "from": 0}, "from, to")):
        with pytest.raises(ValueError, match=f"^unknown t_grid keys: {unknown}$"):
            ex.ExperimentConfig.from_dict({**base, "t_grid": spec})


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replicates=0)
    with pytest.raises(ValueError):
        small_config(r_list=())
    with pytest.raises(ValueError):
        small_config(t_grid=(0.0, 1.0))
    with pytest.raises(ValueError):
        small_config(delta=0.0)
    for delta in (math.inf, math.nan):
        # rejected with or without a measure, not only by its condition check
        for measure in (None, ex.two_atom_measure(0.5, 1.0, 2.0)):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                small_config(delta=delta, measure=measure)
    with pytest.raises(ValueError):
        small_config(k=400)  # k must stay below n
    assert small_config(run_lengths=None).run_lengths == (5,)
    assert small_config(run_lengths=(3, 7)).run_lengths == (3, 7)
    # a fractional length is rejected, as from_dict rejects it, not truncated
    for key, lengths in (("r_list", (5.7,)), ("run_lengths", (3, 7.5))):
        with pytest.raises(ValueError, match=rf"^{key} must hold whole numbers, got \({lengths[0]}"):
            small_config(**{key: lengths})
    assert small_config(r_list=(5.0,), run_lengths=(3.0,)).r_list == (5,)


def test_config_rejects_unknown_keys():
    base = dict(model={"name": "iid", "innovation": "uniform"}, n=1000, r_list=[5], k=50)
    with pytest.raises(ValueError, match="unknown config keys: replicate$"):
        ex.ExperimentConfig.from_dict({**base, "replicate": 3})
    with pytest.raises(ValueError, match="unknown config keys: replicate, seed$"):
        ex.ExperimentConfig.from_dict({**base, "seed": 1, "replicate": 3})
    # every key that to_dict writes is accepted back
    full = small_config(out_dir="exp", run_lengths=(3,)).to_dict()
    assert ex.ExperimentConfig.from_dict(full).to_dict() == full
    # every model starts stationary, so there is no burn-in to configure
    with pytest.raises(ValueError, match="unknown config keys: burn_in$"):
        ex.ExperimentConfig.from_dict({**full, "burn_in": 0})


def test_config_checks_its_measure_at_its_own_delta():
    with pytest.raises(ex.MeasureConditionError, match="fails M1_VIOLATION at delta=1.0") as err:
        small_config(measure=ex.SignedMeasureAtoms(((0.25, 1.0, 1.0), (0.5, 1.0, -1.0))))
    assert err.value.code == "M1_VIOLATION"
    # two cancelling pairs whose level integrals cancel at delta = 3 and nowhere probed by default
    pair, other = ex.two_atom_measure(0.5, 1.0, 2.0), ex.two_atom_measure(0.8, 0.4, 2.0)
    integral = lambda mu: ex.check_conditions(mu, (3.0,)).m2_integrals[3.0]
    w = -integral(pair) / integral(other)
    mu = ex.SignedMeasureAtoms(pair.atoms + tuple((s, t, w * x) for s, t, x in other.atoms))
    assert ex.check_conditions(mu).ok
    assert small_config(measure=mu, delta=1.0).measure == mu
    with pytest.raises(ex.MeasureConditionError, match="fails M2_VIOLATION at delta=3.0") as err:
        small_config(measure=mu, delta=3.0)
    assert err.value.code == "M2_VIOLATION"
    for mu in (ex.product_measure(1.0, 2.0, 1.5, 4), ex.product_measure(0.5, 3.0, 2.0, 8)):
        for delta in (0.5, 1.0, 2.0):
            assert small_config(measure=mu, delta=delta).delta == delta


def test_config_rejects_grid_that_is_not_strictly_increasing():
    with pytest.raises(ValueError, match="strictly increasing"):
        small_config(t_grid=(0.25, 0.5, 0.5, 1.0))  # duplicated level
    with pytest.raises(ValueError, match="strictly increasing"):
        small_config(t_grid=(1.0, 0.75, 0.5))  # descending
    base = dict(model={"name": "iid", "innovation": "uniform"}, n=1000, r_list=[5], k=50)
    with pytest.raises(ValueError, match="strictly increasing"):
        ex.ExperimentConfig.from_dict({**base, "t_grid": [0.5, 0.5, 1.0]})


def test_config_names_missing_keys():
    base = dict(model={"name": "wn", "psi": 0.6}, n=1000, r_list=[5], k=50)
    cases = [
        ({key: val for key, val in base.items() if key != "k"}, "'k' in config"),
        ({**base, "model": {"psi": 0.6}}, "'name' in model"),
        ({**base, "model": {"name": "wn"}}, "'psi' in model"),
        ({**base, "model": {"name": "iid", "innovation": {"name": "pareto"}}},
         "'alpha' in innovation"),
        ({**base, "measure": {"kind": "two_atom", "p": 0.5, "a": 2.0}}, "'q' in measure"),
    ]
    for d, where in cases:
        with pytest.raises(ValueError, match=f"^missing key {where}$"):
            ex.ExperimentConfig.from_dict(d)


def test_config_rejects_unknown_model_and_innovation_keys():
    base = dict(n=1000, r_list=[5], k=50)
    with pytest.raises(ValueError, match="^unknown model keys: psi$"):
        ex.ExperimentConfig.from_dict(
            {**base, "model": {"name": "ar1_cauchy", "phi": 0.6, "psi": 0.3}}
        )
    with pytest.raises(ValueError, match="^unknown model keys: innovation$"):
        ex.model_from_dict(
            {"name": "mm", "coeffs": [1.0], "beta1": 2, "beta2": 1, "c1": 1, "c2": 0.5,
             "innovation": "uniform"}
        )
    with pytest.raises(ValueError, match="^unknown innovation keys: alpha, beta$"):
        ex.model_from_dict(
            {"name": "iid", "innovation": {"name": "cauchy", "beta": 1, "alpha": 2}}
        )
    with pytest.raises(ValueError, match="^unknown model 'ar2'$"):
        ex.model_from_dict({"name": "ar2"})
    with pytest.raises(ValueError, match="^unknown innovation 'gauss'$"):
        ex.model_from_dict({"name": "iid", "innovation": "gauss"})


def test_measure_rejects_unknown_and_names_missing_keys():
    base = dict(model={"name": "iid"}, n=1000, r_list=[5], k=50, t_grid=[0.5, 1.0])
    two = {"kind": "two_atom", "p": 0.5, "q": 1.0, "a": 2.0}
    prod = {"kind": "product", "kappa": 1.0, "a": 2.0, "b": 3.0, "m": 2}
    embedded = small_config().to_dict()["measure"]
    assert sorted(embedded) == ["atom_count", "atoms", "delta", "kind", "total_variation"]
    cases = [
        ({**two, "x": 3}, "^unknown measure keys: x$"),
        ({**two, "kappa": 1.0, "b": 3.0}, "^unknown measure keys: b, kappa$"),
        ({**prod, "p": 0.5}, "^unknown measure keys: p$"),
        ({**prod, "kind": "product_construction", "q": 1.0}, "^unknown measure keys: q$"),
        ({"kind": "file", "path": "mu.csv", "m": 2}, "^unknown measure keys: m$"),
        ({**embedded, "p": 0.5}, "^unknown measure keys: p$"),
        ({**embedded, "atom_count": 7}, "^measure key 'atom_count' is 7, but the atoms give 2$"),
        ({**embedded, "total_variation": -3},
         r"^measure key 'total_variation' is -3, but the atoms give 2.0$"),
        ({key: val for key, val in two.items() if key != "p"}, "^missing key 'p' in measure$"),
        ({"q": 1.0, "a": 2.0}, "^missing key 'p' in measure$"),  # two_atom is the default kind
        ({key: val for key, val in prod.items() if key != "kappa"},
         "^missing key 'kappa' in measure$"),
        ({"kind": "file"}, "^missing key 'path' in measure$"),
        ({key: val for key, val in embedded.items() if key != "atoms"},
         "^missing key 'atoms' in measure$"),
        ({"kind": "normal", "p": 0.5}, "^unknown measure kind 'normal'$"),
        ({**embedded, "kind": "banana"}, "^measure key 'kind' of embedded atoms must be one of "
         "two_atom, product_construction, custom, got 'banana'$"),
        ({**embedded, "kind": "product"}, "^measure key 'kind' of embedded atoms must be one of "
         "two_atom, product_construction, custom, got 'product'$"),
        ({**two, "p": "half"}, "^measure key 'p' must be a number, got 'half'$"),
        ({**prod, "m": 2.5}, "^measure key 'm' must be an integer, got 2.5$"),
        ({"kind": "file", "path": 0}, "^measure key 'path' must be a string, got 0$"),
        (0.5, "^measure must be an object, got 0.5$"),
    ]
    for measure, message in cases:
        with pytest.raises(ValueError, match=message):
            ex.ExperimentConfig.from_dict({**base, "measure": measure})


def test_measure_meta_json_form_roundtrips(tmp_path):
    for mu in (
        ex.two_atom_measure(0.5, 1.0, 2.0),
        ex.product_measure(1.0, 2.0, 3.0, 4),
        ex.product_measure(1.0, 2.0, 3.0, 8),  # 128 atoms
    ):
        cfg = small_config(measure=mu, delta=0.5, replicates=2, out_dir=str(tmp_path / "exp"))
        ex.run(cfg)
        written = json.loads((tmp_path / "exp" / "meta.json").read_text())["config"]
        assert written["measure"]["atom_count"] == len(mu.atoms)
        again = ex.ExperimentConfig.from_dict(written)
        assert again.measure == mu and again.delta == 0.5
        assert again.to_dict() == written


def test_embedded_atoms_are_labelled_with_a_provenance_the_package_writes(tmp_path):
    # atoms without a kind are custom, whatever built them
    product = ex.product_measure(1, 2, 1.5, 2)
    atoms = [list(atom) for atom in product.atoms]
    assert len(atoms) == 8
    mu, _ = harness._measure_from_dict({"atoms": atoms})
    assert mu.provenance == "custom" and mu.atoms == product.atoms
    ex.write_measure_csv(ex.two_atom_measure(0.5, 1.0, 2.0), tmp_path / "mu.csv")
    from_file = ex.read_measure_csv(tmp_path / "mu.csv")
    for mu, kind in ((product, "product_construction"), (from_file, "custom"),
                     (ex.two_atom_measure(0.5, 1.0, 2.0), "two_atom")):
        written = small_config(measure=mu).to_dict()
        assert written["measure"]["kind"] == kind
        again = ex.ExperimentConfig.from_dict(written)
        assert again.measure == mu and again.to_dict() == written
        bare = {key: value for key, value in written["measure"].items() if key != "kind"}
        unlabelled = ex.ExperimentConfig.from_dict({**written, "measure": bare})
        assert unlabelled.measure.provenance == "custom"
        assert unlabelled.measure.atoms == mu.atoms


@pytest.mark.parametrize("run_lengths", [[0], [5000], [5, 2000], [-3]])
def test_config_rejects_a_run_length_the_runs_estimator_cannot_use(run_lengths):
    base = dict(model={"name": "wn", "psi": 0.6}, n=2000, r_list=[5], k=100)
    bad = next(length for length in run_lengths if not 1 <= length < 2000)
    with pytest.raises(ValueError, match=f"^need 1 <= run_length < n, got run_length={bad}, "
                                         "n=2000$"):
        ex.ExperimentConfig.from_dict({**base, "run_lengths": run_lengths})


def test_default_run_lengths_are_the_block_lengths_below_n(tmp_path):
    base = dict(model={"name": "wn", "psi": 0.6}, n=2000, k=100)
    # a block length may equal n, a run length may not: the default leaves it out
    assert ex.ExperimentConfig.from_dict({**base, "r_list": [2000]}).run_lengths == ()
    for r_list, run_lengths in (([5, 2000], [5]), ([2000], [])):
        out_dir = str(tmp_path / f"exp{len(r_list)}")
        cfg = ex.ExperimentConfig.from_dict(
            {**base, "r_list": r_list, "t_grid": [0.5, 1.0], "replicates": 2, "out_dir": out_dir}
        )
        assert list(cfg.run_lengths) == run_lengths
        ex.figure1_bundle(cfg)
        with open(os.path.join(out_dir, "runs_curves.csv")) as fh:
            assert {row["run_length"] for row in csv.DictReader(fh)} == set(map(str, run_lengths))
        with open(os.path.join(out_dir, "meta.json")) as fh:
            written = json.load(fh)["config"]
        assert written["run_lengths"] == run_lengths
        assert ex.ExperimentConfig.from_dict(written) == cfg
    # a run length the config names keeps the strict check
    with pytest.raises(ValueError, match="^need 1 <= run_length < n, got run_length=2000"):
        ex.ExperimentConfig.from_dict({**base, "r_list": [2000], "run_lengths": [2000]})


def test_a_config_without_run_lengths_round_trips_through_its_json():
    cfg = small_config(r_list=(5,), run_lengths=())
    written = json.loads(json.dumps(cfg.to_dict()))
    assert written["run_lengths"] == []
    back = ex.ExperimentConfig.from_dict(written)
    assert back.run_lengths == ()
    assert back == cfg
    # an absent or null run_lengths means the default: the block lengths below n
    for d in ({k: v for k, v in written.items() if k != "run_lengths"},
              {**written, "run_lengths": None}):
        assert ex.ExperimentConfig.from_dict(d).run_lengths == (5,)


def test_wrongly_typed_config_values_name_their_key():
    base = dict(model={"name": "iid"}, n=1000, r_list=[5], k=50)
    cases = [
        ({**base, "n": [1000]}, r"^config key 'n' must be an integer, got \[1000\]$"),
        ({**base, "k": 50.9}, "^config key 'k' must be an integer, got 50.9$"),  # not 50
        ({**base, "replicates": 3.5}, "^config key 'replicates' must be an integer, got 3.5$"),
        ({**base, "r_list": [5, 7.5]},
         r"^config key 'r_list' must be a list of integers, got \[5, 7.5\]$"),
        ({**base, "t_grid": 0.5}, "^config key 't_grid' must be a list, got 0.5$"),
        ({**base, "t_grid": {"count": None}}, "^t_grid key 'count' must be an integer, got None$"),
        ({**base, "replicates": None}, "^config key 'replicates' must be an integer, got None$"),
        ({**base, "model": {"name": "wn", "psi": [0.6]}},
         r"^model key 'psi' must be a number, got \[0.6\]$"),
        ({**base, "model": {"name": "iid", "innovation": 2}},
         "^innovation must be an object, got 2$"),
    ]
    for d, message in cases:
        with pytest.raises(ValueError, match=message):
            ex.ExperimentConfig.from_dict(d)
    with pytest.raises(ValueError, match=r"^config must be an object, got \[1, 2\]$"):
        ex.ExperimentConfig.from_dict([1, 2])
    # an empty run_lengths list means no run lengths; whole floats are integers
    assert ex.ExperimentConfig.from_dict({**base, "run_lengths": []}).run_lengths == ()
    assert ex.ExperimentConfig.from_dict({**base, "k": 50.0}).k == 50


def test_model_aliases_and_innovation_string_form():
    wn = ex.model_from_dict({"name": "random_repetition", "psi": 0.6, "innovation": "cauchy"})
    assert wn.to_dict() == {"name": "wn", "psi": 0.6, "innovation": {"name": "cauchy"}}
    mm = ex.model_from_dict(
        {"name": "moving_maxima", "coeffs": [1, 0.5], "beta1": 2, "beta2": 1, "c1": 1, "c2": 0.5}
    )
    assert mm == ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2.0, beta2=1.0, c1=1.0, c2=0.5)
    assert mm.to_dict()["name"] == "mm"
    iid = ex.model_from_dict({"name": "iid"})
    assert iid.to_dict() == {"name": "iid", "innovation": {"name": "uniform"}}


def test_model_theta_nt_dispatch():
    assert ex.IID(innovation=ex.Uniform01()).theta_nt(10, 0.01, 1.0) == (
        ex.theta_nt_wn(0.0, 10, 0.01, 1.0)
    )
    assert WN.theta_nt(10, 0.01, 0.5) == ex.theta_nt_wn(0.6, 10, 0.01, 0.5)
    mm = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    assert mm.theta_nt(10, 0.01, 1.0) == pytest.approx(ex.theta_nt_mm_exact(mm, 10, 0.01, 1.0))
    assert ex.AR1Cauchy(phi=0.6).theta_nt(10, 0.01, 1.0) is None
    # scalars, numpy ones included, give a Python float on every closed form
    for model in (WN, ex.IID(innovation=ex.Uniform01()), mm):
        for r, t in ((10, 0.5), (np.int64(5), np.float64(1.0))):
            assert type(model.theta_nt(r, 0.01, t)) is float


_EXAMPLE_MODELS = {
    "iid": ex.IID(innovation=ex.Uniform01()),
    "wn": WN,
    "ar1_cauchy": ex.AR1Cauchy(phi=0.6),
    "mm": ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5),
}


@pytest.mark.parametrize("name", sorted(harness._MODELS))
def test_every_model_answers_its_own_curve_target_and_bias_expansion(name):
    cls = harness._MODELS[name]
    model = _EXAMPLE_MODELS[cls.name]
    assert type(model) is cls
    v, grid = 0.01, (0.25, 0.5, 1.0)
    target, expansion = model.theta_nt((5, 10), v, grid), model.bias_expansion(10, v)
    if cls is ex.AR1Cauchy:
        assert target is None and expansion is None
        assert model.theta_nt(10, v, 1.0) is None
        return
    assert target.shape == (2, len(grid))
    if cls is ex.MovingMaxima:
        assert target.tolist() == ex.theta_nt_mm_exact(model, (5, 10), v, grid).tolist()
        assert model.theta_nt(10, v, 0.5) == ex.theta_nt_mm_exact(model, 10, v, 0.5)
        assert expansion == ex.bias_expansion_mm(model, 10, v)
        return
    # independent data are random repetition at psi = 0, bit for bit
    assert model.psi == (0.0 if cls is ex.IID else 0.6)
    rows = [[ex.theta_nt_wn(model.psi, r, v, t).hex() for t in grid] for r in (5, 10)]
    assert [[x.hex() for x in row] for row in target.tolist()] == rows
    assert model.theta_nt(10, v, 0.5).hex() == ex.theta_nt_wn(model.psi, 10, v, 0.5).hex()
    assert expansion == ex.bias_expansion_wn(model.psi, 10, v)
    assert model.theta == 1.0 - model.psi


def test_mm_summary_reference_equals_scalar_oracle_calls():
    mm = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    # v = 0.75 puts the levels in the body of the law, where rounding differences show
    grid = np.linspace(0.2, 1.0, 81)
    cfg = small_config(
        model=mm, r_list=(5, 10, 20), k=300, t_grid=grid, measure=None, replicates=2
    )
    v = cfg.k / cfg.n
    rows = [row for row in ex.run(cfg).summarize() if row["kind"] == "raw"]
    assert len(rows) == len(cfg.r_list) * len(cfg.t_grid)
    marginal = mm.marginal
    for row in rows:
        r, vt = row["r"], v * row["t"]
        assert row["reference"] == ex.theta_nt_mm_exact(mm, r, v, row["t"])  # bit for bit
        # the scalar formula, one level at a time
        nonexceed = ex.mm_block_nonexceed(mm, r, marginal.quantile(1.0 - vt))
        assert row["reference"] == (1.0 - nonexceed) / (r * vt)
    curve = ex.theta_nt_mm_exact(mm, 5, v, grid)
    assert curve.tolist() == [ex.theta_nt_mm_exact(mm, 5, v, t) for t in cfg.t_grid]


def test_summary_inverts_the_mm_marginal_once_for_every_r(monkeypatch):
    mm = ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5)
    grid = np.linspace(0.2, 1.0, 81)
    cfg = small_config(
        model=mm, r_list=(5, 10, 20), k=300, t_grid=grid, measure=None, replicates=2
    )
    v = cfg.k / cfg.n
    result = ex.run(cfg)
    inverted = []
    quantile = type(mm.marginal).quantile

    def counted(self, p):
        inverted.append(p)
        return quantile(self, p)

    monkeypatch.setattr(type(mm.marginal), "quantile", counted)
    rows = result.summarize()
    assert len(inverted) == 1
    by_r = ex.theta_nt_mm_exact(mm, cfg.r_list, v, grid)
    assert by_r.shape == (len(cfg.r_list), len(grid))
    for i, r in enumerate(cfg.r_list):
        per_r = ex.theta_nt_mm_exact(mm, r, v, grid)  # bit for bit: one call per r
        assert [x.hex() for x in by_r[i].tolist()] == [x.hex() for x in per_r.tolist()]
        got = [row["reference"] for row in rows if row["kind"] == "raw" and row["r"] == r]
        assert [x.hex() for x in got] == [x.hex() for x in per_r.tolist()]
    assert ex.theta_nt_mm_exact(mm, [5], v, 0.5).tolist() == [ex.theta_nt_mm_exact(mm, 5, v, 0.5)]


def test_model_theta_nt_gives_one_row_per_block_length():
    v, grid = 0.01, (0.25, 0.5, 1.0)
    for model in (WN, ex.IID(innovation=ex.Uniform01())):
        rows = model.theta_nt((5, 10), v, grid)
        assert rows.tolist() == [model.theta_nt(r, v, grid).tolist() for r in (5, 10)]
        assert rows[1, 2] == model.theta_nt(10, v, 1.0)
    assert ex.AR1Cauchy(phi=0.6).theta_nt((5, 10), v, grid) is None


@pytest.mark.parametrize(
    "overrides",
    [
        {},  # random repetition: ties, skipped cells and a corrected kind
        {"model": ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5),
         "measure": None, "r_list": (5, 10), "run_lengths": (2, 5)},
    ],
)
def test_summary_and_band_files_have_the_bytes_of_the_per_cell_writer(tmp_path, overrides):
    cfg = small_config(out_dir=str(tmp_path / "text"), **overrides)
    harness.figure1_bundle(cfg)
    # the same seeds give the same curves
    result, *_ = harness._replicates(cfg, cfg.run_lengths)
    (tmp_path / "cells").mkdir()
    per_cell_files(result, tmp_path / "cells")
    for name in ("summary.csv", "blocks_curves.csv", "runs_curves.csv", "corrected_curves.csv"):
        assert (tmp_path / "text" / name).read_bytes() == (tmp_path / "cells" / name).read_bytes()


def test_run_deterministic_and_flag_accounted():
    cfg = small_config()
    res1 = ex.run(cfg)
    res2 = ex.run(cfg)
    assert [entry.kind for entry in res1.curves] == ["raw", "runs", "corrected"]
    for entry1, entry2 in zip(res1.curves, res2.curves):
        assert entry1.kind == entry2.kind and entry1.keys == entry2.keys
        np.testing.assert_array_equal(entry1.values, entry2.values)
        np.testing.assert_array_equal(entry1.codes, entry2.codes)
    coded = [entry for entry in res1.curves if entry.codes is not None]
    assert [entry.kind for entry in coded] == ["raw", "corrected"]
    for entry in coded:
        assert entry.keys == cfg.r_list
    # every NaN cell is matched by exactly one flag code
    nan_cells = sum(int(np.isnan(entry.values).sum()) for entry in coded)
    flag_cells = sum(int((entry.codes != OK).sum()) for entry in coded)
    assert flag_cells == nan_cells
    for entry in coded:
        assert (np.isnan(entry.values) == (entry.codes != OK)).all()
    for row in res1.summarize():
        assert row["n_used"] + row["n_skipped"] == cfg.replicates


def test_run_without_measure_has_no_corrected_curves():
    cfg = small_config(measure=None)
    res = ex.run(cfg)
    assert res.corrected == {}
    raw, runs, corrected = res.curves
    assert corrected.kind == "corrected" and corrected.keys == ()
    assert corrected.values.shape == corrected.codes.shape == (0, cfg.replicates, len(cfg.t_grid))
    assert runs.keys == () and runs.codes is None


def test_summary_file_recomputable_from_curves(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "exp"), replicates=10)
    res = ex.run(cfg)
    assert [os.path.basename(p) for p in res.files] == [
        "curves.csv",
        "summary.csv",
        "meta.json",
    ]
    by_group = {}
    with open(res.files[0]) as fh:
        for row in csv.DictReader(fh):
            if row["value"]:
                key = (row["kind"], row["r"], row["t"])
                by_group.setdefault(key, []).append(float(row["value"]))
    with open(res.files[1]) as fh:
        for row in csv.DictReader(fh):
            vals = by_group.get((row["kind"], row["r"], row["t"]), [])
            assert int(row["n_used"]) == len(vals)
            if vals:
                assert float(row["mean"]) == np.mean(vals)
    meta = json.loads(open(res.files[2]).read())
    assert meta["package"] == "exindex"
    assert meta["config"]["n"] == cfg.n


def test_run_writes_its_files_without_building_a_band_line(tmp_path, monkeypatch):
    def no_band_line(*args):
        raise AssertionError("run builds no band line")

    monkeypatch.setattr(harness, "_band_line", no_band_line)
    res = ex.run(small_config(out_dir=str(tmp_path / "exp"), replicates=4))
    assert sorted(os.listdir(tmp_path / "exp")) == ["curves.csv", "meta.json", "summary.csv"]
    assert all(os.path.getsize(p) > 0 for p in res.files)


def test_sidecar_rejects_a_non_finite_number(tmp_path):
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError):
            harness._write_json(tmp_path / "meta.json", {"delta": value})
    assert not (tmp_path / "meta.json").exists()


def test_rerun_writes_identical_bytes(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "exp"), replicates=8)
    res = ex.run(cfg)
    blobs = {p: open(p, "rb").read() for p in res.files}
    ex.run(cfg)
    for p, blob in blobs.items():
        assert open(p, "rb").read() == blob


def test_figure1_bundle_outputs(tmp_path):
    cfg = small_config(
        model=ex.AR1Cauchy(phi=0.6),
        r_list=(5, 10),
        replicates=5,
        out_dir=str(tmp_path / "fig"),
    )
    paths = ex.figure1_bundle(cfg)
    assert [os.path.basename(p) for p in paths] == [
        "curves.csv",
        "summary.csv",
        "meta.json",
        "blocks_curves.csv",
        "runs_curves.csv",
        "corrected_curves.csv",
    ]
    with open(paths[3]) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"r", "t", "mean", "sd", "n_used"}
    assert len(rows) == len(cfg.r_list) * len(cfg.t_grid)
    with open(paths[4]) as fh:
        assert fh.readline().startswith("run_length,")
    assert os.path.exists(os.path.join(cfg.out_dir, "figure1_meta.json"))
    with pytest.raises(ValueError):
        ex.figure1_bundle(small_config())  # out_dir required


def test_normality_check_wn():
    cfg = ex.ExperimentConfig(
        model=WN, n=20_000, r_list=(10,), k=400, t_grid=(1.0,), replicates=500, base_seed=0
    )
    report = ex.normality_check(cfg)
    assert report.t == 1.0
    assert abs(report.skewness) < 0.3
    assert abs(report.variance_ratio - 1.0) <= 0.25
    assert not report.degenerate


def test_normality_check_iid_degenerates():
    cfg = ex.ExperimentConfig(
        model=ex.IID(innovation=ex.Uniform01()),
        n=10_000,
        r_list=(10,),
        k=100,
        t_grid=(1.0,),
        replicates=300,
        base_seed=0,
    )
    report = ex.normality_check(cfg)
    assert report.degenerate
    assert report.variance < 0.15


def test_normality_check_draws_the_replicates_a_direct_loop_draws():
    """Each field equals the one computed from generate and sweep, replicate by replicate."""
    cfg = ex.ExperimentConfig(
        model=WN, n=2000, r_list=(10, 5), k=100, t_grid=(0.5, 1.0), replicates=40,
        base_seed=3, measure=ex.two_atom_measure(0.5, 1.0, 2.0),
    )

    def standardized(n, k, seed):
        v = k / n
        est = ex.EstimatorConfig(r=10, k=k)
        vals = np.array([
            ex.sweep(ex.generate(WN, n, ex.substream(seed, rep)).values, est, [1.0])
            .theta_hat[0]
            for rep in range(40)
        ])
        vals = vals[~np.isnan(vals)]
        return np.sqrt(n * v) * 1.0 * (vals - WN.theta_nt(10, v, 1.0))

    z1, z2 = standardized(2000, 100, 3), standardized(4000, 200, 4)
    report = ex.normality_check(cfg)
    stat, pvalue = stats.normaltest(z1)
    assert report == ex.NormalityReport(
        t=1.0,
        skewness=float(stats.skew(z1)),
        kurtosis_excess=float(stats.kurtosis(z1)),
        stat=float(stat),
        pvalue=float(pvalue),
        variance=float(z1.var(ddof=1)),
        variance_doubled=float(z2.var(ddof=1)),
        variance_ratio=float(z2.var(ddof=1)) / float(z1.var(ddof=1)),
        degenerate=bool(z1.var(ddof=1) < 0.1),
    )


def test_empty_grid_is_rejected():
    base = dict(model={"name": "iid"}, n=1000, r_list=[5], k=50)
    for grid in ([], {"count": 0}):
        with pytest.raises(ValueError, match="^t_grid must be nonempty$"):
            ex.ExperimentConfig.from_dict({**base, "t_grid": grid})


def test_normality_check_needs_curve_target():
    cfg = small_config(model=ex.AR1Cauchy(phi=0.6), n=2000, measure=None)
    with pytest.raises(ValueError):
        ex.normality_check(cfg)
