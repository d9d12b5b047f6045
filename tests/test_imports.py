"""The package namespace: which modules each entry point loads, and every public name.

``import exindex`` binds ``__version__`` only; every other public name is
imported from its defining module on first access.  These probes run in
fresh interpreters, since the test process has loaded every module.
"""

import ast
import json
from pathlib import Path

import pytest

import exindex as ex
from exindex import harness
from test_sim import fresh_python

# every public name of the package, by defining module
PUBLIC = {
    "errors": "DegenerateDenominator ExindexError MeasureConditionError NoExceedances TiesDetected",
    "sim": "IID AR1Cauchy MovingMaxima RandomRepetition SecondOrderPareto SeriesSample "
    "StandardCauchy Uniform01 UnitPareto generate substream",
    "estimate": "BlocksEvaluator EstimatorConfig SkippedPoint ThresholdCurve blocks_fixed "
    "blocks_true_quantile check_grid count_at default_grid runs_estimator sweep",
    "clusterproc": "ClosedFormIID MCGrid TailChainSeries estimate_kernel_mc f_max g_count "
    "standardize tail_chain_probabilities",
    "biascorrect": "ConditionReport SignedMeasureAtoms check_conditions corrected_curve "
    "corrected_estimate product_measure read_measure_csv scale_measure sigma2_mu "
    "two_atom_measure write_measure_csv",
    "oracle": "BiasExpansion MMExpansionReport bias_expansion_mm bias_expansion_wn "
    "mm_block_nonexceed theta_nt_mm_exact theta_nt_wn",
    "harness": "ExperimentConfig MCResult NormalityReport figure1_bundle model_from_dict "
    "normality_check run",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}

_LOADED = "sorted(m for m in sys.modules if m.startswith('exindex'))"

_KERNEL_PROBE = f"""
import json, sys
import exindex
seen = [{_LOADED}]
from exindex import biascorrect, clusterproc, estimate, sim
seen.append({_LOADED})
print(json.dumps(seen + ["csv" in sys.modules]))
"""

_MC_PROBE = f"""
import contextlib, io, json, sys
from exindex.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    code = dispatch(sys.argv[1:])
print(json.dumps([code, {_LOADED}]))
"""

_NAMES_PROBE = """
import importlib, json, sys
import exindex
seen = {}
for name, module in json.loads(sys.argv[1]).items():
    bound_before = name in vars(exindex)
    value = getattr(exindex, name)
    home = importlib.import_module("exindex." + module)
    seen[name] = [bound_before, value is getattr(home, name), value.__module__,
                  vars(exindex).get(name) is value]
star = {}
exec("from exindex import *", star)
print(json.dumps([seen, sorted(exindex.__all__), sorted(dir(exindex)), sorted(star)]))
"""


def test_import_loads_the_version_only_and_the_kernel_path_no_harness():
    proc = fresh_python("-c", _KERNEL_PROBE)
    assert proc.returncode == 0, proc.stderr
    at_import, kernel, csv_loaded = json.loads(proc.stdout)
    assert at_import == ["exindex", "exindex._version"]
    assert kernel == ["exindex", "exindex._version", "exindex.biascorrect",
                      "exindex.clusterproc", "exindex.errors", "exindex.estimate", "exindex.sim"]
    assert not csv_loaded  # only the measure CSV reader and writer import it


def test_mc_leaves_the_kernel_module_unloaded(tmp_path):
    cfg = ex.ExperimentConfig(model=ex.AR1Cauchy(phi=0.6), n=400, r_list=(5,), k=40,
                              t_grid=(0.5, 1.0), measure=ex.two_atom_measure(0.5, 1.0, 2.0),
                              replicates=3)
    (tmp_path / "ar1.json").write_text(json.dumps(cfg.to_dict()))
    proc = fresh_python("-c", _MC_PROBE, "mc", "--config", str(tmp_path / "ar1.json"),
                        "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert "exindex.harness" in loaded and "exindex.clusterproc" not in loaded


def test_every_public_name_resolves_on_first_use_to_its_defining_module():
    proc = fresh_python("-c", _NAMES_PROBE, json.dumps(HOME))
    assert proc.returncode == 0, proc.stderr
    seen, names, listed, star = json.loads(proc.stdout)
    assert len(HOME) == 60
    for name, module in HOME.items():
        # unbound before first use, the defining module's own object, then cached
        assert seen[name] == [False, True, f"exindex.{module}", True], name
    assert set(names) == set(HOME) and len(names) == len(HOME)
    assert set(HOME) <= set(listed)
    assert set(HOME) <= set(star) and not {name for name in star if name in PUBLIC}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ex.no_such_name  # noqa: B018
    assert not hasattr(ex, "no_such_name")
    assert ex.harness.run is ex.run  # a submodule resolves by its name as before


def _tree(module):
    return ast.parse(Path(module.__file__).read_text(), module.__file__)


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_harness_and_cli_leave_the_oracle_choice_to_the_models():
    from exindex import cli, oracle

    model_classes = {cls.__name__ for cls in harness._MODELS.values()}
    assert model_classes == {"IID", "RandomRepetition", "AR1Cauchy", "MovingMaxima"}
    for module in (harness, cli):
        for node in ast.walk(_tree(module)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id == "isinstance" and len(node.args) == 2:
                assert not _names(node.args[1]) & model_classes, (module.__name__, node.lineno)
            if node.func.id == "getattr" and len(node.args) >= 2:
                key = node.args[1]
                assert not (isinstance(key, ast.Constant) and key.value == "psi"), (
                    module.__name__, node.lineno)
    for node in ast.walk(_tree(oracle)):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("sim", "exindex.sim"), node.lineno
            assert not (node.module in (None, "exindex") and "sim" in {a.name for a in node.names})
        elif isinstance(node, ast.Import):
            assert "exindex.sim" not in {a.name for a in node.names}
