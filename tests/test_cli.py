"""Subcommand behavior: output formats, exit codes, and error reporting."""

import argparse
import json
import warnings

import numpy as np
import pytest

import exindex as ex
from exindex import cli, harness, sim
from exindex.cli import build_parser, dispatch
from exindex.sim import config_fields
from test_sim import chunked, fresh_python

SERIES = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0]


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{v}\n" for v in SERIES))
    return str(path)


def test_blocks_hand_example(series_file, capsys):
    rc = dispatch(["blocks", "--series", series_file, "--r", "3", "--u", "3.5"])
    assert rc == 0
    assert capsys.readouterr().out == "0.666666666667\n"


def test_runs_hand_example(series_file, capsys):
    rc = dispatch(["runs", "--series", series_file, "--run-length", "2", "--u", "3.5"])
    assert rc == 0
    assert capsys.readouterr().out == "0.5\n"


def test_blocks_no_exceedances_exit_code(series_file, capsys):
    rc = dispatch(["blocks", "--series", series_file, "--r", "3", "--u", "10"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("NO_EXCEEDANCES:")


def test_sweep_default_grid(series_file, capsys):
    rc = dispatch(["sweep", "--series", series_file, "--r", "3", "--k", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,k_t,theta_hat,variant,flag"
    assert lines[1] == "0.25,1,1,empirical_quantile,"
    assert lines[3] == "0.75,3,0.666666666667,empirical_quantile,"
    assert lines[4] == "1,4,0.5,empirical_quantile,"


def test_sweep_grid_forms_and_out(series_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = dispatch(
        ["sweep", "--series", series_file, "--r", "3", "--k", "4", "--grid", "0.5,1.0",
         "--out", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    rc = dispatch(["sweep", "--series", series_file, "--r", "3", "--k", "4", "--grid", "2"])
    assert rc == 0
    body = capsys.readouterr().out.strip().splitlines()[1:]
    assert [line.split(",")[0] for line in body] == ["0.5", "1"]


def test_correct_point_estimate(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{v}\n" for v in rng.random(200)))
    rc = dispatch(
        ["correct", "--series", str(path), "--r", "5", "--k", "40", "--two-atom", "0.5,1,2"]
    )
    captured = capsys.readouterr()
    if rc == 0:
        float(captured.out.strip())
    else:
        assert captured.err.startswith("DEGENERATE_DENOMINATOR:")


def test_correct_degenerate_reports_fallback(tmp_path, capsys):
    # r=1 makes the curve constant 1, so the combination denominator vanishes
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{v}\n" for v in np.arange(1.0, 41.0)))
    rc = dispatch(
        ["correct", "--series", str(path), "--r", "1", "--k", "8", "--two-atom", "0.5,1,2"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("DEGENERATE_DENOMINATOR:")
    assert "(fallback 1)" in err


def test_correct_requires_one_measure_flag(series_file, capsys):
    rc = dispatch(["correct", "--series", series_file, "--r", "3", "--k", "4"])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err
    rc = dispatch(
        ["correct", "--series", series_file, "--r", "3", "--k", "4",
         "--two-atom", "0.5,1,2", "--product", "1,2,2,2"]
    )
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_check_measure_two_atom_report(capsys):
    rc = dispatch(["check-measure", "--two-atom", "0.5,1,2", "--delta", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "m1 pass" in out
    assert "m2 pass" in out
    assert "m2_integral[1] 0.25" in out
    assert "m3_value 8" in out
    assert "total_weight 0" in out


@pytest.mark.parametrize("delta", ["nan", "inf", "0", "-1"])
def test_check_measure_rejects_a_bad_probe_delta(delta, capsys):
    rc = dispatch(["check-measure", "--two-atom", "0.5,1,2", "--delta", delta])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"INVALID_ARGUMENT: delta probes must be positive and finite, got {float(delta)}\n"
    )


def test_check_measure_single_atom_fails_m1(tmp_path, capsys):
    path = tmp_path / "mu.csv"
    path.write_text("s,t,w\n0.5,0.5,1.0\n")
    rc = dispatch(["check-measure", "--in", str(path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("M1_VIOLATION:")


def test_check_measure_equal_levels_fails_m2(capsys):
    rc = dispatch(["check-measure", "--two-atom", "0.5,0.5,2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("M2_VIOLATION:")


def test_check_measure_writes_csv(tmp_path, capsys):
    out = tmp_path / "mu.csv"
    rc = dispatch(["check-measure", "--product", "1,2,3,2", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert ex.read_measure_csv(out).atoms == ex.product_measure(1.0, 2.0, 3.0, 2).atoms


def test_oracle_wn_r1_identity(capsys):
    rc = dispatch(
        ["oracle", "--model", "wn", "--psi", "0.6", "--r", "1", "--v", "0.01", "--t", "0.5"]
    )
    assert rc == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert float(lines["theta_nt"]) == pytest.approx(1.0, abs=1e-12)
    assert float(lines["theta_n"]) == pytest.approx(1.0)  # theta + (1 - theta) / 1
    assert float(lines["delta"]) == 1.0


def test_oracle_iid_is_random_repetition_at_psi_0(capsys):
    rc = dispatch(["oracle", "--model", "iid", "--r", "10", "--v", "0.01", "--t", "0.5"])
    assert rc == 0
    assert capsys.readouterr().out == "theta_nt 0.977797390685\ntheta_n 1\nc_n -0.05\ndelta 1\n"


def test_oracle_mm_reports_branch(capsys):
    rc = dispatch(
        ["oracle", "--model", "mm", "--coeffs", "1,0.5", "--beta1", "2", "--beta2", "1",
         "--c1", "1", "--c2", "0.5", "--r", "10", "--v", "0.01", "--t", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "branch linear" in out
    assert "d " in out


def test_oracle_ar1_has_no_closed_form(capsys):
    rc = dispatch(
        ["oracle", "--model", "ar1_cauchy", "--phi", "0.6", "--r", "5", "--v", "0.01",
         "--t", "1"]
    )
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_simulate_deterministic_12_digits(capsys):
    argv = ["simulate", "--model", "wn", "--psi", "0.6", "--n", "5", "--seed", "3"]
    assert dispatch(argv) == 0
    first = capsys.readouterr().out
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        assert line == f"{float(line):.12g}"  # 12-significant-digit convention


def test_simulate_requires_model_params(capsys):
    rc = dispatch(["simulate", "--model", "wn", "--n", "5"])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_kernel_iid_closed_form(capsys):
    rc = dispatch(
        ["kernel", "--model", "iid", "--s", "0.5", "--t", "1"]
    )
    assert rc == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert float(lines["c"]) == 0.0
    assert float(lines["c_g"]) == 0.5
    assert float(lines["c_fg_st"]) == 0.5
    assert float(lines["c_fg_ts"]) == 0.5


def test_kernel_flag_requirements(capsys):
    rc = dispatch(
        ["kernel", "--model", "wn", "--psi", "0.6", "--s", "1", "--t", "1",
         "--method", "tail"]
    )
    assert rc == 2  # --v missing
    capsys.readouterr()
    rc = dispatch(
        ["kernel", "--model", "iid", "--s", "1", "--t", "1", "--method", "mc"]
    )
    assert rc == 2  # --r/--k missing
    capsys.readouterr()


def test_kernel_tail_method_runs(capsys):
    rc = dispatch(
        ["kernel", "--model", "wn", "--psi", "0.6", "--s", "1", "--t", "1",
         "--method", "tail", "--v", "0.02", "--n", "5000", "--replicates", "100"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split(" ")[0] for line in lines] == ["c", "c_g", "c_fg_st", "c_fg_ts"]


@pytest.mark.parametrize("method", ["iid", "tail", "mc"])
@pytest.mark.parametrize("s, t", [(0.3, 0.8), (0.9, 0.2), (0.6, 0.6)])
def test_kernel_prints_the_bytes_of_the_per_point_reads(method, s, t, capsys):
    # the four numbers come from one ``matrices`` read; each equals its per-point read
    ar1 = ["--model", "ar1_cauchy", "--phi", "0.6", "--n", "2000"]
    if method == "iid":
        flags, kern = ["--model", "iid"], ex.ClosedFormIID()
    elif method == "tail":
        flags = [*ar1, "--v", "0.05"]
        kern = ex.tail_chain_probabilities(ex.AR1Cauchy(phi=0.6), 0.05, n=2000)
    else:
        flags = [*ar1, "--r", "10", "--k", "100"]
        kern = ex.estimate_kernel_mc(ex.AR1Cauchy(phi=0.6), 2000, ex.EstimatorConfig(r=10, k=100),
                                     sorted({s, t}), replicates=100, seed=0)
    rc = dispatch(["kernel", *flags, "--method", method, "--s", str(s), "--t", str(t)])
    assert rc == 0
    reads = [("c", kern.c(s, t)), ("c_g", kern.c_g(s, t)), ("c_fg_st", kern.c_fg(s, t)),
             ("c_fg_ts", kern.c_fg(t, s))]
    assert capsys.readouterr().out == "".join(f"{name} {x:.12g}\n" for name, x in reads)


def test_mc_runs_config(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    cfg = ex.ExperimentConfig(
        model=ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()),
        n=400,
        r_list=(5,),
        k=40,
        t_grid=(0.5, 1.0),
        measure=ex.two_atom_measure(0.5, 1.0, 2.0),
        replicates=5,
        out_dir=str(out_dir),
    )
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    rc = dispatch(["mc", "--config", str(config_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == 3
    assert (out_dir / "curves.csv").exists()
    # byte-identical rerun
    before = (out_dir / "curves.csv").read_bytes()
    assert dispatch(["mc", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert (out_dir / "curves.csv").read_bytes() == before


def test_mc_figure1_simulates_each_replicate_once(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "exp"
    cfg = ex.ExperimentConfig(
        model=ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1, c2=0.5),
        n=400,
        r_list=(5, 10),
        k=40,
        t_grid=(0.5, 0.75, 1.0),
        measure=ex.two_atom_measure(0.5, 1.0, 2.0),
        replicates=4,
        run_lengths=(2, 5),
        out_dir=str(out_dir),
    )
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    calls = []
    generate = sim.generate

    def counted(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    # the binding that sim.map_replicates calls; 400 x 4 values run serially,
    # so every call is counted here
    monkeypatch.setattr(sim, "generate", counted)
    assert dispatch(["mc", "--config", str(config_path), "--figure1"]) == 0
    assert len(calls) == cfg.replicates
    names = ["curves.csv", "summary.csv", "meta.json", "blocks_curves.csv",
             "runs_curves.csv", "corrected_curves.csv"]
    assert capsys.readouterr().out == "".join(f"wrote {out_dir / name}\n" for name in names)
    once = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(once) == sorted(names + ["figure1_meta.json"])

    # the same files from the two separate calls on the config the command read
    monkeypatch.undo()
    for p in out_dir.iterdir():
        p.unlink()
    parsed = ex.ExperimentConfig.from_json(config_path)
    ex.run(parsed)
    ex.figure1_bundle(parsed)
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == once


def test_figure1_bundle_alone_writes_the_files_of_mc_figure1(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    cfg = ex.ExperimentConfig(
        model=ex.AR1Cauchy(phi=0.6),
        n=400,
        r_list=(5, 10),
        k=40,
        t_grid=(0.5, 0.75, 1.0),
        measure=ex.two_atom_measure(0.5, 1.0, 2.0),
        replicates=4,
        run_lengths=(2,),
        out_dir=str(out_dir),
    )
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    assert dispatch(["mc", "--config", str(config_path), "--figure1"]) == 0
    printed = capsys.readouterr().out
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    for p in out_dir.iterdir():
        p.unlink()
    paths = ex.figure1_bundle(ex.ExperimentConfig.from_json(config_path))
    assert printed == "".join(f"wrote {p}\n" for p in paths)
    assert len(files) == 7
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == files


def test_mc_above_the_chunk_threshold_writes_the_serial_bytes(tmp_path, monkeypatch, capsys):
    # 20 000 x 50 values: map_replicates forks, unless pinned to one core
    cfg = {"model": {"name": "ar1_cauchy", "phi": 0.6}, "n": 20_000, "r_list": [5, 10, 20],
           "k": 2000, "t_grid": {"lo": 0.2, "hi": 1.0, "count": 81}, "replicates": 50,
           "measure": {"kind": "two_atom", "p": 0.5, "q": 1.0, "a": 2.0}}
    assert sim._chunk_count(cfg["n"], cfg["replicates"]) == min(sim._usable_cores(), 4)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(cfg))
    files = {}
    for cores in (1, 2):
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        out = tmp_path / f"cores{cores}"
        argv = ["mc", "--config", str(config_path), "--out", str(out), "--figure1"]
        assert dispatch(argv) == 0
        files[cores] = {p.name: p.read_bytes().replace(str(out).encode(), b"OUT")
                        for p in out.iterdir()}
    capsys.readouterr()
    assert len(files[1]) == 7
    assert files[2] == files[1]


CHUNKED_CONFIGS = {
    # ties on most levels: NaN cells and skip codes in every file
    "wn_ties_two_atom": {
        "model": {"name": "wn", "psi": 0.6, "innovation": "uniform"}, "n": 300,
        "r_list": [4, 10], "k": 40, "t_grid": {"lo": 0.1, "hi": 1.0, "count": 10},
        "replicates": 7, "measure": {"kind": "two_atom", "p": 0.5, "q": 1.0, "a": 2.0},
    },
    "mm_no_measure": {
        "model": {"name": "mm", "coeffs": [1.0, 0.5], "beta1": 2.0, "beta2": 1.0, "c1": 1.0,
                  "c2": 0.5},
        "n": 300, "r_list": [3, 5], "run_lengths": [2, 5], "k": 30,
        "t_grid": {"lo": 0.1, "hi": 1.0, "count": 10}, "replicates": 5,
    },
}


@pytest.mark.parametrize("name", sorted(CHUNKED_CONFIGS))
def test_mc_writes_the_serial_bytes_at_every_chunk_count(tmp_path, monkeypatch, capsys, name):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(CHUNKED_CONFIGS[name]))
    top_only = counted_sample_top(monkeypatch)
    files = {}
    for chunks in (1, 2, 3):
        chunked(monkeypatch, chunks)
        out = tmp_path / f"chunks{chunks}"
        argv = ["mc", "--config", str(config_path), "--out", str(out), "--figure1"]
        top_only.clear()
        assert dispatch(argv) == 0
        # moving maxima draw top-only paths in every chunk; this process runs the first
        assert bool(top_only) == (name == "mm_no_measure")
        files[chunks] = {p.name: p.read_bytes().replace(str(out).encode(), b"OUT")
                         for p in out.iterdir()}
    capsys.readouterr()
    assert len(files[1]) == 7
    assert files[2] == files[1]
    assert files[3] == files[1]
    curves = files[1]["curves.csv"].decode()
    if name == "wn_ties_two_atom":
        assert ",,TIES_DETECTED\n" in curves
        assert ",corrected," in curves
    else:
        assert ",corrected," not in curves


def counted_sample_top(monkeypatch) -> list:
    """The ``top`` of every ``MovingMaxima.sample_top`` call in this process."""
    calls = []
    sample_top = ex.MovingMaxima.sample_top

    def counted(self, rng, size, top):
        calls.append(top)
        return sample_top(self, rng, size, top)

    monkeypatch.setattr(ex.MovingMaxima, "sample_top", counted)
    return calls


MM_CONFIGS = {
    "two_coeffs": CHUNKED_CONFIGS["mm_no_measure"],
    "c2_negative_three_coeffs": dict(
        CHUNKED_CONFIGS["mm_no_measure"],
        model={"name": "mm", "coeffs": [0.3, 1.0, 0.7], "beta1": 2.0, "beta2": 1.0, "c1": 1.0,
               "c2": -0.3},
    ),
    "measure": dict(CHUNKED_CONFIGS["mm_no_measure"], n=500, k=60,
                    measure={"kind": "two_atom", "p": 0.5, "q": 1.0, "a": 2.0}),
}


@pytest.mark.parametrize("name", sorted(MM_CONFIGS))
def test_mc_on_top_only_moving_maxima_paths_writes_the_bytes_of_the_full_paths(
    tmp_path, monkeypatch, capsys, name
):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(MM_CONFIGS[name]))
    top_only = counted_sample_top(monkeypatch)
    files = {}
    for path in ("top", "full"):
        if path == "full":
            monkeypatch.delattr(ex.MovingMaxima, "sample_top")
        out = tmp_path / path
        argv = ["mc", "--config", str(config_path), "--out", str(out), "--figure1"]
        assert dispatch(argv) == 0
        files[path] = {p.name: p.read_bytes().replace(str(out).encode(), b"OUT")
                       for p in out.iterdir()}
    capsys.readouterr()
    cfg = MM_CONFIGS[name]
    assert top_only == [cfg["k"] + 1] * cfg["replicates"]
    assert len(files["top"]) == 7
    assert files["full"] == files["top"]


def test_kernel_mc_above_the_chunk_threshold_prints_the_serial_values(monkeypatch, capsys):
    # the benchmark's AR(1) kernel config: 20 000 x 200 values
    argv = ["kernel", "--model", "ar1_cauchy", "--phi", "0.6", "--s", "0.5", "--t", "1",
            "--method", "mc", "--r", "10", "--k", "200", "--n", "20000",
            "--replicates", "200", "--seed", "0"]
    outs = []
    for cores in (1, 2):
        monkeypatch.setattr(sim, "_usable_cores", lambda: cores)
        assert dispatch(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0].startswith("c ")
    assert outs[1] == outs[0]


def test_mc_requires_out_dir(tmp_path, capsys):
    cfg = ex.ExperimentConfig(
        model=ex.IID(innovation=ex.Uniform01()),
        n=200,
        r_list=(5,),
        k=20,
        t_grid=(1.0,),
        replicates=2,
    )
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    rc = dispatch(["mc", "--config", str(config_path)])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_usage_and_io_errors(tmp_path, capsys):
    assert dispatch(["blocks", "--bogus"]) == 2
    capsys.readouterr()
    assert dispatch([]) == 2
    capsys.readouterr()
    rc = dispatch(["blocks", "--series", str(tmp_path / "nope.txt"), "--r", "3", "--u", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("IO_ERROR:")
    bad = tmp_path / "bad.txt"
    bad.write_text("not-a-number\n")
    rc = dispatch(["blocks", "--series", str(bad), "--r", "3", "--u", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("INVALID_ARGUMENT:")


@pytest.mark.parametrize("text", ["", "\n\n", "# no values\n"])
@pytest.mark.parametrize("command", [["sweep", "--r", "10", "--k", "5"],
                                     ["runs", "--run-length", "2", "--u", "0.5"],
                                     ["blocks", "--r", "3", "--u", "0.5"]])
def test_series_file_without_values_exits_1_without_a_warning(tmp_path, capsys, command, text):
    path = tmp_path / "x.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" would raise here
        assert dispatch([*command, "--series", str(path)]) == 1
    assert capsys.readouterr().err == f"INVALID_ARGUMENT: series file {path} holds no values\n"


@pytest.mark.parametrize("rows", [[(0.5, 0.25)] * 1000, [(0.5, 0.25, 1.0)]])
@pytest.mark.parametrize("command", [["sweep", "--r", "10", "--k", "5"],
                                     ["runs", "--run-length", "2", "--u", "0.5"],
                                     ["blocks", "--r", "3", "--u", "0.5"],
                                     ["correct", "--r", "10", "--k", "5", "--two-atom",
                                      "0.5,1,2"]])
def test_series_file_with_columns_exits_1(tmp_path, capsys, command, rows):
    # one line of several values is not a series of them either
    path = tmp_path / "x.txt"
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    assert dispatch([*command, "--series", str(path)]) == 1
    shape = (len(rows), len(rows[0]))
    message = f"INVALID_ARGUMENT: series must be one-dimensional, got shape {shape}\n"
    assert capsys.readouterr().err == message


def test_version_flag(capsys):
    assert dispatch(["--version"]) == 0
    assert "exindex" in capsys.readouterr().out


def test_non_finite_series_and_unknown_config_keys_exit_1(tmp_path, capsys):
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{v}\n" for v in SERIES[:3] + ["nan"] + SERIES[3:]))
    rc = dispatch(["sweep", "--series", str(path), "--r", "3", "--k", "4"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("INVALID_ARGUMENT: series values must be finite")
    config_path = tmp_path / "exp.json"
    config_path.write_text(
        json.dumps({"model": {"name": "iid"}, "n": 200, "r_list": [5], "k": 20, "replicate": 3})
    )
    rc = dispatch(["mc", "--config", str(config_path), "--out", str(tmp_path / "exp")])
    assert rc == 1
    assert capsys.readouterr().err == "INVALID_ARGUMENT: unknown config keys: replicate\n"


def test_correct_grid_rows_follow_the_grid_with_codes(tmp_path, capsys):
    # sorted 1,2,3,4,5,5,100: k_t=1 keeps only the uncovered tail value, k_t=2 ties at 5
    path = tmp_path / "x.txt"
    path.write_text("".join(f"{v}\n" for v in [1.0, 2.0, 3.0, 5.0, 5.0, 4.0, 100.0]))
    rc = dispatch(
        ["correct", "--series", str(path), "--r", "3", "--k", "3", "--two-atom", "1,0.3,2",
         "--grid", "0.5,1.0"]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "t,k_t,theta_hat,variant,flag",
        "0.5,2,,corrected,NO_EXCEEDANCES",
        "1,3,,corrected,TIES_DETECTED",
    ]


def test_kernel_mc_level_above_one_exit_1(capsys):
    rc = dispatch(["kernel", "--model", "iid", "--method", "mc", "--s", "0.5", "--t", "1.5",
                   "--r", "5", "--k", "20", "--n", "1000"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("INVALID_ARGUMENT: grid must be finite")


def test_kernel_tail_v_outside_unit_interval_exit_1(capsys):
    for v in ("0", "1", "1.5", "-0.1", "nan"):
        rc = dispatch(["kernel", "--model", "ar1_cauchy", "--phi", "0.6", "--s", "0.5",
                       "--t", "1", "--method", "tail", "--v", v, "--n", "1000"])
        assert rc == 1, v
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("INVALID_ARGUMENT: v must lie in (0, 1), got"), v


def test_kernel_levels_outside_unit_interval_exit_1_for_every_method(monkeypatch, capsys):
    # the iid and tail methods once printed kernels at s <= 0 or s > 1 (c_g -0.5 at s = -0.5)
    calls = []
    monkeypatch.setattr(sim, "generate", lambda *args, **kwargs: calls.append(args))
    methods = {
        "iid": ["--model", "iid"],
        "tail": ["--model", "ar1_cauchy", "--phi", "0.6", "--v", "0.02", "--n", "1000"],
    }
    for method, flags in methods.items():
        for s in ("0", "-0.5", "1.5", "nan"):
            rc = dispatch(["kernel", *flags, "--method", method, "--s", s, "--t", "1"])
            assert rc == 1, (method, s)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "INVALID_ARGUMENT: grid must be finite, strictly increasing and inside (0, 1]"
            ), (method, s)
    assert calls == []


def test_kernel_method_iid_needs_the_iid_model(capsys):
    # the independent-data kernel (c = 0) would be a wrong answer for dependent models
    for model in (["--model", "ar1_cauchy", "--phi", "0.6"], ["--model", "wn", "--psi", "0.6"]):
        rc = dispatch(["kernel", *model, "--s", "0.5", "--t", "1", "--method", "iid"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --method iid")


def test_mc_bad_model_parameters_and_missing_keys_exit_1(tmp_path, capsys):
    base = {"n": 200, "r_list": [5], "k": 20, "t_grid": [0.5, 1.0], "replicates": 2}
    mm = {"name": "mm", "coeffs": [float("nan"), 1.0], "beta1": 2.0, "beta2": 1.0, "c1": 1.0,
          "c2": 0.5}
    cases = [
        ({**base, "model": mm}, "INVALID_ARGUMENT: coeffs must be finite"),
        ({**base, "model": {**mm, "coeffs": [1.0], "c2": float("nan")}},
         "INVALID_ARGUMENT: beta1, beta2, c1 and c2 must be finite"),
        ({**base, "model": {"name": "wn"}}, "INVALID_ARGUMENT: missing key 'psi' in model\n"),
        ({"model": {"name": "iid"}, "n": 200, "r_list": [5]},
         "INVALID_ARGUMENT: missing key 'k' in config\n"),
    ]
    config_path = tmp_path / "exp.json"
    for config, err in cases:
        config_path.write_text(json.dumps(config))  # NaN is written as a bare NaN token
        rc = dispatch(["mc", "--config", str(config_path), "--out", str(tmp_path / "exp")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(err)
    assert not (tmp_path / "exp").exists()


MM_MODEL = {"name": "mm", "coeffs": [1.0, 0.5], "beta1": 2.0, "beta2": 1.0, "c1": 1.0, "c2": 0.5}


@pytest.mark.parametrize(
    "overrides, err",
    [
        ({"model": "iid"}, "model must be an object, got 'iid'"),
        ({"r_list": 5}, "config key 'r_list' must be a list, got 5"),
        ({"model": {**MM_MODEL, "coeffs": 1.0}}, "model key 'coeffs' must be a list, got 1.0"),
        ({"run_lengths": 5}, "config key 'run_lengths' must be a list, got 5"),
        ({"out_dir": 5}, "config key 'out_dir' must be a string, got 5"),
        ({"base_seed": -1}, "base_seed must be nonnegative, got -1"),
        # a repeat would write its summary and curves rows twice
        ({"r_list": [5, 5]}, "r_list must not repeat a value, got (5, 5)"),
        ({"run_lengths": [5, 5]}, "run_lengths must not repeat a value, got (5, 5)"),
        # int() and float() read a JSON boolean as 1 or 0
        ({"replicates": True}, "config key 'replicates' must be an integer, got True"),
        ({"model": {"name": "wn", "psi": False}}, "model key 'psi' must be a number, got False"),
        ({"run_lengths": [True]},
         "config key 'run_lengths' must be a list of integers, got [True]"),
    ],
    ids=["model_string", "r_list_scalar", "coeffs_scalar", "run_lengths_scalar", "out_dir_number",
         "base_seed_negative", "r_list_repeat", "run_lengths_repeat", "replicates_bool",
         "psi_bool", "run_lengths_bool"],
)
def test_mc_wrongly_typed_config_value_exits_1(tmp_path, capsys, overrides, err):
    config = {"model": {"name": "iid"}, "n": 200, "r_list": [5], "k": 20, "t_grid": [0.5, 1.0],
              "replicates": 2, **overrides}
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))
    rc = dispatch(["mc", "--config", str(config_path), "--out", str(tmp_path / "exp")])
    assert rc == 1
    assert capsys.readouterr().err == f"INVALID_ARGUMENT: {err}\n"
    assert not (tmp_path / "exp").exists()


def test_simulate_ignores_innovation_flags_for_models_without_one(capsys):
    argv = ["simulate", "--model", "ar1_cauchy", "--phi", "0.6", "--n", "3"]
    assert dispatch(argv) == 0
    plain = capsys.readouterr().out
    # AR(1) draws Cauchy innovations of its own, so the flag and its missing --alpha are moot
    assert dispatch(argv + ["--innovation", "pareto"]) == 0
    assert capsys.readouterr().out == plain
    # the models that draw from --innovation still need its flags
    rc = dispatch(["simulate", "--model", "iid", "--innovation", "pareto", "--n", "3"])
    assert rc == 2
    assert capsys.readouterr().err == "usage error: --alpha required for pareto innovation\n"


def test_mc_orders_each_sample_once_per_replicate(tmp_path, monkeypatch):
    cfg = ex.ExperimentConfig(
        model=ex.AR1Cauchy(phi=0.6),
        n=400,
        r_list=(5, 10, 20),
        k=40,
        t_grid=(0.25, 0.5, 1.0),
        measure=ex.two_atom_measure(0.5, 1.0, 2.0),
        replicates=4,
    )
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    argv = ["mc", "--config", str(config_path), "--out", str(tmp_path / "exp")]
    assert dispatch(argv) == 0
    plain = {p.name: p.read_bytes() for p in (tmp_path / "exp").iterdir()}

    # one partial sort per replicate serves every r, each r builds its tables
    # from that slice, and no per-r evaluator is built; plain functions stand
    # in for all three, as a tracing wrapper does
    sorts, builds, tables = counted_slices(monkeypatch)
    assert dispatch(argv) == 0
    assert sorts == [(cfg.n, cfg.k)] * cfg.replicates
    assert tables == list(cfg.r_list) * cfg.replicates
    assert builds == []
    assert {p.name: p.read_bytes() for p in (tmp_path / "exp").iterdir()} == plain


def counted_slices(monkeypatch) -> tuple:
    """``(sorts, builds, tables)``: lists that record each partial sort, evaluator build and table.

    Plain functions stand in for ``estimate._top_slice``, ``_top_tables`` and
    ``BlocksEvaluator``, as a tracing wrapper does.
    """
    from exindex import biascorrect, estimate

    sorts, builds, tables = [], [], []
    top_slice, top_tables = estimate._top_slice, estimate._top_tables
    build = estimate.BlocksEvaluator

    def counted_sort(xs, k):
        sorts.append((len(xs), k))
        return top_slice(xs, k)

    def counted_tables(xs, above, r):
        tables.append(r)
        return top_tables(xs, above, r)

    def counted_build(*args, **kwargs):
        builds.append(args[1:])
        return build(*args, **kwargs)

    monkeypatch.setattr(estimate, "_top_slice", counted_sort)
    monkeypatch.setattr(estimate, "_top_tables", counted_tables)
    for module in (estimate, biascorrect):
        monkeypatch.setattr(module, "BlocksEvaluator", counted_build)
    return sorts, builds, tables


def test_single_sample_curves_order_their_sample_once(monkeypatch):
    x = ex.generate(ex.AR1Cauchy(phi=0.6), 400, 0)
    cfg = ex.EstimatorConfig(r=5, k=40)
    grid = (0.25, 0.5, 1.0)
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    plain = ex.sweep(x, cfg, grid), ex.corrected_curve(x, cfg, mu, grid)
    sorts, builds, tables = counted_slices(monkeypatch)
    counted = ex.sweep(x, cfg, grid), ex.corrected_curve(x, cfg, mu, grid)
    # one partial sort and one table per curve, and no evaluator
    assert sorts == [(400, 40)] * 2
    assert tables == [5] * 2
    assert builds == []
    for a, b in zip(plain, counted):
        assert a.theta_hat.tobytes() == b.theta_hat.tobytes()
        assert a.code.tolist() == b.code.tolist()


def test_kernel_mc_tie_names_the_replicate(capsys):
    # random repetition ties by construction; the error names the replicate
    # and base seed, so substream(seed, i) regenerates the failing path
    model = ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01())
    n, r, k, seed = 2000, 10, 40, 3
    argv = ["kernel", "--model", "wn", "--psi", "0.6", "--innovation", "uniform",
            "--s", "0.5", "--t", "1", "--method", "mc", "--r", str(r), "--k", str(k),
            "--n", str(n), "--replicates", "100", "--seed", str(seed)]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    prefix = "TIES_DETECTED: replicate "
    assert err.startswith(prefix)
    rep = int(err[len(prefix):].split()[0])
    assert f"replicate {rep} (base_seed {seed}): threshold order statistic ties" in err
    for i in range(rep + 1):
        ev = ex.BlocksEvaluator(ex.generate(model, n, ex.substream(seed, i)), r, k)
        if i < rep:
            ev(1.0)
        else:
            with pytest.raises(ex.TiesDetected):
                ev(1.0)


MM_FLAGS = ["--coeffs", "1,0.5", "--beta1", "2", "--beta2", "1", "--c1", "1", "--c2", "0.5"]
SOP_FLAGS = ["--beta1", "2", "--beta2", "1", "--c1", "1", "--c2", "0.5"]


def _without(flags, flag):
    i = flags.index(flag)
    return flags[:i] + flags[i + 2 :]


@pytest.mark.parametrize(
    "model_flags, message",
    [
        (["--model", "wn"], "--psi required for the wn model"),
        (["--model", "random_repetition"], "--psi required for the wn model"),
        # psi is checked before the innovation's flags, in field order
        (["--model", "wn", "--innovation", "pareto"], "--psi required for the wn model"),
        (["--model", "ar1_cauchy"], "--phi required for the ar1_cauchy model"),
        (["--model", "moving_maxima"], "--coeffs required for the mm model"),
        *[
            (["--model", "mm", *_without(MM_FLAGS, flag)], f"{flag} required for the mm model")
            for flag in MM_FLAGS[::2]
        ],
        (["--model", "iid", "--innovation", "pareto"], "--alpha required for pareto innovation"),
        (
            ["--model", "wn", "--psi", "0.6", "--innovation", "pareto"],
            "--alpha required for pareto innovation",
        ),
        *[
            (
                ["--model", model, *extra, "--innovation", "second_order_pareto",
                 *_without(SOP_FLAGS, flag)],
                f"{flag} required for second_order_pareto innovation",
            )
            for model, extra in (("iid", []), ("wn", ["--psi", "0.6"]))
            for flag in SOP_FLAGS[::2]
        ],
    ],
)
@pytest.mark.parametrize("command", ["simulate", "oracle", "kernel"])
def test_missing_model_flag_usage_messages(command, model_flags, message, capsys):
    rest = {
        "simulate": ["--n", "3"],
        "oracle": ["--r", "5", "--v", "0.01", "--t", "0.5"],
        "kernel": ["--s", "0.5", "--t", "1"],
    }[command]
    assert dispatch([command, *model_flags, *rest]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_check_measure_in_conflicts_with_other_measure_flags(tmp_path, capsys):
    path = tmp_path / "mu.csv"
    ex.write_measure_csv(ex.two_atom_measure(0.5, 1.0, 2.0), path)
    for other in (["--product", "1,2,2,3"], ["--two-atom", "0.5,1,2"]):
        assert dispatch(["check-measure", "--in", str(path), *other]) == 2
        assert capsys.readouterr().err == (
            "usage error: exactly one of --in, --two-atom, --product is required\n"
        )
    assert dispatch(["check-measure", "--in", str(path)]) == 0


@pytest.mark.parametrize(
    "command, flags, err",
    [
        ("correct", ["--product", "1,2,2,2.5"], "--product key 'm' must be an integer, got 2.5"),
        ("check-measure", ["--product", "1,2,2,0.5"],
         "--product key 'm' must be an integer, got 0.5"),
        ("check-measure", ["--product", "1,2,2"],
         "--product takes the numbers kappa,a,b,m, got '1,2,2'"),
        ("correct", ["--two-atom", "0.5,1"], "--two-atom takes the numbers p,q,a, got '0.5,1'"),
        ("check-measure", ["--two-atom", "0.5,1,x"],
         "--two-atom takes the numbers p,q,a, got '0.5,1,x'"),
        ("simulate", ["--model", "mm", "--coeffs", "1,x", "--beta1", "2", "--beta2", "1",
                      "--c1", "1", "--c2", "0.5", "--n", "3"],
         "--coeffs takes comma-separated numbers for the mm model, got '1,x'"),
    ],
    ids=["fractional-m", "fractional-m-below-1", "three-product-values", "two-two-atom-values",
         "non-number", "non-number-coeffs"],
)
def test_measure_flags_take_their_fields_and_a_whole_m(series_file, command, flags, err, capsys):
    argv = [command]
    if command == "correct":
        argv += ["--series", series_file, "--r", "3", "--k", "4"]
    assert dispatch([*argv, *flags]) == 1
    assert capsys.readouterr().err == f"INVALID_ARGUMENT: {err}\n"
    # a whole m given as a float is still accepted
    assert dispatch(["check-measure", "--product", "1,2,2,2.0"]) == 0


@pytest.mark.parametrize("grid", [[], {"count": 0}])
@pytest.mark.parametrize("extra", [[], ["--normality"], ["--figure1"]])
def test_mc_empty_grid_exits_1_before_writing(tmp_path, grid, extra, capsys):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(
        {"model": {"name": "wn", "psi": 0.6}, "n": 400, "r_list": [5], "k": 40,
         "t_grid": grid, "replicates": 3}
    ))
    out = tmp_path / "out"
    assert dispatch(["mc", "--config", str(config_path), "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == "INVALID_ARGUMENT: t_grid must be nonempty\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, flag",
    [
        ([], ","),
        ([], "0"),  # a grid count below 1 is an empty grid, not a usage error
        ([], "-3"),
        ([0.5, 0.5], "0.5,0.5"),
        ([1.0, 0.5], "1.0,0.5"),
        ([[0.5, 1.0]], None),  # the CLI cannot spell a 2-D grid
        (0.5, None),  # nor a scalar one: "--grid 0.5" is the list [0.5]
        ([float("nan")], "nan,"),
        ([0.0, 0.5], "0.0,0.5"),
        ([0.5, 1.5], "0.5,1.5"),
    ],
    ids=["empty", "count-0", "count-negative", "repeated", "descending", "2-d", "scalar", "nan", "zero", "above-one"],
)
def test_every_entry_point_rejects_a_bad_grid_alike(series_file, grid, flag, capsys):
    x = np.asarray(SERIES)
    cfg = ex.EstimatorConfig(r=3, k=4)
    mu = ex.two_atom_measure(0.5, 1.0, 2.0)
    calls = [
        lambda: ex.sweep(x, cfg, grid),
        lambda: ex.corrected_curve(x, cfg, mu, grid),
        lambda: ex.estimate_kernel_mc(ex.IID(ex.Uniform01()), 1000, ex.EstimatorConfig(r=5, k=20), grid,
                                      replicates=100, seed=0),
        lambda: ex.MCGrid(grid, np.eye(2), np.eye(2), np.eye(2), 1.0),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        messages.add(str(err.value))
    (message,) = messages
    assert message == "grid must be nonempty" or message.startswith(
        "grid must be finite, strictly increasing and inside (0, 1], got "
    )
    base = dict(model={"name": "iid"}, n=1000, r_list=[5], k=50)
    with pytest.raises(ValueError, match="t_grid"):
        ex.ExperimentConfig.from_dict({**base, "t_grid": grid})
    if flag is None:
        return
    series = ["--series", series_file, "--r", "3", "--k", "4", "--grid", flag]
    for argv in (["sweep", *series], ["correct", *series, "--two-atom", "0.5,1,2"]):
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == f"INVALID_ARGUMENT: {message}\n"


@pytest.mark.parametrize("run_length", [0, -3, 400])
def test_mc_bad_run_length_exits_1_before_simulating(tmp_path, run_length, monkeypatch, capsys):
    # the config checks its run lengths, so a run without --figure1 rejects them too
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(
        {"model": {"name": "wn", "psi": 0.6}, "n": 400, "r_list": [5], "k": 40,
         "run_lengths": [5, run_length], "replicates": 3}
    ))
    calls = []
    monkeypatch.setattr(sim, "generate", lambda *a, **kw: calls.append(a))
    out = tmp_path / "out"
    for extra in ([], ["--figure1"]):
        assert dispatch(["mc", "--config", str(config_path), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == (
            f"INVALID_ARGUMENT: need 1 <= run_length < n, got run_length={run_length}, n=400\n"
        )
    assert calls == []
    assert not out.exists()


_DISPATCH_ONE = """
import sys
from exindex.cli import dispatch
sys.exit(dispatch(sys.argv[1:]))
"""

_DISPATCH_MANY = """
import contextlib, io, json, sys
from exindex.cli import dispatch
seen = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    seen.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(seen))
"""


def test_one_parser_per_process_answers_as_fresh_runs_do():
    argvs = [
        ["blocks", "--series", "x.txt", "--r", "two", "--u", "1"],  # a failing parse
        ["check-measure", "--two-atom", "0.5,1,2"],
        ["check-measure", "--two-atom", "0.5,0.5,2"],  # a failing measure
        ["--help"],
        ["check-measure", "--help"],
        ["oracle", "--model", "wn", "--psi", "0.6", "--r", "1", "--v", "0.01", "--t", "1"],
        ["blocks", "--series", "x.txt", "--r", "two", "--u", "1"],
    ]
    proc = fresh_python("-c", _DISPATCH_MANY, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    in_one = json.loads(proc.stdout)
    fresh = [fresh_python("-c", _DISPATCH_ONE, *argv) for argv in argvs]
    assert in_one == [[run.stdout, run.stderr, run.returncode] for run in fresh]
    assert [code for _, _, code in in_one] == [2, 0, 1, 0, 0, 0, 2]
    assert in_one[3][0].startswith("usage: exindex")


_IMPORT_PROBE = """
import json, sys
import exindex as ex
from exindex.cli import dispatch

seen = [["import", 0, "scipy" in sys.modules]]
for name, argv in json.loads(sys.argv[1]):
    seen.append([name, dispatch(argv), "scipy" in sys.modules])
seen.append(["scipy.signal or a submodule", 0, any(m.startswith("scipy.") for m in sys.modules)])
cfg = ex.ExperimentConfig.from_json(sys.argv[2])
report = ex.normality_check(cfg)
seen.append(["normality_check", 0 <= report.pvalue <= 1, "scipy.stats" in sys.modules])
print(json.dumps(seen))
"""


def test_scipy_loads_only_for_normality_check(tmp_path):
    configs = {
        "wn": ex.ExperimentConfig(model=ex.RandomRepetition(psi=0.6, innovation=ex.Uniform01()),
                                  n=400, r_list=(5,), k=40, t_grid=(0.5, 1.0), replicates=20),
        "mm": ex.ExperimentConfig(model=ex.MovingMaxima(coeffs=(1.0, 0.5), beta1=2, beta2=1, c1=1,
                                                        c2=0.5),
                                  n=400, r_list=(5,), k=40, t_grid=(0.5, 1.0), replicates=3,
                                  run_lengths=(2,)),
        "ar1": ex.ExperimentConfig(model=ex.AR1Cauchy(phi=0.6), n=400, r_list=(5,), k=40,
                                   t_grid=(0.5, 1.0), replicates=3),
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg.to_dict()))
    runs = [
        ["wn mc", ["mc", "--config", str(tmp_path / "wn.json"), "--out", str(tmp_path / "wn")]],
        ["mm mc --figure1", ["mc", "--config", str(tmp_path / "mm.json"), "--out",
                             str(tmp_path / "mm"), "--figure1"]],
        ["ar1 mc", ["mc", "--config", str(tmp_path / "ar1.json"), "--out", str(tmp_path / "ar1")]],
    ]
    proc = fresh_python("-c", _IMPORT_PROBE, json.dumps(runs), str(tmp_path / "wn.json"))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [
        ["import", 0, False],
        ["wn mc", 0, False],
        ["mm mc --figure1", 0, False],
        ["ar1 mc", 0, False],  # the AR(1) recursion runs scipy's compiled filter only
        ["scipy.signal or a submodule", 0, False],
        ["normality_check", True, True],
    ]


def test_burn_in_is_neither_a_config_key_nor_a_simulate_flag(tmp_path, capsys):
    cfg = ex.ExperimentConfig(
        model=ex.IID(innovation=ex.Uniform01()), n=200, r_list=(5,), k=20, t_grid=(0.5, 1.0),
        replicates=2,
    )
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({**cfg.to_dict(), "burn_in": 0}))
    rc = dispatch(["mc", "--config", str(config_path), "--out", str(tmp_path / "exp")])
    assert rc == 1
    assert capsys.readouterr().err == "INVALID_ARGUMENT: unknown config keys: burn_in\n"
    assert not (tmp_path / "exp").exists()
    assert dispatch(["simulate", "--model", "iid", "--n", "5", "--burn-in", "3"]) == 2
    assert "unrecognized arguments: --burn-in 3" in capsys.readouterr().err


def _measure_commands(series_file, path):
    correct = ["correct", "--series", series_file, "--r", "3", "--k", "4", "--measure", path]
    return [correct, [*correct, "--grid", "0.5,1"], ["check-measure", "--in", path]]


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_measure_csv_with_a_non_finite_weight_exits_1(series_file, tmp_path, weight, capsys):
    path = tmp_path / "mu.csv"
    path.write_text(f"s,t,w\n0.25,1,1\n0.5,0.5,{weight}\n")
    for argv in _measure_commands(series_file, str(path)):
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"INVALID_ARGUMENT: atom weights must be finite, got atom (0.5, 0.5, {weight})\n"
        )


def test_measure_csv_with_a_short_row_exits_1(series_file, tmp_path, capsys):
    path = tmp_path / "mu.csv"
    path.write_text("s,t,w\n0.25,1,1\n0.5,1\n")
    for argv in _measure_commands(series_file, str(path)):
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            f"INVALID_ARGUMENT: {path} line 3: expected s,t,w, got ['0.5', '1']\n"
        )
    proc = fresh_python("-m", "exindex.cli", *_measure_commands(series_file, str(path))[0])
    assert proc.returncode == 1
    assert proc.stderr.startswith("INVALID_ARGUMENT:") and "Traceback" not in proc.stderr


def test_product_flag_that_leaves_no_mass_exits_1(series_file, capsys):
    argv = ["correct", "--series", series_file, "--r", "3", "--k", "4", "--product", "inf,2,1.5,2"]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == (
        "INVALID_ARGUMENT: kappa=inf underflows every midpoint mass t^kappa to 0 (m=2)\n"
    )


@pytest.mark.parametrize(
    "measure, err",
    [
        ({"atoms": [[0.25, 1.0, float("nan")], [0.5, 0.5, -1.0]]},
         "INVALID_ARGUMENT: atom weights must be finite, got atom (0.25, 1.0, nan)\n"),
        ({"atoms": [[0.25, 1.0, 1.0], [0.5, 0.5, float("-inf")]]},
         "INVALID_ARGUMENT: atom weights must be finite, got atom (0.5, 0.5, -inf)\n"),
        ({"kind": "product", "kappa": float("inf"), "a": 2.0, "b": 1.5, "m": 2},
         "INVALID_ARGUMENT: kappa=inf underflows every midpoint mass t^kappa to 0 (m=2)\n"),
        ({"atoms": [[0.25, 1.0, 1.0], [0.5, 1.0, -1.0]]},
         "M1_VIOLATION: measure fails M1_VIOLATION at delta=1.0\n"),
        ({"atoms": [[0.5, 1.0, 1.0], [1.0, 0.5, -1.0]], "delta": 2.0},
         "M2_VIOLATION: measure fails M2_VIOLATION at delta=2.0\n"),
        ({"kind": "two_atom", "p": 0.5, "q": 1.0, "a": 2.0, "delta": float("inf")},
         "INVALID_ARGUMENT: delta must be positive and finite, got inf\n"),
        ({"kind": "two_atom", "atoms": [[0.25, 1, 1], [0.5, 0.5, -1]], "atom_count": 7},
         "INVALID_ARGUMENT: measure key 'atom_count' is 7, but the atoms give 2\n"),
        ({"atoms": [[0.25, 1, 1], [0.5, 0.5, -1]], "total_variation": -3},
         "INVALID_ARGUMENT: measure key 'total_variation' is -3, but the atoms give 2.0\n"),
        ({"atoms": [[0.25, 1, 1], [0.5, 0.5]]},
         "INVALID_ARGUMENT: each atom must be (s, t, w), got (0.5, 0.5)\n"),
        ({"atoms": [[0.25, 1, 1, 0], [0.5, 0.5, -1]]},
         "INVALID_ARGUMENT: each atom must be (s, t, w), got (0.25, 1.0, 1.0, 0.0)\n"),
    ],
    ids=["nan_weight", "infinite_weight", "infinite_kappa", "m1", "m2", "infinite_delta",
         "atom_count", "total_variation", "short_atom", "long_atom"],
)
def test_mc_rejects_a_bad_measure_before_simulating(tmp_path, measure, err, capsys):
    config = {"model": {"name": "iid"}, "n": 200, "r_list": [5], "k": 20, "t_grid": [0.5, 1.0],
              "replicates": 2, "measure": measure}
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(config))  # NaN and Infinity are written as bare tokens
    rc = dispatch(["mc", "--config", str(config_path), "--out", str(tmp_path / "exp")])
    assert rc == 1
    assert capsys.readouterr().err == err
    assert not (tmp_path / "exp").exists()


def test_mc_normality_with_too_few_estimates_exits_1(tmp_path, capsys):
    # 5 tied random-repetition replicates leave 2 estimates at n and none at 2n
    check_normality_rejection_before_writing(
        tmp_path, capsys, {"name": "wn", "psi": 0.6},
        "normality check needs 8 usable estimates at n and 2 at 2n, got 2 and 0",
    )


def test_mc_normality_without_a_curve_target_exits_1_before_writing(tmp_path, capsys):
    check_normality_rejection_before_writing(
        tmp_path, capsys, {"name": "ar1_cauchy", "phi": 0.6},
        "normality check needs a model with a closed-form curve target",
    )


def check_normality_rejection_before_writing(tmp_path, capsys, model, err):
    """``exindex mc --normality``, with and without --figure1, exits 1 and writes nothing."""
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(
        {"model": model, "n": 2000, "r_list": [10], "k": 100, "t_grid": [0.5, 1], "replicates": 5}
    ))
    out = tmp_path / "out"
    for extra in ([], ["--figure1"]):
        argv = ["mc", "--config", str(config_path), "--out", str(out), "--normality", *extra]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"INVALID_ARGUMENT: {err}\n"
        assert not out.exists()


@pytest.mark.parametrize("kind", sorted(harness._MEASURES))
def test_each_measure_kind_builds_alike_from_its_config_form_and_its_flag(tmp_path, kind):
    """The config form and the CLI flag of a kind give the same atoms and provenance."""
    path = tmp_path / "mu.csv"
    ex.write_measure_csv(ex.two_atom_measure(0.4, 0.9, 2.0), path)
    values = {"p": 0.5, "q": 1.0, "a": 2.0, "kappa": 1.0, "b": 1.5, "m": 3, "path": str(path)}
    keys = harness._MEASURES[kind][1]
    mu, _ = harness._measure_from_dict({"kind": kind, **{key: values[key] for key in keys}})
    if kind == "file":
        flag, value = "--in", str(path)
    else:
        # product_construction is the config alias of product
        flag = {"two_atom": "--two-atom"}.get(kind, "--product")
        value = ",".join(str(values[key]) for key in keys)
    out = tmp_path / "out.csv"
    assert dispatch(["check-measure", flag, value, "--out", str(out)]) == 0
    assert ex.read_measure_csv(out).atoms == mu.atoms
    args = build_parser().parse_args(["check-measure", flag, value])
    assert cli._load_measure(args, "--in").provenance == mu.provenance


@pytest.mark.parametrize("command", ["simulate", "oracle", "kernel"])
def test_model_flags_are_the_constructor_fields_of_every_model_and_law(command):
    parser = argparse.ArgumentParser()
    cli._add_model_args(parser)
    flags = {opt for action in parser._actions for opt in action.option_strings}
    classes = {*harness._MODELS.values(), *harness._INNOVATIONS.values()}
    fields = {f"--{key}" for cls in classes for key in config_fields(cls)}
    assert flags - {"-h", "--help"} == {"--model", "--innovation"} | fields
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    assert flags <= {opt for action in sub._actions for opt in action.option_strings}
