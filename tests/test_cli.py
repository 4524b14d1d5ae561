import json
import os
from fractions import Fraction

import numpy as np
import pytest

from hskdv import cli, ibps, regions, spectral
from hskdv.cli import (ConfigError, parse_config, to_json, EXIT_OK,
                       EXIT_CONFIG, EXIT_NUMERICAL, EXIT_ACCEPTANCE)


def test_parse_config_basic():
    cfg = parse_config("command=classify\na=0.5\nk=0\ns=0\n")
    assert cfg.command == "classify"
    assert cfg.get("a") == 0.5
    assert cfg.get("k") == Fraction(0)  # converted exactly


def test_parse_config_sections_comments():
    text = """
    # comment
    [run]
    command = simulate
    ; other comment
    a = 2
    n = 128
    nonlinear = off
    """
    cfg = parse_config(text)
    assert cfg.command == "simulate"
    assert cfg.get("n") == 128
    assert cfg.get("nonlinear") is False


def test_parse_config_unknown_key_line():
    with pytest.raises(ConfigError) as err:
        parse_config("command=classify\nalpha_=3\n")
    assert "line 2" in str(err.value)
    assert "alpha_" in str(err.value)


def test_parse_config_wrong_command_key():
    with pytest.raises(ConfigError):
        parse_config("command=classify\nlemma=L61\n")
    # the IBPS identity holds for the 2/3 rule only
    with pytest.raises(ConfigError):
        parse_config("command=ibps-check\ndealias_fraction=0.5\n")
    assert cli.main(["ibps-check", "--dealias_fraction", "0.5"]) == 2


@pytest.mark.parametrize("command, key", [("simulate", "dealias_fraction"),
                                          ("ibps-check", "nonlinear")])
def test_removed_keys_are_config_errors(tmp_path, capsys, command, key):
    # every run dealiases by the 2/3 rule, and ibps-check solves the
    # nonlinear system its decomposition describes
    out = tmp_path / "out"
    assert cli.main([command, "--a", "0.5", "--n", "64", "--T", "0.004",
                     "--dt", "1e-4", "--" + key, "0",
                     "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert list(tmp_path.iterdir()) == []


def test_parse_config_missing_command():
    with pytest.raises(ConfigError):
        parse_config("a=2\n")
    with pytest.raises(ConfigError):
        parse_config("command=frobnicate\n")


def test_parse_config_bad_values():
    with pytest.raises(ConfigError):
        parse_config("command=simulate\nn=many\n")
    with pytest.raises(ConfigError):
        parse_config("command=simulate\nnonlinear=maybe\n")
    with pytest.raises(ConfigError):
        parse_config("command=picard\nv_boxes=1:2:3:4\n")
    cfg = parse_config("command=picard\nv_boxes=1:2; 3:4:0.5\n")
    boxes = cfg.get("v_boxes").boxes
    assert len(boxes) == 2 and boxes[1].weight_exponent == 0.5
    cfg = parse_config("command=fre-scan\nlams=10, 100 1000\n")
    assert cfg.get("lams") == [10.0, 100.0, 1000.0]


def test_output_dir_from_environment(monkeypatch):
    monkeypatch.setenv("HSKDV_OUT", "/tmp/somewhere")
    cfg = parse_config("command=classify\n")
    assert cfg.output_dir == "/tmp/somewhere"
    cfg = parse_config("command=classify\noutput_dir=/tmp/else\n")
    assert cfg.output_dir == "/tmp/else"


def test_to_json_deterministic():
    obj = {"b": [1.0, 2.5], "a": {"x": True, "y": None}, "c": "q\"uote"}
    t1 = to_json(obj)
    assert t1 == to_json(obj)
    parsed = json.loads(t1)
    assert parsed["a"]["y"] is None
    assert parsed["c"] == 'q"uote'
    # stable key order and 17-digit floats
    assert t1.index('"a"') < t1.index('"b"') < t1.index('"c"')
    assert to_json(0.1) == "%.17g" % 0.1
    assert to_json({}) == "{}"
    assert to_json([]) == "[]"


def test_classify_supported_false(tmp_path):
    code = cli.main(["classify", "--a", "1", "--k", "0", "--s", "0",
                     "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = json.loads((tmp_path / "classify.json").read_text())
    assert out["supported"] is False
    assert out["lwp"] is None and out["illposed"] is None


def test_classify_full_verdict(tmp_path):
    code = cli.main(["classify", "--a", "0.5", "--k", "1", "--s", "1",
                     "--gamma", "1", "--theta", "-1",
                     "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = json.loads((tmp_path / "classify.json").read_text())
    assert out["lwp"] == "DirectA0"
    assert out["gwp"] == "Yes"


@pytest.mark.parametrize("beta, gwp", [(None, "Unknown"), ("1", "Unknown"),
                                       ("-0.25", "Yes")])
def test_classify_quarter_gwp_needs_the_original_coupling(tmp_path, beta,
                                                          gwp):
    # the a = 1/4 verdict rests on E_H, conserved only when beta = a theta;
    # the default beta is 1
    argv = ["classify", "--a", "0.25", "--k", "1", "--s", "1", "--gamma",
            "1", "--theta", "-1", "--out", str(tmp_path)]
    if beta is not None:
        argv += ["--beta", beta]
    assert cli.main(argv) == EXIT_OK
    out = json.loads((tmp_path / "classify.json").read_text())
    assert out["gwp"] == gwp


def test_atlas_artifacts(tmp_path):
    code = cli.main(["atlas", "--a", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    svg = (tmp_path / "atlas_a0.5.svg").read_text()
    assert svg.count("marker-open") == 2
    assert svg.count("marker-closed") == 1
    for cls in ("region-blue", "region-gray", "region-red"):
        assert cls in svg
    segs = json.loads((tmp_path / "atlas_a0.5_segments.json").read_text())
    expect = [s.as_dict() for s in regions.boundary_segments(0.5)]
    assert segs == json.loads(to_json(expect))


def test_simulate_artifacts(tmp_path):
    code = cli.main(["simulate", "--a", "0.5", "--n", "64", "--T", "0.01",
                     "--dt", "1e-3", "--store-every", "5",
                     "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,u_norm,v_norm,mean_u,M,E"
    assert len(lines) == 4  # initial + 2 stored + final
    assert (tmp_path / "final.snap").exists()


def test_simulate_rejects_a_partial_last_step(tmp_path, capsys):
    code = cli.main(["simulate", "--a", "0.5", "--n", "64", "--T", "0.25",
                     "--dt", "0.1", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "not a non-negative whole number of steps" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_stability_exit(tmp_path, capsys):
    code = cli.main(["simulate", "--a", "0.5", "--n", "256", "--dt", "0.5",
                     "--T", "2.0", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "stability bound" in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_picard_artifacts(tmp_path):
    code = cli.main(["picard", "--a", "0.5", "--iterate", "second_u",
                     "--v-boxes", "3:4", "--t", "0.01",
                     "--window-lo", "6", "--window-hi", "8",
                     "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "xi,re,im"
    assert len(lines) == 257


def test_picard_bad_iterate(tmp_path, capsys):
    code = cli.main(["picard", "--a", "0.5", "--iterate", "fourth_w",
                     "--v-boxes", "3:4", "--t", "0.01",
                     "--window-lo", "6", "--window-hi", "8",
                     "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_ibps_acceptance_exit(tmp_path):
    code = cli.main(["ibps-check", "--a", "0.5", "--n", "128",
                     "--T", "0.004", "--dt", "1e-4", "--store-every", "2",
                     "--max-residual", "1e-30", "--out", str(tmp_path)])
    assert code == EXIT_ACCEPTANCE
    rep = json.loads((tmp_path / "ibps_report.json").read_text())
    assert rep["pass"] is False


def test_ibps_check_floor_failure_ends_the_run_before_the_solve(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ibps, "u_phase_floor_constant", lambda a, eta: 1e6)

    def step(*args, **kwargs):
        raise AssertionError("stepped before the phase-floor check")

    monkeypatch.setattr(spectral, "step", step)
    out = tmp_path / "out"
    code = cli.main(["ibps-check", "--a", "0.5", "--n", "64",
                     "--L", repr(2.0 * np.pi), "--T", "0.01", "--dt", "1e-4",
                     "--out", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical validity failure: Phi1u below its "
                          "floor") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_ibps_check_zero_phase_at_a_1_ends_the_run_before_the_solve(
        tmp_path, monkeypatch, capsys):
    # a = 1 has floor constants 0; the zero phase of a region pair must
    # stop the run, not give a NaN residual after the whole solve
    def step(*args, **kwargs):
        raise AssertionError("stepped before the phase-floor check")

    monkeypatch.setattr(spectral, "step", step)
    out = tmp_path / "out"
    code = cli.main(["ibps-check", "--a", "1", "--n", "64",
                     "--L", repr(2.0 * np.pi), "--width", "0.25",
                     "--T", "0.004", "--dt", "1e-4", "--store_every", "1",
                     "--out", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == ("numerical validity failure: Phi1u below its floor "
                   "inside the region at (xi, xi1) = (21, 0)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("every", ["2", "3", "7"])
def test_ibps_check_rejects_step_counts_simpson_cannot_use(
        tmp_path, monkeypatch, capsys, every):
    # 50 steps are no multiple of 2*store_every: Simpson over the kept
    # states would have to leave out the end of the run (every 2nd or
    # 3rd) or could not run (every 7th: unequal spacing). The run stops
    # before the kernels and the solve.
    def fail(*args, **kwargs):
        raise AssertionError("built kernels or stepped before the check")

    monkeypatch.setattr(ibps, "region_kernels", fail)
    monkeypatch.setattr(spectral, "step", fail)
    out = tmp_path / "out"
    code = cli.main(["ibps-check", "--a", "0.5", "--n", "64",
                     "--L", repr(2.0 * np.pi), "--T", "0.005", "--dt", "1e-4",
                     "--store_every", every, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    for name in ("T=0.005", "dt=0.0001", "store_every=" + every):
        assert name in err[0]
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_and_help(tmp_path, capsys):
    assert cli.main(["classify", "--wat", "1",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    capsys.readouterr()
    assert cli.main(["--help"]) == EXIT_OK
    assert "classify" in capsys.readouterr().out
    assert cli.main([]) == EXIT_CONFIG


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("command=classify\na=0.5\nk=0\ns=0\n")
    out = tmp_path / "out"
    code = cli.main(["classify", "--config", str(cfgfile),
                     "--s", "5", "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads((out / "classify.json").read_text())
    assert rep["s"] == 5.0
    assert rep["illposed"] == "C2"


def test_classify_byte_identical(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        d = tmp_path / name
        cli.main(["classify", "--a", "0.5", "--k", "1", "--s", "1",
                  "--out", str(d)])
        outs.append((d / "classify.json").read_bytes())
    assert outs[0] == outs[1]


def test_ibps_check_rejects_couplings():
    # the IBPS decomposition describes beta = gamma = theta = 1 only
    for key in ("beta", "gamma", "theta"):
        with pytest.raises(ConfigError):
            parse_config("command=ibps-check\n%s=2\n" % key)
    assert cli.main(["ibps-check", "--a", "0.5", "--beta", "2"]) == EXIT_CONFIG


def test_simulate_real_run_with_complex_nyquist(tmp_path):
    # the linear flow makes the Nyquist coefficient complex; irfft drops
    # its imaginary part, so the invariants must not reject the state
    code = cli.main(["simulate", "--a", "0.5", "--n", "256", "--L", "10",
                     "--width", "4", "--T", "0.01", "--dt", "1e-4",
                     "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 3  # header, initial and final state


@pytest.mark.parametrize("flag,value", [("--n", "7"), ("--dt", "-1")])
def test_rejected_parameter_is_config_error(tmp_path, capsys, flag, value):
    code = cli.main(["simulate", "--a", "0.5", flag, value,
                     "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_seed_is_unknown_key(tmp_path, command):
    with pytest.raises(ConfigError):
        parse_config("command=%s\nseed=3\n" % command)
    assert cli.main([command, "--seed", "3",
                     "--out", str(tmp_path)]) == EXIT_CONFIG


def test_original_system_is_unknown_key(tmp_path, capsys):
    # the a = 1/4 gwp branch checks beta = a theta itself; no flag selects it
    with pytest.raises(ConfigError):
        parse_config("command=classify\noriginal_system=true\n")
    assert cli.main(["classify", "--a", "0.25", "--k", "1", "--s", "1",
                     "--original_system", "true",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["classify", "fre-scan", "sharpness"])
def test_rat_keys_are_exact_fractions(command):
    cfg = parse_config("command=%s\nk=1/2\ns=0.1\n" % command)
    assert cfg.get("k") == Fraction(1, 2)
    assert cfg.get("s") == Fraction(1, 10)
    assert float(cfg.get("s")) == float("0.1")


@pytest.mark.parametrize("command", ["classify", "fre-scan", "sharpness"])
@pytest.mark.parametrize("value", ["1/0", "nan", "inf", "1e400", "half"])
def test_bad_rat_value_is_config_error(tmp_path, capsys, command, value):
    code = cli.main([command, "--a", "2", "--k", value, "--s", "0",
                     "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad rat value")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_sharpness_accepts_rational_index(tmp_path):
    outs = []
    for s in ("1/2", "0.5"):
        out = tmp_path / s.replace("/", "_")
        assert cli.main(["sharpness", "--lemma", "L61", "--a", "2",
                         "--k", "0", "--s", s, "--N_ladder", "64,128,256",
                         "--out", str(out)]) == EXIT_OK
        outs.append((out / "sharpness_L61_s_le_k3.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("ladder", ["64,64,128", "64,64,64"])
def test_sharpness_needs_three_distinct_N(tmp_path, capfd, ladder):
    code = cli.main(["sharpness", "--lemma", "L61", "--a", "2",
                     "--N_ladder", ladder, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    # capfd also sees a warning numpy would print on a degenerate fit
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("config error: ladder needs at least 3 distinct N")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sharpness_reports_no_rho_for_an_unweighted_family(tmp_path):
    # only L62's datum carries the weight <xi>^(-rho)
    assert cli.main(["sharpness", "--lemma", "L61", "--a", "2", "--rho", "7",
                     "--N_ladder", "64,128,256",
                     "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "sharpness_L61_s_le_k3.json").read_text())
    assert report["rho"] is None


@pytest.mark.parametrize("k_max", ["-1", "0"])
def test_atlas_without_region_is_config_error(tmp_path, k_max):
    assert cli.main(["atlas", "--a", "2", "--k_max", k_max,
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lams", ["100,1000,nan", "100,100,1000",
                                  "0,100,1000", "100,1000,inf"])
def test_fre_scan_bad_cutoffs_are_config_errors(tmp_path, capfd, lams):
    code = cli.main(["fre-scan", "--form", "dxv2", "--a", "2", "--k", "1",
                     "--s", "0.5", "--lams", lams, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    # capfd also sees what LAPACK prints on a failed fit
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_fre_scan_cutoff_past_lam_max_is_config_error(tmp_path, capfd):
    code = cli.main(["fre-scan", "--form", "uvx", "--a", "0.5", "--k", "1",
                     "--s", "0.5", "--lams", "100,1000,1e60",
                     "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    out, err = capfd.readouterr()
    assert out == ""
    assert err == ("config error: cutoff lam = 1e+60 exceeds 1e+51, past "
                   "which the phase fit overflows\n")
    assert list(tmp_path.iterdir()) == []


def test_uvx_fre_scan_past_the_cube_term_bound_is_config_error(tmp_path,
                                                               capfd):
    code = cli.main(["fre-scan", "--form", "uvx", "--a", "0.5", "--k", "1",
                     "--s", "0.5", "--lams", "100,1000,1e7",
                     "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("config error: cutoff lam = 1e+07 is too large "
                          "for the uvx scan at a = 0.5")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["picard", "--iterate", "second_u", "--a", "2", "--t", "nan",
     "--window_lo", "1", "--window_hi", "2", "--v_boxes", "1:2"],
    ["picard", "--iterate", "second_u", "--a", "2", "--t", "1",
     "--window_lo", "1", "--window_hi", "2", "--v_boxes", "1:inf"],
    ["picard", "--iterate", "second_u", "--a", "2", "--t", "1",
     "--window_lo", "1", "--window_hi", "2", "--v_boxes", "1:2:nan"],
    ["sharpness", "--lemma", "L61", "--a", "nan", "--N_ladder",
     "64,128,256"],
    ["sharpness", "--lemma", "L61", "--a", "2", "--N_ladder",
     "64,128,inf"],
    ["simulate", "--a", "0.5", "--dt", "-inf"],
])
def test_non_finite_float_is_config_error(tmp_path, capsys, argv):
    code = cli.main(argv + ["--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_fresh_output_dir_made_only_by_a_run_that_writes(tmp_path, capsys):
    fresh = tmp_path / "new" / "out"
    assert cli.main(["sharpness", "--lemma", "L61", "--a", "2",
                     "--N_ladder", "64,64,128",
                     "--out", str(fresh)]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []
    assert cli.main(["classify", "--a", "0.5", "--k", "1", "--s", "1",
                     "--out", str(fresh)]) == EXIT_OK
    assert [p.name for p in fresh.iterdir()] == ["classify.json"]


def test_discard_removes_only_directories_the_run_made(tmp_path):
    art = cli._Artifacts(str(tmp_path / "new" / "out"))
    art.write_text("a.txt", "x")
    art.discard()
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "keep").mkdir()
    (tmp_path / "keep" / "old.txt").write_text("old")
    art = cli._Artifacts(str(tmp_path / "keep"))
    art.write_text("a.txt", "x")
    art.discard()
    assert [p.name for p in (tmp_path / "keep").iterdir()] == ["old.txt"]


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, sub):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = os.path.join(str(afile), sub) if sub else str(afile)
    assert cli.main(["classify", "--a", "0.5", "--k", "1", "--s", "1",
                     "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert out in err[0]
    assert list(tmp_path.iterdir()) == [afile]
    assert afile.read_text() == "keep"


def test_output_file_that_cannot_be_written_is_config_error(tmp_path,
                                                            capsys):
    # a directory in the way of classify.json; a fresh parent that makedirs
    # made before failing on an over-long name is removed again
    (tmp_path / "d" / "classify.json").mkdir(parents=True)
    long_out = str(tmp_path / "new" / ("x" * 300))
    for out in (str(tmp_path / "d"), long_out):
        assert cli.main(["classify", "--a", "0.5", "--k", "1", "--s", "1",
                         "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["classify.json"]


@pytest.mark.parametrize("command, every", [("simulate", "-3"),
                                            ("ibps-check", "-1")])
def test_negative_store_every_is_config_error(tmp_path, capsys, command,
                                              every):
    out = tmp_path / "out"
    assert cli.main([command, "--a", "0.5", "--n", "64", "--T", "0.01",
                     "--dt", "1e-3", "--store_every", every,
                     "--out", str(out)]) == EXIT_CONFIG
    assert "store_every" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
