"""Command-line contract: exit codes, config resolution, artifact stability."""
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mfclt.cli import (
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_PASS,
    ConfigError,
    dumps_json,
    main,
    parse_config,
    parse_law,
)
from mfclt.laws import Law, SamplerSpec


def run_cli(tmp_path, *args):
    return main([*args, "--out-dir", str(tmp_path)])


# ---------------------------------------------------------------------------
# config parsing


def test_seed_is_required():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(["clt", "run", "--functional", "linear-mean"])


def test_unknown_functional_lists_registry():
    with pytest.raises(ConfigError, match="linear-square"):
        parse_config(["clt", "run", "--functional", "zzz", "--seed", "1"])


def test_unknown_model_lists_registry():
    with pytest.raises(ConfigError, match="mean-revert"):
        parse_config(["meanfield", "run", "--model", "zzz", "--seed", "1"])


def test_unsorted_n_grid_rejected():
    with pytest.raises(ConfigError, match="increasing"):
        parse_config(["clt", "scaling", "--functional", "mean-square",
                      "--n-grid", "1000,100", "--seed", "1"])


def test_quantile_functional_parses():
    cfg = parse_config(["clt", "run", "--functional", "quantile:0.5",
                        "--seed", "3"])
    assert cfg.functional == "quantile:0.5"


def test_ini_file_with_flag_override(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nkind = clt\nseed = 5\nn = 400\nreps = 50\n"
        "functional = linear-mean\n\n[law]\nspec = uniform:0,1\n")
    cfg = parse_config(["clt", "run", "--config", str(ini)])
    assert cfg.seed == 5 and cfg.n == 400 and cfg.law == "uniform:0,1"
    over = parse_config(["clt", "run", "--config", str(ini), "--n", "999"])
    assert over.n == 999 and over.reps == 50


def test_ini_model_phi_wins_and_flags_override_lists_and_force(tmp_path):
    ini = tmp_path / "mf.ini"
    ini.write_text("[model]\nname = ou\nphi = mean-square\nforce = true\n\n"
                   "[experiment]\nseed = 2\nphi = linear-mean\ntimes = 0.1,0.2\n")
    cfg = parse_config(["meanfield", "run", "--config", str(ini)])
    assert cfg.phi == "mean-square" and cfg.force is True
    assert cfg.times == (0.1, 0.2)
    over = parse_config(["meanfield", "run", "--config", str(ini),
                         "--times", "0.3", "--no-force"])
    assert over.times == (0.3,) and over.force is False
    assert over.phi == "mean-square"


def test_readme_commands_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("mfclt ")]
    assert len(commands) == 6
    for argv in commands:
        assert parse_config(argv).seed is not None, argv


def test_parse_law_variants(tmp_path):
    assert isinstance(parse_law("normal:1,2"), SamplerSpec)
    assert isinstance(parse_law("uniform:-1,1"), SamplerSpec)
    atoms = tmp_path / "atoms.txt"
    from mfclt.measures import DiscreteMeasure
    mu = DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
    atoms.write_text(mu.to_text())
    spec = parse_law(f"atoms:{atoms}")
    assert spec.kind == "atoms"
    with pytest.raises(ConfigError):
        parse_law("gamma:1,2")
    with pytest.raises(ConfigError):
        parse_law("normal:a,b")
    with pytest.raises(ConfigError):
        parse_law("atoms:/no/such/file")


# ---------------------------------------------------------------------------
# JSON serialization


def test_dumps_json_17_digits_and_nonfinite_null():
    text = dumps_json({"x": 1.0 / 3.0, "bad": float("nan"),
                       "inf": float("inf"), "arr": np.array([1.5, 2.5])})
    assert "0.33333333333333331" in text
    assert text.count("null") == 2
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0
    assert parsed["bad"] is None and parsed["inf"] is None
    assert parsed["arr"] == [1.5, 2.5]


def test_dumps_json_escapes_strings():
    text = dumps_json({"s": 'a"b\\c'})
    assert json.loads(text)["s"] == 'a"b\\c'


# ---------------------------------------------------------------------------
# end-to-end runs and exit codes


def test_clt_run_passes_and_writes_artifacts(tmp_path):
    code = run_cli(tmp_path, "clt", "run", "--functional", "linear-square",
                   "--law", "normal:0,1", "--n", "1000", "--reps", "300",
                   "--seed", "7", "--out", "r.json")
    assert code == EXIT_PASS
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["ks_pvalue"] > 0.01
    assert report["sigma2_theory"] == pytest.approx(2.0, rel=1e-3)
    csv = (tmp_path / "r.csv").read_text().splitlines()
    assert csv[0] == "sqrtN_deltaU"
    assert len(csv) == 301
    manifest = json.loads((tmp_path / "r.manifest.json").read_text())
    assert manifest["status"] == "done"
    assert manifest["checks"]["ks_pvalue_gt_0.01"] is True
    assert manifest["artifact_version"]
    assert manifest["wall_time_s"] is not None
    assert manifest["config"]["seed"] == 7


def test_repeat_runs_byte_identical(tmp_path):
    args = ("clt", "run", "--functional", "linear-mean", "--law",
            "uniform:0,1", "--n", "500", "--reps", "100", "--seed", "9")
    assert run_cli(tmp_path, *args, "--out", "a.json") == EXIT_PASS
    assert run_cli(tmp_path, *args, "--out", "b.json") == EXIT_PASS
    a = (tmp_path / "a.json").read_text().replace("a.csv", "x.csv")
    b = (tmp_path / "b.json").read_text().replace("b.csv", "x.csv")
    assert a == b
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_config_error_exit_code(tmp_path, capsys):
    assert run_cli(tmp_path, "clt", "run", "--functional", "zzz",
                   "--seed", "1") == EXIT_CONFIG
    for law in ("normal:0,oops", "normal:nan,1", "normal:0,nan"):
        assert run_cli(tmp_path, "clt", "run", "--functional", "linear-mean",
                       "--law", law, "--seed", "1") == EXIT_CONFIG
    assert run_cli(tmp_path, "meanfield", "run", "--model", "ou",
                   "--times", "0.105", "--seed", "1") == EXIT_CONFIG
    assert run_cli(tmp_path, "meanfield", "run", "--model", "ou",
                   "--times=-0.1,0.1", "--seed", "1") == EXIT_CONFIG
    nine = ",".join(f"0.0{i}" for i in range(1, 10))
    assert run_cli(tmp_path, "meanfield", "run", "--model", "ou",
                   "--times", nine, "--seed", "1") == EXIT_CONFIG
    # covariance term 2 needs exact particle gradients; a quantile's is a
    # point mass, which would bias the product of two of them by O(M)
    assert run_cli(tmp_path, "meanfield", "run", "--model", "ou", "--phi",
                   "quantile:0.5", "--times", "0.1", "--seed", "1") == EXIT_CONFIG
    assert run_cli(tmp_path, "meanfield", "run", "--times", "0.02", "--n",
                   "20", "--reps", "5", "--seed", "1") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "not on the dt=0.01 grid" in err
    assert "time -0.1 is negative" in err
    assert "between 1 and 8 time points" in err
    assert "no moment form with exact statistic gradients" in err
    assert ("meanfield run needs --model; registry: bounded-sine, "
            "mean-revert, ou") in err
    for probes in ("0", "-2"):  # zero probes would pass with nothing checked
        assert run_cli(tmp_path, "derivcheck", "--probes", probes,
                       "--seed", "1") == EXIT_CONFIG
    mf = ("meanfield", "run", "--model", "ou", "--times", "0.1", "--n", "20",
          "--seed", "1")
    assert run_cli(tmp_path, *mf, "--reps", "2") == EXIT_CONFIG
    for ref_size in ("1", "2", "-5"):
        assert run_cli(tmp_path, *mf, "--reps", "5",
                       "--ref-size", ref_size) == EXIT_CONFIG
    assert run_cli(tmp_path, "clt", "run", "--functional", "linear-mean",
                   "--n", "50", "--reps", "2", "--seed", "1") == EXIT_CONFIG
    assert run_cli(tmp_path, "clt", "scaling", "--functional", "mean-square",
                   "--n-grid", "100", "--reps", "5", "--seed", "1") == EXIT_CONFIG
    err = capsys.readouterr().err
    for msg in ("probes must be positive", "reps must be at least 3",
                "ref_size must be at least 3", "n_grid needs at least two points"):
        assert msg in err
    assert not list(tmp_path.iterdir())  # rejected before any artifact


@pytest.mark.parametrize("flag", ["--times=nan", "--dt=nan", "--times=0.1,inf"])
def test_non_finite_time_or_step_exits_config(tmp_path, flag):
    assert run_cli(tmp_path, "meanfield", "run", "--model", "ou", flag,
                   "--seed", "1") == EXIT_CONFIG
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("section, line", [
    ("experiment", "seed = abc"), ("experiment", "times = 0.1,x"),
    ("model", "force = maybe"),
    ("experiment", "rep = 10"),  # misspelt key
    ("experiment", "functional = linear-mean"),  # not an option of meanfield run
    ("experiment", "kind = clt")])
def test_malformed_ini_value_exits_config(tmp_path, capsys, section, line):
    sections = {"experiment": "seed = 1", "model": "name = ou"}
    sections[section] = line
    ini = tmp_path / "bad.ini"
    ini.write_text("".join(f"[{k}]\n{v}\n" for k, v in sections.items()))
    out = tmp_path / "out"
    assert main(["meanfield", "run", "--config", str(ini),
                 "--out-dir", str(out)]) == EXIT_CONFIG
    assert f"config key {line.split()[0]!r}" in capsys.readouterr().err
    assert not out.exists()


_TINY_MF = "[experiment]\nseed = 1\nn = 20\nreps = 5\ntimes = 0.02\n[model]\nname = ou\n"


@pytest.mark.parametrize("text", [
    "seed = 1\n" + _TINY_MF,
    _TINY_MF.replace("seed = 1\n", "seed = 1\nseed = 2\n"),
    _TINY_MF + "[experiment]\nworkers = 1\n",
    _TINY_MF + "[modle]\nname = ou\n",
    "[DEFAULT]\nworkers = 1\n" + _TINY_MF,
], ids=["no-header", "duplicate-key", "duplicate-section", "unknown-section",
        "default-section"])
def test_malformed_ini_file_exits_config(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert main(["meanfield", "run", "--config", str(ini),
                 "--out-dir", str(out)]) == EXIT_CONFIG
    assert f"config file {str(ini)!r}" in capsys.readouterr().err
    assert not out.exists()


def test_ini_values_are_literal(tmp_path):
    target = tmp_path / "100%"
    ini = tmp_path / "pct.ini"
    ini.write_text(f"[experiment]\nseed = 1\nn = 200\nreps = 30\n"
                   f"[output]\ndir = {target}\n")
    assert main(["clt", "run", "--config", str(ini)]) == EXIT_PASS
    assert (target / "clt.json").exists()


@pytest.mark.parametrize("flag, path", [("--out-dir", "blocker"),
                                        ("--out", "blocker/r.json")])
def test_unwritable_output_exits_config(tmp_path, capsys, flag, path):
    (tmp_path / "blocker").write_text("")
    assert main(["clt", "run", "--n", "50", "--reps", "5", "--seed", "1",
                 flag, str(tmp_path / path)]) == EXIT_CONFIG
    assert "blocker" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


# the benchmark workloads' smoke-size command lines, each with the INI file
# that says the same thing
_INI_EQUIVALENTS = [
    (["clt", "run"], ["--functional", "quantile:0.5", "--law", "normal:0,1",
                      "--n", "200", "--reps", "40", "--workers", "2"],
     "functional = quantile:0.5\nn = 200\nreps = 40\nworkers = 2\n"
     "[law]\nspec = normal:0,1\n"),
    (["clt", "scaling"], ["--functional", "cube-of-second-moment", "--law",
                          "normal:0,1", "--n-grid", "100,316", "--reps", "20"],
     "functional = cube-of-second-moment\nn_grid = 100,316\nreps = 20\n"
     "[law]\nspec = normal:0,1\n"),
    (["meanfield", "run"], ["--model", "ou", "--phi", "linear-mean", "--n", "50",
                            "--reps", "20", "--times", "0.02,0.04"],
     "n = 50\nreps = 20\ntimes = 0.02,0.04\n[model]\nname = ou\nphi = linear-mean\n"),
    (["derivcheck"], ["--probes", "2"], "probes = 2\n"),
]


@pytest.mark.parametrize("head, flags, keys", _INI_EQUIVALENTS,
                         ids=["-".join(c[0]) for c in _INI_EQUIVALENTS])
def test_ini_and_flags_write_identical_bytes(tmp_path, head, flags, keys):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nseed = 7\n" + keys)
    assert main([*head, "--config", str(ini),
                 "--out-dir", str(tmp_path / "ini")]) == EXIT_PASS
    assert main([*head, *flags, "--seed", "7",
                 "--out-dir", str(tmp_path / "flags")]) == EXIT_PASS

    def artifacts(out):  # reports and CSVs, as the benchmark digests them
        return {p.name: re.sub(rb'"samples_csv_path": "[^"]*"', b"", p.read_bytes())
                for p in out.iterdir() if not p.name.endswith(".manifest.json")}

    from_ini = artifacts(tmp_path / "ini")
    assert from_ini and from_ini == artifacts(tmp_path / "flags")


def test_decompose_artifacts_independent_of_workers(tmp_path):
    args = ("clt", "decompose", "--functional", "mean-square", "--law",
            "normal:0,1", "--n", "200", "--reps", "24", "--seed", "4")
    for workers in ("1", "4"):
        assert run_cli(tmp_path / workers, *args, "--workers", workers,
                       "--out", "d.json") == EXIT_PASS
    for name in ("d.json", "d.csv"):
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "4" / name).read_bytes())


def test_assertion_failure_exit_code(tmp_path):
    # one-point Gauss-Legendre cannot integrate a quartic s-profile
    code = run_cli(tmp_path, "clt", "decompose", "--functional",
                   "cube-of-second-moment", "--law", "normal:0,1",
                   "--n", "150", "--reps", "10", "--quad-points", "1",
                   "--seed", "1", "--out", "d.json")
    assert code == EXIT_ASSERTION
    manifest = json.loads((tmp_path / "d.manifest.json").read_text())
    assert manifest["status"] == "assertion-failure"
    assert manifest["checks"]["identity_residual_lt_1e-8"] is False


def test_numeric_failure_exit_code(tmp_path):
    # ou claims no hypothesis flags, so the strict gate refuses to run; the
    # cube of the second moment overflows under sd = 1e80 in every clt action
    overflow = ("--functional", "cube-of-second-moment", "--law",
                "normal:0,1e80", "--n", "50", "--reps", "5")
    cases = {
        "m": ("meanfield", "run", "--model", "ou", "--phi", "linear-mean",
              "--no-force", "--n", "50", "--reps", "10"),
        "run": ("clt", "run", *overflow),
        "decompose": ("clt", "decompose", *overflow),
        "scaling": ("clt", "scaling", *overflow, "--n-grid", "50,100"),
    }
    for stem, args in cases.items():
        code = run_cli(tmp_path, *args, "--seed", "1", "--out", f"{stem}.json")
        assert code == EXIT_NUMERIC, stem
        manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
        assert manifest["status"] == "numeric-failure"
        assert "error" in manifest["checks"]
        assert not (tmp_path / f"{stem}.json").exists()


def test_scaling_run(tmp_path):
    code = run_cli(tmp_path, "clt", "scaling", "--functional", "mean-square",
                   "--law", "normal:0,1", "--n-grid", "100,316,1000",
                   "--reps", "60", "--seed", "2", "--out", "s.json")
    assert code == EXIT_PASS
    report = json.loads((tmp_path / "s.json").read_text())
    assert report["slope"] <= -0.5
    assert report["r2"] > 0.9


def test_derivcheck_run(tmp_path):
    code = run_cli(tmp_path, "derivcheck", "--seed", "3", "--probes", "10",
                   "--out", "dc.json")
    assert code == EXIT_PASS
    report = json.loads((tmp_path / "dc.json").read_text())
    assert report["max_rel_gap"] < 1e-6
    assert "quantile:0.5" in report["per_functional"]


def test_metrics_check_run(tmp_path):
    code = run_cli(tmp_path, "metrics", "check", "--seed", "3",
                   "--out", "met.json")
    assert code == EXIT_PASS


def test_meanfield_run_small(tmp_path):
    code = run_cli(tmp_path, "meanfield", "run", "--model", "ou",
                   "--phi", "linear-mean", "--n", "200", "--reps", "150",
                   "--times", "0.5", "--seed", "7", "--out", "mf.json")
    assert code == EXIT_PASS
    report = json.loads((tmp_path / "mf.json").read_text())
    assert report["hypothesis_gate"].startswith("forced")
    assert len(report["cramer_wold"]) >= 1
    csv = (tmp_path / "mf.csv").read_text().splitlines()
    assert csv[0] == "F_t0.5"
    assert len(csv) == 151


def test_env_var_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "redirected"
    monkeypatch.setenv("MFCLT_OUT_DIR", str(target))
    code = main(["clt", "run", "--functional", "linear-mean", "--law",
                 "normal:0,1", "--n", "200", "--reps", "30", "--seed", "1",
                 "--out", "e.json"])
    assert code == EXIT_PASS
    assert (target / "e.json").exists()
