"""The command-line runner: exit codes, config errors, the template and the
config echo. Every run is short (horizon <= 300, at most 2 trials; exp1 with
matching runs at horizon 1500)."""

import configparser
import os
import time
from pathlib import Path

import numpy as np
import pytest

from confilt import cli

SHORT = "horizon = 200\nsystem_seed = 101\n"


def write(tmp_path: Path, text: str, name: str = "config.ini") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def invoke(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def stub_matcher(monkeypatch):
    """The step-size matcher is slow and misses exp1's plateau minimum at
    short horizons; a stub returning a fixed step size exercises the rest of
    the matched branch."""
    monkeypatch.setattr(cli, "match_step_size", lambda target, name, *a, **k: 0.037)


def test_run_writes_curves_summary_and_plot(tmp_path, capsys):
    cfg = write(tmp_path, f"[experiment]\nid = custom\n{SHORT}")
    out = tmp_path / "out"
    code, stdout, _ = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", out)
    assert code == cli.EXIT_OK
    assert "experiment custom complete" in stdout
    assert sorted(p.name for p in out.iterdir()) == ["custom_clmls.csv", "plot.gp", "summary.txt"]
    rows = (out / "custom_clmls.csv").read_text().splitlines()
    assert rows[0] == "iteration,msd_db,emse" and len(rows) == 201


BAD_VALUES = {
    "sigma-not-a-number": ("custom", "[scenario]\nsigma_v2 = abc\n", "[scenario] sigma_v2 = 'abc'"),
    "snr-not-a-number": ("exp2-snr", "[scenario]\nsnr_db_list = 30, x\n", "[scenario] snr_db_list = '30, x'"),
    "snr-out-of-range": ("exp2-snr", "[scenario]\nsnr_db_list = 5000\n", "[scenario] snr_db_list = '5000'"),
    "mu-list-not-a-number": ("exp2-mu", "[scenario]\nmu_list = 0.1, y\n", "[scenario] mu_list = '0.1, y'"),
    "budget-not-a-number": ("exp3", "[params]\nl1_budget = z\n", "[params] l1_budget = 'z'"),
    "one-bound": ("exp1", "[matching]\nbounds = 0.1\n", "[matching] bounds = '0.1'"),
    "three-bounds": ("exp1", "[matching]\nbounds = 0.1, 0.2, 0.3\n", "[matching] bounds = '0.1, 0.2, 0.3'"),
    "bounds-decreasing": ("exp1", "[matching]\nbounds = 0.5, 0.1\n", "[matching] bounds = '0.5, 0.1'"),
    "negative-sigma": ("custom", "[scenario]\nsigma_v2 = -0.1\n", "[scenario] sigma_v2 = '-0.1'"),
    "negative-budget": ("exp3", "[params]\nl1_budget = -1\n", "[params] l1_budget = '-1'"),
    "negative-mu-in-list": ("exp2-mu", "[scenario]\nmu_list = 0.1, -0.2\n", "[scenario] mu_list = '0.1, -0.2'"),
    "rho-one": ("custom", "[scenario]\ninput = ar1\nar1_rho = 1\n", "[scenario] ar1_rho = '1'"),
    "rho-below-minus-one": ("custom", "[scenario]\ninput = ar1\nar1_rho = -1.5\n", "[scenario] ar1_rho = '-1.5'"),
    "no-match-trials": ("exp1", "[matching]\ntrials = 0\n", "[matching] trials = '0'"),
    "misspelt-bool": ("exp1", "[matching]\nenabled = ture\n", "[matching] enabled = 'ture'"),
    "no-algorithms": ("custom", "[experiment]\nalgorithms = ,\n", "[experiment] algorithms = ','"),
    "algorithm-twice": ("custom", "[experiment]\nalgorithms = clmls, clmls\n", "[experiment] algorithms = 'clmls, clmls'"),
    "unknown-algorithm": ("custom", "[experiment]\nalgorithms = clmls, foo\n", "[experiment] algorithms = 'clmls, foo'"),
    "non-finite-mu": ("custom", "[params]\nmu = inf\n", "[params] mu = 'inf'"),
    "negative-seed": ("custom", "[experiment]\nbase_seed = -1\n", "[experiment] base_seed = '-1'"),
    "short-filter": ("custom", "[experiment]\nfilter_length = 1\n", "[experiment] filter_length = '1'"),
    "exp3-too-short-for-sparsity": ("exp3", "[experiment]\nfilter_length = 4\n", "[experiment] filter_length"),
    "unknown-input": ("custom", "[scenario]\ninput = pink\n", "[scenario] input = 'pink'"),
    "sigma-and-snr": ("custom", "[scenario]\nsigma_v2 = 0.1\nsnr_db_list = 10\n", "[scenario] sigma_v2 and snr_db_list"),
    "mu-list-and-snr": ("exp2-mu", "[scenario]\nsnr_db_list = 10\n", "[scenario] mu_list and snr_db_list"),
    "exp2-snr-without-snr": ("exp2-snr", "[scenario]\nsigma_v2 = 0.1\n", "exp2-snr needs [scenario] snr_db_list"),
    "unconstrained-clmls": ("custom", "[scenario]\nconstraint = none\n", "[scenario] constraint = none"),
}


@pytest.mark.parametrize("exp_id, extra, anchor", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_is_an_anchored_config_error(tmp_path, capsys, exp_id, extra, anchor):
    # a second [experiment] header would be a duplicate section, so extra
    # [experiment] keys go under the first
    head = f"[experiment]\nid = {exp_id}\n{SHORT}"
    if extra.startswith("[experiment]\n"):
        head, extra = head + extra.removeprefix("[experiment]\n"), ""
    cfg = write(tmp_path, head + "\n" + extra)
    code, _, err = invoke(capsys, "validate", "--config", cfg)
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"invalid: {cfg}: {anchor}")
    code, _, err = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"config error: {cfg}: {anchor}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_missing_or_unknown_id(tmp_path, capsys):
    code, _, err = invoke(capsys, "validate", "--config", write(tmp_path, f"[experiment]\n{SHORT}"))
    assert code == cli.EXIT_CONFIG and "[experiment] id is required" in err
    code, _, err = invoke(capsys, "validate", "--config", write(tmp_path, "[experiment]\nid = exp9\n"))
    assert code == cli.EXIT_CONFIG and "[experiment] id = 'exp9': must be one of" in err


@pytest.mark.parametrize(
    "command, prefix", [("validate", "invalid"), ("run", "config error"), ("predict", "config error")],
    ids=["validate", "run", "predict"],
)
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command, prefix):
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes(f"[experiment]\nid = custom\n{SHORT}# caf\xe9\n".encode("latin-1"))
    code, out, err = invoke(capsys, command, "--config", cfg, "--out-dir", tmp_path / "out")
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"{prefix}: {cfg}: not UTF-8 text: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("trials", ["0", "-3", "two"])
def test_trials_flag_is_validated_before_running(tmp_path, capsys, trials):
    cfg = write(tmp_path, f"[experiment]\nid = custom\n{SHORT}")
    code, _, err = invoke(capsys, "run", "--config", cfg, "--trials", trials, "--out-dir", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"config error: {cfg}: [experiment] trials = '{trials}' from the command line: ")


def test_validate_names_the_source_of_each_value(tmp_path, capsys):
    cfg = write(tmp_path, f"[experiment]\nid = custom\n{SHORT}")
    code, out, _ = invoke(capsys, "validate", "--config", cfg, "--trials", 4, "--seed", 9)
    assert code == cli.EXIT_OK
    assert "  command line: [experiment] trials = 4\n" in out
    assert "  command line: [experiment] base_seed = 9\n" in out
    assert "  default applied: [experiment] system_seed" not in out  # given in the file
    assert "  default applied: [params] mu = 0.05\n" in out
    assert "trials = 500" not in out and "base_seed = 1234" not in out


def test_validate_lists_unread_keys_and_still_passes(tmp_path, capsys):
    cfg = write(tmp_path, f"[experiment]\nid = custom\nhorizn = 10\n{SHORT}\n[output]\nthreads = 1\n")
    code, out, _ = invoke(capsys, "validate", "--config", cfg)
    assert code == cli.EXIT_OK
    assert "  not read: [experiment] horizn is not a config key; ignored\n" in out
    assert "  not read: [output] threads is not a config key; ignored\n" in out
    assert out.count("not read:") == 2


def test_predict_on_a_switching_system_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, f"[experiment]\nid = exp3\n{SHORT}")
    code, _, err = invoke(capsys, "predict", "--config", cfg, "--out-dir", tmp_path / "out")
    assert code == cli.EXIT_CONFIG
    assert "predict needs a fixed system" in err


def test_all_trials_diverging_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "[experiment]\nid = custom\nhorizon = 200\n\n[params]\nmu = 1000\n")
    code, _, err = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", tmp_path / "out")
    assert code == cli.EXIT_DIVERGED
    assert "run failed: all 2 trials of clmls at mu = 1000 diverged" in err


def test_diverging_theory_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "[experiment]\nid = custom\nhorizon = 200\n\n[params]\nmu = 1000\n")
    code, out, err = invoke(capsys, "predict", "--config", cfg, "--out-dir", tmp_path / "out")
    assert code == cli.EXIT_DIVERGED
    assert (out, err) == ("", "predict failed: theory recursion diverged at iteration 47\n")
    assert not (tmp_path / "out").exists()


def test_io_errors_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, f"[experiment]\nid = custom\n{SHORT}")
    blocker = write(tmp_path, "not a directory", "file.txt")
    code, _, err = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", blocker)
    assert code == cli.EXIT_IO and err.startswith("i/o error:")
    code, _, err = invoke(capsys, "init", "--config", cfg)
    assert code == cli.EXIT_IO and "refusing to overwrite" in err
    assert cfg.read_text() == f"[experiment]\nid = custom\n{SHORT}"
    assert invoke(capsys, "init", "--config", cfg, "--force")[0] == cli.EXIT_OK


CUSTOM = f"[experiment]\nid = custom\n{SHORT}"
RUN = ("--trials", "2", "--out-dir", "{out}")
# name -> (argv, config text, exit code, first line of stderr). In argv, {cfg}
# is the config written from the text, {out} a directory yet to be made,
# {file} an existing regular file, {new} a file yet to be written and
# {missing} a file in a directory that does not exist
OUTCOMES = {
    "validate": (["validate", "--config", "{cfg}"], CUSTOM, cli.EXIT_OK, ""),
    "validate-bad-value": (["validate", "--config", "{cfg}"], CUSTOM + "\n[params]\nmu = abc\n",
                           cli.EXIT_CONFIG, "invalid: {cfg}: [params] mu = 'abc': "),
    "validate-no-config-file": (["validate", "--config", "{missing}"], None,
                                cli.EXIT_CONFIG, "invalid: {missing}: cannot read config: "),
    "run": (["run", "--config", "{cfg}", *RUN], CUSTOM, cli.EXIT_OK, ""),
    "run-bad-value": (["run", "--config", "{cfg}", *RUN], CUSTOM + "\n[params]\nmu = abc\n",
                      cli.EXIT_CONFIG, "config error: {cfg}: [params] mu = 'abc': "),
    "run-diverges": (["run", "--config", "{cfg}", *RUN], CUSTOM + "\n[params]\nmu = 1000\n",
                     cli.EXIT_DIVERGED, "run failed: all 2 trials of clmls at mu = 1000 diverged"),
    "run-matcher-misses": (
        ["run", "--config", "{cfg}", *RUN],
        f"[experiment]\nid = exp1\nalgorithms = lms, lmls\n{SHORT}\n[matching]\nbounds = 1e-4, 2e-4\ntrials = 2\n",
        cli.EXIT_DIVERGED, "run failed: target ",
    ),
    "run-out-dir-is-a-file": (["run", "--config", "{cfg}", "--trials", "2", "--out-dir", "{file}"], CUSTOM,
                              cli.EXIT_IO, "i/o error: "),
    "predict": (["predict", "--config", "{cfg}", "--out-dir", "{out}"], CUSTOM, cli.EXIT_OK, ""),
    "predict-bad-value": (["predict", "--config", "{cfg}", "--out-dir", "{out}"], CUSTOM + "\n[params]\nmu = abc\n",
                          cli.EXIT_CONFIG, "config error: {cfg}: [params] mu = 'abc': "),
    "predict-several-points": (["predict", "--config", "{cfg}", "--out-dir", "{out}"],
                               f"[experiment]\nid = exp2-mu\n{SHORT}",
                               cli.EXIT_CONFIG, "config error: predict needs a single scenario point"),
    "predict-switching-system": (["predict", "--config", "{cfg}", "--out-dir", "{out}"],
                                 f"[experiment]\nid = exp3\n{SHORT}",
                                 cli.EXIT_CONFIG, "config error: [experiment] id = exp3: predict needs a fixed system"),
    "predict-unconstrained": (["predict", "--config", "{cfg}", "--out-dir", "{out}"],
                              CUSTOM + "algorithms = lms\n\n[scenario]\nconstraint = none\n",
                              cli.EXIT_CONFIG, "config error: predict requires a constrained scenario"),
    "predict-not-clmls": (["predict", "--config", "{cfg}", "--out-dir", "{out}"], CUSTOM + "algorithms = clms\n",
                          cli.EXIT_CONFIG, "config error: [experiment] algorithms = clms: predict models clmls only"),
    "predict-diverges": (["predict", "--config", "{cfg}", "--out-dir", "{out}"], CUSTOM + "\n[params]\nmu = 1000\n",
                         cli.EXIT_DIVERGED, "predict failed: theory recursion diverged at iteration 47"),
    "predict-out-dir-is-a-file": (["predict", "--config", "{cfg}", "--out-dir", "{file}"], CUSTOM,
                                  cli.EXIT_IO, "i/o error: "),
    "init": (["init", "--config", "{new}"], None, cli.EXIT_OK, ""),
    "init-over-a-file": (["init", "--config", "{file}"], None,
                         cli.EXIT_IO, "refusing to overwrite {file} (use --force)"),
    "init-force": (["init", "--config", "{file}", "--force"], None, cli.EXIT_OK, ""),
    "init-no-directory": (["init", "--config", "{missing}"], None, cli.EXIT_IO, "cannot write template: "),
    "usage-no-command": ([], None, cli.EXIT_CONFIG, "usage: confilt "),
    "usage-no-config": (["run"], None, cli.EXIT_CONFIG, "usage: confilt run "),
    "usage-unknown-command": (["simulate", "--config", "{cfg}"], CUSTOM, cli.EXIT_CONFIG, "usage: confilt "),
    "usage-unknown-flag": (["validate", "--config", "{cfg}", "--bogus"], CUSTOM, cli.EXIT_CONFIG, "usage: confilt "),
    "help": (["--help"], None, cli.EXIT_OK, ""),
    "run-help": (["run", "--help"], None, cli.EXIT_OK, ""),
}


@pytest.mark.parametrize("case", OUTCOMES)
def test_every_outcome_of_every_command(tmp_path, capsys, case):
    argv, text, code, first_line = OUTCOMES[case]
    paths = {
        "cfg": tmp_path / "config.ini", "out": tmp_path / "out", "file": tmp_path / "file.txt",
        "new": tmp_path / "new.ini", "missing": tmp_path / "no-such-dir" / "config.ini",
    }
    if text is not None:
        paths["cfg"].write_text(text, encoding="utf-8")
    paths["file"].write_text("not a directory\n", encoding="utf-8")
    try:
        got = cli.main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:  # whatever escapes `main` ends the program with its code
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert err.partition("\n")[0].startswith(first_line.format(**paths))
    assert (err == "") == (first_line == "")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, anchor", [
    ("--seed", "[experiment] base_seed"), ("--trials", "[experiment] trials"), ("--out-dir", "[output] dir"),
], ids=["seed", "trials", "out-dir"])
@pytest.mark.parametrize(
    "command, prefix", [("validate", "invalid"), ("run", "config error"), ("predict", "config error")],
    ids=["validate", "run", "predict"],
)
def test_an_empty_override_is_a_config_error(tmp_path, capsys, monkeypatch, command, prefix, flag, anchor):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, CUSTOM)
    flags = {"--seed": "101", "--trials": "2", "--out-dir": "out", flag: ""}
    code, out, err = invoke(capsys, command, "--config", cfg, *(x for item in flags.items() for x in item))
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"{prefix}: {cfg}: {anchor} = '' from the command line: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["config.ini"]


def test_template_lists_every_key_with_its_defaults(tmp_path, capsys):
    path = tmp_path / "template.ini"
    assert invoke(capsys, "init", "--config", path)[0] == cli.EXIT_OK
    text = path.read_text()
    lines = text.splitlines()
    for row in cli._KEYS:
        if row.key == "id":
            assert any(ln.startswith("id = exp1 ") for ln in lines)
            continue
        start = lines.index(f"[{row.section}]")
        entry = next(i for i in range(start, len(lines)) if lines[i].startswith(f"# {row.key} = "))
        assert lines[entry].split(";")[0].strip() == f"# {row.key} = {row.default or ''}".strip()
        assert row.help in lines[entry]
        below = lines[entry + 1: entry + 1 + len(row.per_experiment)]
        for exp, value in row.per_experiment.items():
            assert f"#     {exp}: {'unset' if value is None else value}" in below
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    assert parser.sections() == list(dict.fromkeys(row.section for row in cli._KEYS))


def config_echo(summary: Path) -> str:
    text = summary.read_text()
    return text.split("[config-echo]\n", 1)[1]


@pytest.mark.parametrize("exp_id", cli.EXPERIMENT_IDS)
def test_init_validate_run_round_trip(tmp_path, capsys, monkeypatch, exp_id):
    stub_matcher(monkeypatch)
    path = tmp_path / "config.ini"
    assert invoke(capsys, "init", "--config", path)[0] == cli.EXIT_OK
    path.write_text(path.read_text().replace("id = exp1 ", f"id = {exp_id}\nhorizon = 300 ", 1))
    assert invoke(capsys, "validate", "--config", path)[0] == cli.EXIT_OK
    out = tmp_path / "out"
    code, _, err = invoke(capsys, "run", "--config", path, "--trials", 2, "--out-dir", out)
    assert code == cli.EXIT_OK, err
    echo = write(tmp_path, config_echo(out / "summary.txt"), "echo.ini")
    expected = cli.load_config(path, {"trials": "2", "out_dir": str(out)})
    assert cli.load_config(echo) == expected
    assert expected.experiment == exp_id and expected.horizon == 300 and expected.trials == 2


def test_echo_keeps_every_digit(tmp_path):
    cfg = write(tmp_path, f"[experiment]\nid = exp2-mu\n{SHORT}\n[scenario]\nmu_list = 0.1234567890123, 0.05\n")
    loaded = cli.load_config(cfg)
    echo = write(tmp_path, cli._config_echo(loaded), "echo.ini")
    assert cli.load_config(echo) == loaded
    assert "mu_list = 0.1234567890123, 0.05\n" in echo.read_text()


def test_percent_sign_is_plain_text(tmp_path):
    cfg = write(tmp_path, f"[experiment]\nid = custom\n{SHORT}\n[output]\ndir = runs/100%\n")
    assert cli.load_config(cfg).out_dir == "runs/100%"


def test_each_scenario_is_built_once_and_swept(tmp_path, capsys, monkeypatch):
    # one core: the lists below record the calls of this process only
    monkeypatch.setattr(cli, "_core_count", lambda: 1)
    builds, sweeps, theories = [], [], []
    build, sweep, theory = cli.build_scenario, cli.run_step_size_sweep, cli.transient_sweep
    monkeypatch.setattr(cli, "build_scenario", lambda *a: builds.append(a[1]) or build(*a))
    monkeypatch.setattr(cli, "run_step_size_sweep", lambda *a, **k: sweeps.append(a[3]) or sweep(*a, **k))
    monkeypatch.setattr(cli, "transient_sweep", lambda *a: theories.append((a[0].sigma_v2, a[3])) or theory(*a))
    stub_matcher(monkeypatch)
    cfg = write(tmp_path, f"[experiment]\nid = exp2-mu\nalgorithms = clmls, clms\n{SHORT}\n[matching]\nenabled = true\n")
    code, _, _ = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", tmp_path / "mu")
    assert code == cli.EXIT_OK
    assert builds == [0.01]
    assert sweeps == [[0.03, 0.05, 0.1], [0.037] * 3]
    assert theories == [(0.01, [0.03, 0.05, 0.1])]
    summary = (tmp_path / "mu" / "summary.txt").read_text()
    assert "clms_mu0.05: " in summary and "mu=0.037 (matched)" in summary

    builds.clear(), sweeps.clear(), theories.clear()
    cfg = write(tmp_path, f"[experiment]\nid = exp2-snr\n{SHORT}")
    code, _, _ = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", tmp_path / "snr")
    assert code == cli.EXIT_OK
    assert len(builds) == 3 and sweeps == [[0.05]] * 3
    assert theories == [(sigma_v2, [0.05]) for sigma_v2 in builds]


def test_diverging_theory_point_is_reported_not_fatal(tmp_path, capsys):
    # the simulation at mu = 3 finishes (diverged=0); its recursion does not
    cfg = write(tmp_path, "[experiment]\nid = exp2-mu\nhorizon = 200\n\n[scenario]\nmu_list = 0.05, 3\n")
    out = tmp_path / "out"
    code, _, err = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", out)
    assert code == cli.EXIT_OK
    assert err.count("warning:") == 1
    assert "warning: clmls_mu3: theory recursion diverged at iteration 193" in err
    assert sorted(p.name for p in out.iterdir()) == [
        "exp2-mu_clmls_mu0.05.csv", "exp2-mu_clmls_mu3.csv", "plot.gp", "summary.txt",
    ]
    assert (out / "exp2-mu_clmls_mu3.csv").read_text().startswith("iteration,msd_db,emse\n0,")
    assert (out / "exp2-mu_clmls_mu0.05.csv").read_text().startswith(
        "iteration,msd_db,emse,theory_msd_db,theory_emse\n"
    )
    summary = (out / "summary.txt").read_text()
    assert "clmls_mu3: plateau_db=" in summary and "diverged=0" in summary
    theory = summary.split("[theory]\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert theory[0].startswith("clmls_mu0.05: ") and "transient_diverged_at" not in theory[0]
    assert theory[1].startswith("clmls_mu3: ") and theory[1].endswith(" valid=False transient_diverged_at=193")
    plot = (out / "plot.gp").read_text()
    assert "'exp2-mu_clmls_mu0.05.csv' using 1:4" in plot
    assert "'exp2-mu_clmls_mu3.csv' using 1:4" not in plot


def old_csv_bytes(header, columns) -> str:
    """The CSV text of the former writer: one `_fmt` call per value."""
    lines = [",".join(header)] + [",".join(cli._fmt(v) for v in row) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines)


def test_csv_writer_matches_the_per_value_format(tmp_path):
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.23456789012345e14, -1.5, 1e-300, 0.1])
    ints = np.array([0, 7, -3, 2**62, 10**15, 1, 2, 3, 4, 5])
    path = tmp_path / "out.csv"
    cli._write_csv(path, ["n", "x", "y"], [ints, floats, floats[::-1]])
    assert path.read_text() == old_csv_bytes(["n", "x", "y"], [ints, floats, floats[::-1]])
    cli._write_csv(path, ["n"], [ints], ["# a = 1", "# b = 2"])
    assert path.read_text() == "# a = 1\n# b = 2\n" + old_csv_bytes(["n"], [ints])


def test_predict_rows_go_through_the_csv_writer(tmp_path, capsys, monkeypatch):
    calls = []
    write_csv = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", lambda *a: calls.append(a) or write_csv(*a))
    cfg = write(tmp_path, f"[experiment]\nid = custom\n{SHORT}")
    out = tmp_path / "out"
    assert invoke(capsys, "predict", "--config", cfg, "--out-dir", out)[0] == cli.EXIT_OK
    assert len(calls) == 1
    path, header, columns, preamble = calls[0]
    assert path == out / "custom_predict.csv" and header == ["iteration", "theory_msd_db", "theory_emse"]
    # the former writer's rows, from the recursion rerun here
    loaded = cli.load_config(cfg)
    model, cs = cli.build_scenario(loaded, loaded.sigma_v2)
    params = cli.AlgorithmParams(mu=loaded.mu, alpha=loaded.alpha)
    (trace,) = cli.transient_sweep(model, cs, params.alpha, [params.mu], np.zeros(model.n_taps), loaded.horizon)
    w_o = cli.optimal_constrained_wiener(model, cs)
    msd_db = np.asarray(cli.ratio_to_db(trace.msd / float(w_o @ w_o)))
    rows = "".join(
        f"{n},{cli._fmt(float(msd_db[n]))},{cli._fmt(float(trace.emse[n]))}\n" for n in range(loaded.horizon + 1)
    )
    text = path.read_text()
    assert text.startswith("# steady_state_emse = ") and text.count("\n") == 4 + 1 + loaded.horizon + 1
    assert text.endswith("iteration,theory_msd_db,theory_emse\n" + rows)


@pytest.mark.parametrize("input_kind", ["white", "ar1"])
def test_snr_labels_are_those_of_the_desired_signal(tmp_path, input_kind):
    # at the exp2-snr defaults AR(1) input gives the desired signal power
    # w^T R w = 1.769, not the unit power of white input
    cfg = cli.load_config(write(tmp_path, f"[experiment]\nid = exp2-snr\n\n[scenario]\ninput = {input_kind}\n"))
    w = cli.linear_phase_system(cfg.filter_length, np.random.default_rng(cfg.system_seed))
    points = cli._points(cfg)
    assert [label for label, _, _ in points] == ["snr30", "snr25", "snr20"]
    for (_, sigma_v2, _), snr in zip(points, cfg.snr_db_list):
        model, _ = cli.build_scenario(cfg, sigma_v2)
        assert model.sigma_v2 == sigma_v2
        assert abs(10 * np.log10(w @ model.R @ w / sigma_v2) - snr) < 1e-9


def test_echo_layout(tmp_path):
    cfg = write(tmp_path, f"[experiment]\nid = exp2-snr\n{SHORT}")
    assert cli._config_echo(cli.load_config(cfg)) == (
        "[experiment]\nid = exp2-snr\nalgorithms = clmls\nfilter_length = 10\nhorizon = 200\n"
        "trials = 500\nbase_seed = 1234\nsystem_seed = 101\n\n"
        "[params]\nmu = 0.05\nalpha = 1\nl1_budget = \nbeta_slope = 10\n\n"
        "[scenario]\ninput = white\nar1_rho = 0.5\nsnr_db_list = 30, 25, 20\nconstraint = linear-phase\n\n"
        "[matching]\nenabled = false\nbounds = 0.0001, 0.5\ntrials = 100\n\n"
        "[output]\ndir = results"
    )


def test_close_step_sizes_get_their_own_files(tmp_path, capsys):
    cfg = write(tmp_path, "[experiment]\nid = exp2-mu\nhorizon = 50\n\n[scenario]\nmu_list = 0.1, 0.1000001\n")
    out = tmp_path / "out"
    assert invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", out)[0] == cli.EXIT_OK
    assert sorted(p.name for p in out.glob("*.csv")) == ["exp2-mu_clmls_mu0.1.csv", "exp2-mu_clmls_mu0.1000001.csv"]


# each on one core and on several: exp1 with a matched pair, complete and
# "not bracketed"; every experiment short; a step size at which every trial
# diverges, and one at which only the recursion does
SPREAD_CASES = {
    "exp1": "id = exp1\nhorizon = 1500\n\n[matching]\ntrials = 2\nbounds = 1e-3, 0.15\n",
    "exp1-not-bracketed": "id = exp1\nhorizon = 1500\n\n[matching]\ntrials = 2\nbounds = 1e-2, 0.9\n",
    "exp2-mu": "id = exp2-mu\nhorizon = 300\n",
    "exp2-snr": "id = exp2-snr\nhorizon = 300\n",
    "exp3": "id = exp3\nhorizon = 300\n",
    "custom": "id = custom\nalgorithms = lms, clmls, l1-wclms\nhorizon = 300\n\n[scenario]\ninput = ar1\n",
    "exp2-mu-diverged": "id = exp2-mu\nhorizon = 300\n\n[scenario]\nmu_list = 0.05, 1000\n",
    "exp2-mu-theory-diverged": "id = exp2-mu\nhorizon = 200\n\n[scenario]\nmu_list = 0.05, 3\n",
}


@pytest.mark.parametrize("case", SPREAD_CASES)
def test_outputs_do_not_depend_on_the_core_count(tmp_path, capsys, monkeypatch, case):
    cfg = write(tmp_path, f"[experiment]\nsystem_seed = 101\n{SPREAD_CASES[case]}")
    runs = {}
    for cores in (1, 2, 4):
        monkeypatch.setattr(cli, "_core_count", lambda: cores)
        work = tmp_path / f"cores{cores}"
        work.mkdir()
        monkeypatch.chdir(work)  # the same relative --out-dir, so the same [output] dir
        code, out, err = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--seed", 101, "--out-dir", "out")
        files = {p.name: p.read_bytes() for p in Path("out").iterdir()}
        runs[cores] = (code, out, err, files)
    assert runs[2] == runs[1] and runs[4] == runs[1]
    code, _, err, files = runs[1]
    if case in ("exp1-not-bracketed", "exp2-mu-diverged"):
        assert code == cli.EXIT_DIVERGED and err.startswith("run failed: ") and not files
    else:
        assert code == cli.EXIT_OK and "summary.txt" in files


def test_the_first_failure_in_one_core_order_ends_the_run(tmp_path, capsys, monkeypatch):
    # exp2-snr with a matched pair: the matcher fails at the first noise
    # level and the reference sweep diverges at the second. One core meets
    # the matcher's failure first, so every core count must report it
    cfg = write(tmp_path, f"[experiment]\nid = exp2-snr\nalgorithms = lms, lmls\n{SHORT}\n[matching]\nenabled = true\n")
    levels = [sigma_v2 for _, sigma_v2, _ in cli._points(cli.load_config(cfg))]
    sweep = cli.run_step_size_sweep

    def diverging_sweep(model, name, *args, **kwargs):
        if name == "lmls" and model.sigma_v2 == levels[1]:
            raise cli.EnsembleDivergedError("the reference diverged", [None])
        return sweep(model, name, *args, **kwargs)

    def failing_match(target, name, model, *args, **kwargs):
        raise cli.StepSizeMatchError(f"no match at sigma_v2 = {model.sigma_v2}")

    monkeypatch.setattr(cli, "run_step_size_sweep", diverging_sweep)
    monkeypatch.setattr(cli, "match_step_size", failing_match)
    for cores in (1, 2, 4):
        monkeypatch.setattr(cli, "_core_count", lambda: cores)
        code, out, err = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", tmp_path / "out")
        assert (code, out, err) == (cli.EXIT_DIVERGED, "", f"run failed: no match at sigma_v2 = {levels[0]}\n")


def test_a_matched_algorithm_runs_in_its_reference_job(tmp_path, capsys, monkeypatch):
    # exp1: one round of two jobs, clmls then clms, and lmls then lms
    rounds, sweeps = [], []
    run_jobs, sweep = cli._run_jobs, cli.run_step_size_sweep
    monkeypatch.setattr(cli, "_core_count", lambda: 1)
    monkeypatch.setattr(cli, "_run_jobs", lambda jobs: rounds.append(len(jobs)) or run_jobs(jobs))
    monkeypatch.setattr(cli, "run_step_size_sweep", lambda *a, **k: sweeps.append(a[1]) or sweep(*a, **k))
    stub_matcher(monkeypatch)
    cfg = write(tmp_path, f"[experiment]\nid = exp1\n{SHORT}")
    code, _, _ = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", tmp_path / "out")
    assert code == cli.EXIT_OK
    assert rounds == [2] and sweeps == ["clmls", "clms", "lmls", "lms"]


def test_a_matcher_failure_before_a_later_divergence_is_reported(tmp_path, capsys, monkeypatch):
    # exp1: clms's matcher fails and lmls's sweep diverges. One core takes
    # clmls, clms, lmls, lms, so it meets the matcher's failure first
    cfg = write(tmp_path, f"[experiment]\nid = exp1\n{SHORT}")
    sweep = cli.run_step_size_sweep

    def diverging_sweep(model, name, *args, **kwargs):
        if name == "lmls":
            raise cli.EnsembleDivergedError("lmls diverged", [None])
        return sweep(model, name, *args, **kwargs)

    def failing_match(target, name, *args, **kwargs):
        if name == "clms":
            raise cli.StepSizeMatchError("no match for clms")
        return 0.037

    monkeypatch.setattr(cli, "run_step_size_sweep", diverging_sweep)
    monkeypatch.setattr(cli, "match_step_size", failing_match)
    for cores in (1, 2, 4):
        monkeypatch.setattr(cli, "_core_count", lambda: cores)
        code, out, err = invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", tmp_path / "out")
        assert (code, out, err) == (cli.EXIT_DIVERGED, "", "run failed: no match for clms\n")


def test_jobs_come_back_in_order_from_their_processes(monkeypatch):
    monkeypatch.setattr(cli, "_core_count", lambda: 3)
    results = cli._run_jobs([lambda k=k: (k, os.getpid()) for k in range(5)])
    assert [k for k, _ in results] == list(range(5))
    pids = [pid for _, pid in results]
    # dealt round-robin, and this process computes the first share
    assert pids[0] == pids[3] == os.getpid() and pids[1] == pids[4] and len(set(pids)) == 3


def test_a_failed_job_comes_back_as_its_exception(monkeypatch):
    monkeypatch.setattr(cli, "_core_count", lambda: 2)

    def unmatched():
        raise cli.StepSizeMatchError("not bracketed")

    def slow():
        time.sleep(0.3)
        return "done"

    # this process's job fails while the child's is still running: raised
    # once the child is reaped (the autouse fixture checks that)
    with pytest.raises(ZeroDivisionError):
        cli._run_jobs([lambda: 1 / 0, slow])
    # the child's job fails: its exception survives the pickle round trip
    with pytest.raises(cli.StepSizeMatchError) as caught:
        cli._run_jobs([lambda: None, unmatched])
    exc = caught.value
    assert type(exc) is cli.StepSizeMatchError
    assert str(exc) == "not bracketed"
    # two fail: the child's, first in job order, not this process's, first to finish
    with pytest.raises(cli.StepSizeMatchError):
        cli._run_jobs([lambda: None, lambda: slow() and unmatched(), lambda: 1 / 0])


def test_a_share_stops_at_its_first_failure(monkeypatch, tmp_path):
    # its later jobs come later in job order, so none of them can be the
    # first failure: they are not run
    calls = []
    monkeypatch.setattr(cli, "_core_count", lambda: 1)
    with pytest.raises(ZeroDivisionError):
        cli._run_jobs([lambda: 1 / 0, lambda: calls.append("second")])
    assert calls == []
    # the child's share is jobs 1 and 3; this process's share still runs job 2
    monkeypatch.setattr(cli, "_core_count", lambda: 2)
    ran = tmp_path / "ran"
    with pytest.raises(ZeroDivisionError):
        cli._run_jobs([lambda: None, lambda: 1 / 0, lambda: calls.append("third"), ran.touch])
    assert calls == ["third"] and not ran.exists()


def test_a_child_that_sends_nothing_is_an_error(monkeypatch):
    monkeypatch.setattr(cli, "_core_count", lambda: 2)
    with pytest.raises(RuntimeError, match="ended without its results"):
        cli._run_jobs([lambda: None, lambda: os._exit(3)])


class _Interrupt(BaseException):
    """Stands for an interrupt that this process's own share does not catch."""


def test_children_are_killed_and_reaped_when_this_process_is_interrupted(monkeypatch):
    monkeypatch.setattr(cli, "_core_count", lambda: 2)

    def interrupted():
        raise _Interrupt

    start = time.perf_counter()
    with pytest.raises(_Interrupt):
        cli._run_jobs([interrupted, lambda: time.sleep(60)])
    assert time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FACTORISATIONS = (
    "svd", "solve", "pinv", "eigh", "eigvalsh", "inv", "lstsq",
    "cholesky", "qr", "eig", "eigvals", "det", "slogdet", "matrix_rank",
)


def record_factorisations(monkeypatch, fail: bool) -> list[str]:
    """The names of the numpy.linalg factorisations called from now on, each
    of which then raises (fail) or runs as usual."""
    calls = []
    for name in FACTORISATIONS:
        def recorded(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            if fail:
                raise AssertionError(f"numpy.linalg.{_name} called")
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


@pytest.mark.parametrize("command, experiment", [("predict", "id = custom\nfilter_length = 30\n"), ("run", "id = exp2-mu\n")])
def test_white_linear_phase_commands_factorise_nothing(tmp_path, capsys, monkeypatch, command, experiment):
    # white input and the linear-phase constraint have closed forms for the
    # projector, the reference optimum, the recursion and beta
    monkeypatch.setattr(cli, "_core_count", lambda: 1)
    calls = record_factorisations(monkeypatch, fail=True)
    cfg = write(tmp_path, f"[experiment]\n{experiment}{SHORT}")
    code, _, err = invoke(capsys, command, "--config", cfg, "--trials", 2, "--out-dir", tmp_path / "out")
    assert (code, err, calls) == (cli.EXIT_OK, "", [])


@pytest.mark.parametrize(
    "scenario, factorisations",
    [
        ("input = white\nconstraint = linear-phase\n", set()),
        ("input = white\nconstraint = dc-gain\n", {"svd"}),
        ("input = ar1\nconstraint = linear-phase\n", {"solve", "eigh"}),
        ("input = ar1\nconstraint = dc-gain\n", {"svd", "solve", "eigh"}),
    ],
)
def test_only_a_general_constraint_or_correlated_input_factorises(tmp_path, capsys, monkeypatch, scenario, factorisations):
    calls = record_factorisations(monkeypatch, fail=False)
    cfg = write(tmp_path, f"[experiment]\nid = custom\nfilter_length = 30\n{SHORT}\n[scenario]\n{scenario}")
    assert invoke(capsys, "predict", "--config", cfg, "--out-dir", tmp_path / "out")[0] == cli.EXIT_OK
    assert set(calls) == factorisations


def test_linear_phase_runs_are_exactly_feasible(tmp_path, capsys):
    cfg = write(tmp_path, f"[experiment]\nid = exp2-mu\n{SHORT}")
    out = tmp_path / "out"
    assert invoke(capsys, "run", "--config", cfg, "--trials", 2, "--out-dir", out)[0] == cli.EXIT_OK
    curves = [line for line in (out / "summary.txt").read_text().splitlines() if "plateau_db=" in line]
    assert len(curves) == 3
    assert all(line.endswith(" max_residual=0") for line in curves)
