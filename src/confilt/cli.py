"""Configuration-driven experiment runner.

Subcommands:
    init      write a commented template config
    validate  check a config and report applied defaults
    run       run the experiment; emit per-algorithm CSVs, a summary with a
              reproducible config echo, and a gnuplot script
    predict   theory-only transient curve plus closed-form steady state

Exit codes: 0 success, 1 config error, 2 runtime divergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .constraints import ConstraintSet, build_constraint_set, linear_phase_constraints
from .kernels import ALGORITHMS, AlgorithmParams
from .simulation import (
    EnsembleDivergedError,
    RunResult,
    SignalModel,
    StepSizeMatchError,
    ar1_signal_model,
    linear_phase_system,
    match_step_size,
    noise_var_from_snr,
    optimal_constrained_wiener,
    ratio_to_db,
    run_monte_carlo,
    run_step_size_sweep,
    sparse_system_schedule,
    steady_state_emse_sim,
    steady_state_plateau_db,
    white_signal_model,
)
from .theory import steady_state_emse, transient_predictor

EXPERIMENT_IDS = ("exp1", "exp2-snr", "exp2-mu", "exp3", "custom")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


class ConfigError(Exception):
    """Invalid configuration; message is anchored to section/key."""


@dataclass
class ExperimentConfig:
    experiment: str
    algorithms: list[str]
    filter_length: int
    horizon: int
    trials: int
    base_seed: int
    system_seed: int
    mu: float
    alpha: float
    l1_budget: float | None
    beta_slope: float
    input_kind: str
    ar1_rho: float
    sigma_v2: float | None
    snr_db_list: list[float] | None
    mu_list: list[float] | None
    constraint: str  # linear-phase | dc-gain | none
    matching: bool
    match_bounds: tuple[float, float]
    match_trials: int
    out_dir: str
    applied_defaults: list[str] = field(default_factory=list)


_EXPERIMENT_DEFAULTS = {
    "exp1": dict(
        algorithms="lms, lmls, clms, clmls", filter_length=10, horizon=5000,
        sigma_v2=0.01, mu=0.05, constraint="linear-phase", matching=True,
    ),
    "exp2-snr": dict(
        algorithms="clmls", filter_length=10, horizon=5000,
        snr_db_list="30, 25, 20", mu=0.05, constraint="linear-phase", matching=False,
    ),
    "exp2-mu": dict(
        algorithms="clmls", filter_length=10, horizon=5000,
        sigma_v2=0.01, mu_list="0.03, 0.05, 0.1", mu=0.05,
        constraint="linear-phase", matching=False,
    ),
    "exp3": dict(
        algorithms="l1-clms, l1-wclms, l1-clmls, l1-wclmls", filter_length=30,
        horizon=6000, sigma_v2=0.1, mu=0.01, constraint="dc-gain", matching=False,
    ),
    "custom": dict(
        algorithms="clmls", filter_length=10, horizon=5000,
        sigma_v2=0.01, mu=0.05, constraint="linear-phase", matching=False,
    ),
}

_GLOBAL_DEFAULTS = dict(
    trials=500, base_seed=1234, system_seed=7, alpha=1.0, beta_slope=10.0,
    input_kind="white", ar1_rho=0.5, match_bounds="1e-4, 0.5",
    match_trials=100, out_dir="results",
)

TEMPLATE = """\
# confilt experiment configuration
# every key is optional except [experiment] id; omitted keys fall back to
# the documented default for the chosen experiment

[experiment]
id = exp1                  ; exp1 | exp2-snr | exp2-mu | exp3 | custom
# algorithms = lms, lmls, clms, clmls
#                            (exp2-*: clmls; exp3: l1-clms, l1-wclms, l1-clmls, l1-wclmls)
# filter_length = 10         (exp3: 30)
# horizon = 5000             (exp3: 6000, split into three sparsity segments)
# trials = 500
# base_seed = 1234           (trial k uses seed base_seed + k)
# system_seed = 7            (seed for drawing the unknown system)

[params]
# mu = 0.05                  (exp3: 0.01)
# alpha = 1.0                ; logarithmic-cost design parameter
# l1_budget =                ; blank: budget of the scenario optimum
# beta_slope = 10.0          ; arctan reweighting slope

[scenario]
# input = white              ; white | ar1
# ar1_rho = 0.5
# sigma_v2 = 0.01            (exp3: 0.1); mutually exclusive with snr_db_list
# snr_db_list = 30, 25, 20   ; exp2-snr only
# mu_list = 0.03, 0.05, 0.1  ; exp2-mu only
# constraint = linear-phase  ; linear-phase | dc-gain | none (exp3: dc-gain)

[matching]
# enabled = true             ; exp1 default: match lms->lmls and clms->clmls plateaus
# bounds = 1e-4, 0.5         ; step-size search bracket
# trials = 100               ; trials per probe during matching

[output]
# dir = results
"""


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and resolve a config file; raises ConfigError on any problem."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    def get(section, key, fallback=None):
        if parser.has_option(section, key):
            return parser.get(section, key).strip() or None
        return fallback

    exp_id = get("experiment", "id")
    if exp_id is None:
        raise ConfigError(f"{path}: [experiment] id is required")
    if exp_id not in EXPERIMENT_IDS:
        raise ConfigError(
            f"{path}: [experiment] id = {exp_id!r} is not one of {', '.join(EXPERIMENT_IDS)}"
        )
    defaults = dict(_GLOBAL_DEFAULTS)
    defaults.update(_EXPERIMENT_DEFAULTS[exp_id])
    applied = []

    def resolve(section, key, conv, default_key=None, required=False):
        raw = get(section, key)
        if raw is not None:
            try:
                return conv(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc
        dkey = default_key or key
        if dkey in defaults:
            val = defaults[dkey]
            applied.append(f"[{section}] {key} defaulted to {val}")
            return conv(val) if isinstance(val, str) else val
        if required:
            raise ConfigError(f"{path}: [{section}] {key} is required for {exp_id}")
        return None

    as_bool = lambda s: str(s).strip().lower() in ("1", "true", "yes", "on")
    algorithms = resolve("experiment", "algorithms", lambda s: [a.strip() for a in s.split(",") if a.strip()])
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ConfigError(
                f"{path}: [experiment] algorithms: unknown algorithm {name!r}; "
                f"valid names: {', '.join(sorted(ALGORITHMS))}"
            )

    sigma_raw = get("scenario", "sigma_v2")
    snr_raw = get("scenario", "snr_db_list")
    if sigma_raw is not None and snr_raw is not None:
        raise ConfigError(
            f"{path}: [scenario] sigma_v2 and snr_db_list are mutually exclusive"
        )
    if snr_raw is not None:
        snr_db_list, sigma_v2 = _float_list(snr_raw), None
    elif sigma_raw is not None:
        snr_db_list, sigma_v2 = None, float(sigma_raw)
    elif "snr_db_list" in defaults:
        snr_db_list, sigma_v2 = _float_list(defaults["snr_db_list"]), None
        applied.append(f"[scenario] snr_db_list defaulted to {defaults['snr_db_list']}")
    else:
        snr_db_list, sigma_v2 = None, float(defaults["sigma_v2"])
        applied.append(f"[scenario] sigma_v2 defaulted to {defaults['sigma_v2']}")

    mu_raw = get("scenario", "mu_list")
    if mu_raw is not None:
        mu_list = _float_list(mu_raw)
    elif "mu_list" in defaults:
        mu_list = _float_list(defaults["mu_list"])
        applied.append(f"[scenario] mu_list defaulted to {defaults['mu_list']}")
    else:
        mu_list = None
    if mu_list is not None and snr_db_list is not None:
        raise ConfigError(f"{path}: [scenario] mu_list and snr_db_list cannot be combined")

    budget_raw = get("params", "l1_budget")
    bounds = resolve("matching", "bounds", _float_list, default_key="match_bounds")
    cfg = ExperimentConfig(
        experiment=exp_id,
        algorithms=algorithms,
        filter_length=resolve("experiment", "filter_length", int),
        horizon=resolve("experiment", "horizon", int),
        trials=resolve("experiment", "trials", int),
        base_seed=resolve("experiment", "base_seed", int),
        system_seed=resolve("experiment", "system_seed", int),
        mu=resolve("params", "mu", float),
        alpha=resolve("params", "alpha", float),
        l1_budget=float(budget_raw) if budget_raw is not None else None,
        beta_slope=resolve("params", "beta_slope", float),
        input_kind=resolve("scenario", "input", str, default_key="input_kind"),
        ar1_rho=resolve("scenario", "ar1_rho", float),
        sigma_v2=sigma_v2,
        snr_db_list=snr_db_list,
        mu_list=mu_list,
        constraint=resolve("scenario", "constraint", str),
        matching=resolve("matching", "enabled", as_bool, default_key="matching"),
        match_bounds=tuple(bounds),
        match_trials=resolve("matching", "trials", int, default_key="match_trials"),
        out_dir=resolve("output", "dir", str, default_key="out_dir"),
        applied_defaults=applied,
    )
    _validate_resolved(cfg, path)
    return cfg


def _validate_resolved(cfg: ExperimentConfig, path) -> None:
    if cfg.filter_length < 2:
        raise ConfigError(f"{path}: [experiment] filter_length must be >= 2")
    if cfg.horizon < 1 or cfg.trials < 1:
        raise ConfigError(f"{path}: [experiment] horizon and trials must be >= 1")
    if cfg.mu < 0 or cfg.alpha <= 0 or cfg.beta_slope <= 0:
        raise ConfigError(f"{path}: [params] mu >= 0, alpha > 0, beta_slope > 0 required")
    if cfg.input_kind not in ("white", "ar1"):
        raise ConfigError(f"{path}: [scenario] input must be white or ar1")
    if cfg.constraint not in ("linear-phase", "dc-gain", "none"):
        raise ConfigError(f"{path}: [scenario] constraint must be linear-phase, dc-gain or none")
    if cfg.constraint == "none" and any(ALGORITHMS[a].constrained for a in cfg.algorithms):
        raise ConfigError(
            f"{path}: [scenario] constraint = none is incompatible with constrained algorithms"
        )
    if cfg.experiment == "exp2-snr" and not cfg.snr_db_list:
        raise ConfigError(f"{path}: exp2-snr needs snr_db_list")
    if cfg.experiment == "exp2-mu" and not cfg.mu_list:
        raise ConfigError(f"{path}: exp2-mu needs mu_list")
    if not (0 < cfg.match_bounds[0] < cfg.match_bounds[1]):
        raise ConfigError(f"{path}: [matching] bounds must be an increasing positive pair")


def build_scenario(cfg: ExperimentConfig, sigma_v2: float) -> tuple[SignalModel, ConstraintSet | None]:
    """Unknown system, input statistics and constraint set for one run point."""
    rng = np.random.default_rng(cfg.system_seed)
    L = cfg.filter_length
    if cfg.experiment == "exp3":
        w_sys = sparse_system_schedule(L, cfg.horizon, rng)
        first = w_sys.systems[0]
    else:
        w_sys = linear_phase_system(L, rng)
        first = w_sys

    if cfg.input_kind == "ar1":
        model = ar1_signal_model(cfg.ar1_rho, sigma_v2, w_sys, L=L)
    else:
        model = white_signal_model(sigma_v2, w_sys, L=L)

    if cfg.constraint == "none":
        cs = None
    elif cfg.constraint == "dc-gain":
        cs = build_constraint_set(np.ones((L, 1)), np.array([float(np.sum(first))]))
    else:
        cs = linear_phase_constraints(L)
    return model, cs


def _variants(cfg: ExperimentConfig) -> list[tuple[str, float, float]]:
    """(label, sigma_v2, mu) per run point."""
    if cfg.snr_db_list:
        return [(f"snr{snr:g}", noise_var_from_snr(snr), cfg.mu) for snr in cfg.snr_db_list]
    if cfg.mu_list:
        return [(f"mu{mu:g}", cfg.sigma_v2, mu) for mu in cfg.mu_list]
    return [("", cfg.sigma_v2, cfg.mu)]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _config_echo(cfg: ExperimentConfig) -> str:
    lines = [
        "[experiment]",
        f"id = {cfg.experiment}",
        f"algorithms = {', '.join(cfg.algorithms)}",
        f"filter_length = {cfg.filter_length}",
        f"horizon = {cfg.horizon}",
        f"trials = {cfg.trials}",
        f"base_seed = {cfg.base_seed}",
        f"system_seed = {cfg.system_seed}",
        "",
        "[params]",
        f"mu = {_fmt(cfg.mu)}",
        f"alpha = {_fmt(cfg.alpha)}",
        f"l1_budget = {'' if cfg.l1_budget is None else _fmt(cfg.l1_budget)}",
        f"beta_slope = {_fmt(cfg.beta_slope)}",
        "",
        "[scenario]",
        f"input = {cfg.input_kind}",
        f"ar1_rho = {_fmt(cfg.ar1_rho)}",
    ]
    if cfg.snr_db_list:
        lines.append(f"snr_db_list = {', '.join(_fmt(s) for s in cfg.snr_db_list)}")
    else:
        lines.append(f"sigma_v2 = {_fmt(cfg.sigma_v2)}")
    if cfg.mu_list:
        lines.append(f"mu_list = {', '.join(_fmt(m) for m in cfg.mu_list)}")
    lines += [
        f"constraint = {cfg.constraint}",
        "",
        "[matching]",
        f"enabled = {str(cfg.matching).lower()}",
        f"bounds = {_fmt(cfg.match_bounds[0])}, {_fmt(cfg.match_bounds[1])}",
        f"trials = {cfg.match_trials}",
        "",
        "[output]",
        f"dir = {cfg.out_dir}",
    ]
    return "\n".join(lines)


# reference partner for plateau matching: matched algorithm -> reference
_MATCH_PAIRS = {"lms": "lmls", "clms": "clmls"}


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: list[str] = [f"# confilt run summary: {cfg.experiment}", ""]
    theory_lines: list[str] = []
    csv_files: dict[str, str] = {}  # file name -> plot title
    theory_files: set[str] = set()

    def is_matched(name: str) -> bool:
        return cfg.matching and _MATCH_PAIRS.get(name) in cfg.algorithms

    # the step sizes of mu_list share model, constraint and seeds, so each
    # algorithm runs them as one sweep
    swept: dict[str, list[RunResult]] = {}
    if cfg.mu_list:
        model, cs = build_scenario(cfg, cfg.sigma_v2)
        params = AlgorithmParams(
            mu=cfg.mu, alpha=cfg.alpha, t=cfg.l1_budget, beta_slope=cfg.beta_slope
        )
        for name in cfg.algorithms:
            if not is_matched(name):
                swept[name] = run_step_size_sweep(
                    model, name, params, cfg.mu_list, cfg.trials, cfg.horizon,
                    cfg.base_seed, cs=cs,
                )

    for i, (label, sigma_v2, mu) in enumerate(_variants(cfg)):
        model, cs = build_scenario(cfg, sigma_v2)
        base_params = AlgorithmParams(
            mu=mu, alpha=cfg.alpha, t=cfg.l1_budget, beta_slope=cfg.beta_slope
        )

        matched_mu: dict[str, float] = {}
        plateau_ref: dict[str, float] = {}
        results: dict[str, RunResult] = {}
        run_order = sorted(
            cfg.algorithms,
            key=lambda a: (a in _MATCH_PAIRS and cfg.matching, a),
        )
        for name in run_order:
            params = base_params
            if is_matched(name):
                target = plateau_ref[_MATCH_PAIRS[name]]
                mu_hat = match_step_size(
                    target, name, model, cfg.match_bounds, cs=cs,
                    params=base_params, trials=cfg.match_trials,
                    horizon=cfg.horizon, base_seed=cfg.base_seed,
                )
                matched_mu[name] = mu_hat
                params = replace(base_params, mu=mu_hat)
            if name in swept:
                res = swept[name][i]
            else:
                res = run_monte_carlo(
                    model, name, params, cfg.trials, cfg.horizon, cfg.base_seed, cs=cs
                )
            results[name] = res
            plateau_ref[name] = steady_state_plateau_db(res)

        want_theory = cfg.experiment in ("exp2-snr", "exp2-mu")
        for name in cfg.algorithms:
            res = results[name]
            header = ["iteration", "msd_db", "emse"]
            cols = [np.arange(cfg.horizon), res.msd_db, res.emse]
            if want_theory and name == "clmls" and cs is not None:
                w_o = optimal_constrained_wiener(model, cs)
                params_t = replace(base_params, mu=matched_mu.get(name, mu))
                trace = transient_predictor(model, cs, params_t, np.zeros(cfg.filter_length), cfg.horizon)
                norm = float(w_o @ w_o)
                header += ["theory_msd_db", "theory_emse"]
                cols += [np.asarray(ratio_to_db(trace.msd[: cfg.horizon] / norm)), trace.emse[: cfg.horizon]]
                pred = steady_state_emse(model, cs, params_t)
                theory_lines.append(
                    f"{_tag(name, label)}: emse_closed_form={_fmt(pred.emse)} "
                    f"msd_closed_form={_fmt(pred.msd)} beta={_fmt(pred.beta_factor)} "
                    f"discriminant={_fmt(pred.discriminant)} valid={pred.valid}"
                )
            fname = f"{cfg.experiment}_{_tag(name, label)}.csv"
            _write_csv(out_dir / fname, header, cols)
            csv_files[fname] = _tag(name, label)
            if len(header) == 5:
                theory_files.add(fname)
            summary.append(
                f"{_tag(name, label)}: plateau_db={_fmt(plateau_ref[name])} "
                f"emse_ss={_fmt(steady_state_emse_sim(res))} "
                f"mu={_fmt(matched_mu.get(name, mu))}"
                f"{' (matched)' if name in matched_mu else ''} "
                f"diverged={res.diverged_trials} fallback_steps={res.fallback_steps} "
                f"max_residual={_fmt(res.max_residual)}"
            )

    if theory_lines:
        summary += ["", "[theory]"] + theory_lines
    summary += ["", "[config-echo]", _config_echo(cfg), ""]
    (out_dir / "summary.txt").write_text("\n".join(summary), encoding="utf-8")
    _write_plot_script(out_dir, cfg, csv_files, theory_files)


def _tag(name: str, label: str) -> str:
    return f"{name}_{label}" if label else name


def _write_plot_script(out_dir: Path, cfg, csv_files: dict[str, str], theory_files) -> None:
    lines = [
        "# render with: gnuplot plot.gp",
        "set datafile separator ','",
        "set key right top",
        "set xlabel 'iteration'",
        "set ylabel 'normalized MSD (dB)'",
        "set grid",
        f"set title 'confilt {cfg.experiment}'",
        "set term pngcairo size 900,600",
        f"set output '{cfg.experiment}_msd.png'",
    ]
    plots = [
        f"'{f}' using 1:2 with lines title '{t}'" for f, t in csv_files.items()
    ]
    plots += [
        f"'{f}' using 1:4 with lines dashtype 2 title '{csv_files[f]} (theory)'"
        for f in sorted(theory_files)
    ]
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    (out_dir / "plot.gp").write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_predict(cfg: ExperimentConfig, out_dir: Path) -> None:
    variants = _variants(cfg)
    if len(variants) != 1:
        raise ConfigError(
            "predict needs a single scenario point; drop snr_db_list/mu_list "
            "or reduce them to one entry"
        )
    label, sigma_v2, mu = variants[0]
    model, cs = build_scenario(cfg, sigma_v2)
    if cs is None:
        raise ConfigError("predict requires a constrained scenario")
    params = AlgorithmParams(mu=mu, alpha=cfg.alpha, t=cfg.l1_budget, beta_slope=cfg.beta_slope)
    trace = transient_predictor(model, cs, params, np.zeros(cfg.filter_length), cfg.horizon)
    pred = steady_state_emse(model, cs, params)
    w_o = optimal_constrained_wiener(model, cs)
    norm = float(w_o @ w_o)

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{cfg.experiment}_predict{('_' + label) if label else ''}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# steady_state_emse = {_fmt(pred.emse)}\n")
        fh.write(f"# steady_state_msd = {_fmt(pred.msd)}\n")
        fh.write(f"# beta_factor = {_fmt(pred.beta_factor)}\n")
        fh.write(f"# discriminant = {_fmt(pred.discriminant)}\n")
        if not pred.valid:
            fh.write(
                "# warning: invalid-regime discriminant (step size too large "
                "for the asymptotic model); closed-form values are NaN\n"
            )
        fh.write("iteration,theory_msd_db,theory_emse\n")
        msd_db = np.asarray(ratio_to_db(trace.msd / norm))
        for n in range(cfg.horizon + 1):
            fh.write(f"{n},{_fmt(float(msd_db[n]))},{_fmt(float(trace.emse[n]))}\n")
    print(f"wrote {path}")


def cmd_init(args) -> int:
    path = Path(args.config)
    if path.exists() and not args.force:
        print(f"refusing to overwrite {path} (use --force)", file=sys.stderr)
        return EXIT_IO
    try:
        path.write_text(TEMPLATE, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write template: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote template config to {path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = _load_with_overrides(args)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"config ok: experiment {cfg.experiment}, algorithms {', '.join(cfg.algorithms)}")
    for note in cfg.applied_defaults:
        print(f"  default applied: {note}")
    return EXIT_OK


def _load_with_overrides(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.base_seed = args.seed
    if getattr(args, "trials", None) is not None:
        cfg.trials = args.trials
    if getattr(args, "out_dir", None) is not None:
        cfg.out_dir = args.out_dir
    return cfg


def cmd_run(args) -> int:
    try:
        cfg = _load_with_overrides(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run_experiment(cfg, Path(cfg.out_dir))
    except (EnsembleDivergedError, StepSizeMatchError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"experiment {cfg.experiment} complete; results in {cfg.out_dir}/")
    return EXIT_OK


def cmd_predict(args) -> int:
    try:
        cfg = _load_with_overrides(args)
        run_predict(cfg, Path(cfg.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confilt",
        description="constrained adaptive filtering experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the INI config")
        p.add_argument("--seed", type=int, help="override base_seed")
        p.add_argument("--trials", type=int, help="override trials")
        p.add_argument("--out-dir", help="override output directory")

    p_init = sub.add_parser("init", help="write a commented template config")
    p_init.add_argument("--config", required=True, help="where to write the template")
    p_init.add_argument("--force", action="store_true", help="overwrite an existing file")
    p_init.set_defaults(func=cmd_init)

    p_val = sub.add_parser("validate", help="check a config without running")
    add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run the configured experiment")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_pred = sub.add_parser("predict", help="theory-only prediction")
    add_common(p_pred)
    p_pred.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
