"""Configuration-driven experiment runner.

Subcommands:
    init      write a commented template config
    validate  check a config and report where its values came from
    run       run the experiment; emit per-algorithm CSVs, a summary with a
              reproducible config echo, and a gnuplot script
    predict   theory-only transient curve plus closed-form steady state

Every config key is one row of `_KEYS`: section, key, type, global default,
per-experiment defaults, help text and range check. The loader, the `init`
template, the validator, the `validate` notes and the `[config-echo]` of a
run are all derived from that table, so a new key is one new row. A key's
value comes from the config file, else from the chosen experiment's
default, else from the global default; `--seed`, `--trials` and `--out-dir`
override all three. Keys the table does not list are ignored, and
`validate` names each of them.

A `run` is one round of independent jobs. Each noise level has one
step-size sweep per algorithm that is not matched, which then also runs the
algorithm matched to it, if any (lms to lmls, clms to clmls), at the step
sizes that match its plateaus; and one theory recursion. `_run_jobs` spreads
the jobs over the cores this process may use: this process computes one
share and a forked child each other share. Results come back in job order,
and the first failure in job order ends the run (a share runs none of its
jobs after its own first failure), so the files, stdout, the `run
failed:` line and the exit code are those of one core, which takes the
sweeps level by level, each matched algorithm right after its reference,
and then the recursions. numpy's raw RuntimeWarnings are not: forked
children write them to stderr as they compute, so they can come in another
order and number. There is no option for this: one core, or one job, forks
nothing.

Only `run` and `predict` compute, so only they load numpy and the numeric
layers (`constraints`, `simulation`, `theory`). Importing this module loads
the standard library and `kernels`' algorithm table, which is all that
`init`, `validate`, `--help` and a usage error need. `_numeric` binds the
numeric layers' names as globals of this module, once. `main` calls it
before it runs or predicts. `_signal_model` calls it too, so that the
functions tests call directly work in a fresh process: `build_scenario`,
`_points`, and `run_experiment` and `run_predict`, which build their
scenario before they use any other numeric name. A lookup of such a name
from outside (`cli.transient_sweep`, say) binds them as well (PEP 562).

The program's process has one garbage-collection policy, set at its entry
and nowhere else: `entry`, which both `python -m confilt.cli` and the
`confilt` console script call once the imports are done, loads the numeric
layers for `run` and `predict`, freezes what the imports built
(`gc.freeze`) and then calls `main`. No collection then walks the objects
of the imports (about 22 k with numpy, 14 k without): not at exit (most of
the interpreter's exit time otherwise), and not in `_run_jobs`'s forked
children, whose pages such a walk would also copy. Objects made after the
freeze are collected as usual, and `main` itself leaves the collector as it
finds it, so calling it in-process changes nothing.

Exit codes: 0 success, 1 config error, 2 runtime divergence, 3 I/O error.
`main` alone turns a command's outcome into its code and one stderr line: a
ConfigError exits 1 (`invalid:` from `validate`, `config error:` otherwise),
an EnsembleDivergedError or StepSizeMatchError 2 (`run failed:`), an OSError
3 (`i/o error:`; `cannot write template:` from `init`). A usage error exits
1 as well, after argparse's usage text, since the command line is part of
the config; `--help` exits 0. `run` exits 2 when every trial at a step size
diverges or the step-size matcher cannot reach its target; `predict` exits
2 (`predict failed:`), writing nothing, when its theory recursion diverges.
A `run` point whose recursion diverges keeps its simulated columns, loses
its theory columns and prints a warning. Any other exception is a fault of
the program, not of its input (`_run_jobs`'s "worker process ... ended
without its results", say): it ends in Python's traceback and status 1, the
same number as a config error.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import math
import os
import pickle
import sys
from dataclasses import dataclass, field, make_dataclass, replace
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Sequence

from .kernels import ALGORITHMS, AlgorithmParams

if TYPE_CHECKING:
    import numpy as np

    from .constraints import ConstraintSet
    from .simulation import SignalModel


def _numeric() -> None:
    """Bind numpy and the names this module uses from the numeric layers
    (constraints, simulation, theory) as its globals, once; a later call,
    which finds them bound, keeps them as they are, patched or traced."""
    if "np" in globals():
        return
    import numpy as np

    from .constraints import build_constraint_set, linear_phase_constraints
    from .simulation import (
        EnsembleDivergedError,
        StepSizeMatchError,
        ar1_signal_model,
        linear_phase_system,
        match_step_size,
        noise_var_from_snr,
        optimal_constrained_wiener,
        ratio_to_db,
        run_step_size_sweep,
        sparse_system_schedule,
        steady_state_emse_sim,
        steady_state_plateau_db,
        white_signal_model,
    )
    from .theory import steady_state_emse, transient_sweep

    globals().update(locals())


def __getattr__(name: str):
    """A numeric name looked up from outside before `_numeric` has run binds
    them all (PEP 562). Dunder probes, such as the import system's
    `__path__`, load nothing."""
    if not name.startswith("__"):
        _numeric()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXPERIMENT_IDS = ("exp1", "exp2-snr", "exp2-mu", "exp3", "custom")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


class ConfigError(Exception):
    """Invalid configuration; message is anchored to section/key."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _exact(x: float) -> str:
    """A float to 12 significant digits, as the CSVs print it, or in full where
    those would not parse back to the same float."""
    text = f"{x:.12g}"
    return text if float(text) == x else repr(x)


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _items(text: str, conv) -> list:
    values = [conv(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError("needs at least one value")
    if len(set(values)) < len(values):
        raise ValueError("lists a value twice")
    return values


def _pair(text: str) -> tuple[float, float]:
    values = _items(text, _finite)
    if len(values) != 2:
        raise ValueError(f"needs exactly two values, got {len(values)}")
    return tuple(values)


def _bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected true or false")


@dataclass(frozen=True)
class _Type:
    parse: Callable[[str], Any]  # raises ValueError on malformed text
    show: Callable[[Any], str]  # back to text that parses to the same value


_TEXT = _Type(str, str)
_INT = _Type(int, str)
_FLOAT = _Type(_finite, _exact)
_FLOATS = _Type(lambda text: _items(text, _finite), lambda v: ", ".join(map(_exact, v)))
_NAMES = _Type(lambda text: _items(text, str), ", ".join)
_PAIR = _Type(_pair, _FLOATS.show)
_BOOL = _Type(_bool, lambda v: str(v).lower())


def _at_least(lo):
    return lambda v: None if v >= lo else f"must be >= {lo}"


def _above(lo):
    return lambda v: None if v > lo else f"must be > {lo}"


def _one_of(*names):
    return lambda v: None if v in names else f"must be one of {', '.join(names)}"


def _each(check):
    return lambda values: next((f"{v!r} {p}" for v in values if (p := check(v))), None)


@dataclass(frozen=True)
class _Key:
    section: str
    key: str
    attr: str  # ExperimentConfig field
    type: _Type
    default: str | None  # INI text; None or blank: unset unless given
    help: str
    check: Callable[[Any], str | None] = lambda v: None  # the problem with a value
    per_experiment: dict[str, str | None] = field(default_factory=dict)

    def default_for(self, experiment: str) -> str | None:
        return self.per_experiment.get(experiment, self.default)


_KEYS = (
    _Key("experiment", "id", "experiment", _TEXT, None,
         f"required: {' | '.join(EXPERIMENT_IDS)}", _one_of(*EXPERIMENT_IDS)),
    _Key("experiment", "algorithms", "algorithms", _NAMES, "clmls",
         "algorithms to run, each once", _each(_one_of(*sorted(ALGORITHMS))),
         {"exp1": "lms, lmls, clms, clmls", "exp3": "l1-clms, l1-wclms, l1-clmls, l1-wclmls"}),
    _Key("experiment", "filter_length", "filter_length", _INT, "10", "taps L",
         _at_least(2), {"exp3": "30"}),
    _Key("experiment", "horizon", "horizon", _INT, "5000",
         "iterations per trial; exp3 splits them into three sparsity segments",
         _at_least(1), {"exp3": "6000"}),
    _Key("experiment", "trials", "trials", _INT, "500", "Monte-Carlo trials", _at_least(1)),
    _Key("experiment", "base_seed", "base_seed", _INT, "1234",
         "trial k uses seed base_seed + k", _at_least(0)),
    _Key("experiment", "system_seed", "system_seed", _INT, "7",
         "seed for drawing the unknown system", _at_least(0)),
    _Key("params", "mu", "mu", _FLOAT, "0.05", "step size", _at_least(0), {"exp3": "0.01"}),
    _Key("params", "alpha", "alpha", _FLOAT, "1.0", "logarithmic-cost design parameter",
         _above(0)),
    _Key("params", "l1_budget", "l1_budget", _FLOAT, "",
         "blank: budget of the scenario optimum", _at_least(0)),
    _Key("params", "beta_slope", "beta_slope", _FLOAT, "10.0", "arctan reweighting slope",
         _above(0)),
    _Key("scenario", "input", "input_kind", _TEXT, "white", "white | ar1",
         _one_of("white", "ar1")),
    _Key("scenario", "ar1_rho", "ar1_rho", _FLOAT, "0.5", "AR(1) input coefficient",
         lambda v: None if -1 < v < 1 else "must lie strictly between -1 and 1"),
    _Key("scenario", "sigma_v2", "sigma_v2", _FLOAT, "0.01",
         "noise variance; mutually exclusive with snr_db_list", _at_least(0),
         {"exp2-snr": None, "exp3": "0.1"}),
    _Key("scenario", "snr_db_list", "snr_db_list", _FLOATS, None,
         "one run point per SNR in dB of the actual desired signal; not with mu_list",
         _each(lambda v: None if abs(v) <= 300 else "must lie within +-300 dB"),
         {"exp2-snr": "30, 25, 20"}),
    _Key("scenario", "mu_list", "mu_list", _FLOATS, None, "one run point per step size",
         _each(_at_least(0)), {"exp2-mu": "0.03, 0.05, 0.1"}),
    _Key("scenario", "constraint", "constraint", _TEXT, "linear-phase",
         "linear-phase | dc-gain | none", _one_of("linear-phase", "dc-gain", "none"),
         {"exp3": "dc-gain"}),
    _Key("matching", "enabled", "matching", _BOOL, "false",
         "match lms->lmls and clms->clmls plateaus", per_experiment={"exp1": "true"}),
    _Key("matching", "bounds", "match_bounds", _PAIR, "1e-4, 0.5", "step-size search bracket",
         lambda v: None if 0 < v[0] < v[1] else "must be an increasing positive pair"),
    _Key("matching", "trials", "match_trials", _INT, "100", "trials per probe during matching",
         _at_least(1)),
    _Key("output", "dir", "out_dir", _TEXT, "results", "output directory"),
)

ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(row.attr, Any) for row in _KEYS] + [("notes", list, field(default_factory=list, compare=False))],
    namespace={"__doc__": "A resolved config: one field per row of `_KEYS`, plus the validate notes."},
)


def _template() -> str:
    lines = [
        "# confilt experiment configuration",
        "# every key is optional except [experiment] id; an omitted key takes the",
        "# default listed under it for the chosen experiment, else the one on its line",
    ]
    for section, rows in groupby(_KEYS, lambda row: row.section):
        lines += ["", f"[{section}]"]
        for row in rows:
            entry = "id = exp1" if row.key == "id" else f"# {row.key} = {row.default or ''}"
            lines.append(f"{entry:<28} ; {row.help}")
            lines += [f"#     {exp}: {'unset' if d is None else d}" for exp, d in row.per_experiment.items()]
    return "\n".join(lines) + "\n"


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse and resolve a config file; raises ConfigError on any problem.

    `overrides` maps ExperimentConfig fields to text that replaces the file's
    value (the --seed, --trials and --out-dir flags); blank override text is
    a ConfigError, where a blank file value takes the default.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    given = {}  # field -> (text, source)
    for row in _KEYS:
        text = parser.get(row.section, row.key, fallback="").strip()
        if text:
            given[row.attr] = (text, "file")
    given.update((attr, (str(text), "command line")) for attr, text in (overrides or {}).items())
    if "experiment" not in given:
        raise ConfigError(f"{path}: [experiment] id is required")
    exp_id = given["experiment"][0]  # checked as the first row below

    values, sources = {}, {}
    for row in _KEYS:
        text, sources[row.attr] = given.get(row.attr, (row.default_for(exp_id), "default applied"))
        anchor = f"{path}: [{row.section}] {row.key} = {text!r}"
        if sources[row.attr] == "command line":
            anchor += " from the command line"
            if not text:
                raise ConfigError(f"{anchor}: needs a value; leave the flag out to keep the config's")
        try:
            value = row.type.parse(text) if text else None
        except ValueError as exc:
            raise ConfigError(f"{anchor}: {exc}") from exc
        problem = value is not None and row.check(value)
        if problem:
            raise ConfigError(f"{anchor}: {problem}")
        values[row.attr] = value

    if "sigma_v2" in given and "snr_db_list" in given:
        raise ConfigError(f"{path}: [scenario] sigma_v2 and snr_db_list are mutually exclusive")
    # a noise level given either way displaces the other's default
    for attr, other in (("sigma_v2", "snr_db_list"), ("snr_db_list", "sigma_v2")):
        if attr in given:
            values[other] = None
    if values["mu_list"] and values["snr_db_list"]:
        raise ConfigError(f"{path}: [scenario] mu_list and snr_db_list cannot be combined")
    for exp, attr in (("exp2-snr", "snr_db_list"), ("exp2-mu", "mu_list")):
        if exp_id == exp and not values[attr]:
            raise ConfigError(f"{path}: {exp} needs [scenario] {attr}")
    # the sparsest exp3 segment zeroes round(0.9 L) taps: every one below L = 5
    if exp_id == "exp3" and values["filter_length"] < 5:
        raise ConfigError(
            f"{path}: [experiment] filter_length = {values['filter_length']}: exp3 needs at least 5 taps"
        )
    if values["constraint"] == "none" and any(ALGORITHMS[a].constrained for a in values["algorithms"]):
        raise ConfigError(
            f"{path}: [scenario] constraint = none is incompatible with constrained algorithms"
        )

    notes = [
        f"{sources[row.attr]}: [{row.section}] {row.key} = {row.type.show(values[row.attr])}"
        for row in _KEYS
        if sources[row.attr] != "file" and values[row.attr] is not None
    ]
    known = {(row.section, row.key) for row in _KEYS}
    notes += [
        f"not read: [{section}] {key} is not a config key; ignored"
        for section in parser.sections()
        for key in parser.options(section)
        if (section, key) not in known
    ]
    return ExperimentConfig(**values, notes=notes)


def _signal_model(cfg: ExperimentConfig, sigma_v2: float) -> SignalModel:
    """The unknown system, drawn from system_seed, under the configured input."""
    _numeric()
    rng = np.random.default_rng(cfg.system_seed)
    if cfg.experiment == "exp3":
        w_sys = sparse_system_schedule(cfg.filter_length, cfg.horizon, rng)
    else:
        w_sys = linear_phase_system(cfg.filter_length, rng)
    if cfg.input_kind == "ar1":
        return ar1_signal_model(cfg.ar1_rho, sigma_v2, w_sys)
    return white_signal_model(sigma_v2, w_sys)


def build_scenario(cfg: ExperimentConfig, sigma_v2: float) -> tuple[SignalModel, ConstraintSet | None]:
    """Unknown system, input statistics and constraint set for one run point."""
    model = _signal_model(cfg, sigma_v2)
    L = cfg.filter_length
    if cfg.constraint == "none":
        cs = None
    elif cfg.constraint == "dc-gain":
        cs = build_constraint_set(np.ones((L, 1)), np.array([float(np.sum(model.w_sys.systems[0]))]))
    else:
        cs = linear_phase_constraints(L)
    return model, cs


def _points(cfg: ExperimentConfig) -> list[tuple[str, float, float]]:
    """(label, sigma_v2, mu) per run point; distinct list entries get distinct labels."""
    if cfg.snr_db_list:
        noiseless = _signal_model(cfg, 0.0)
        return [(f"snr{_exact(snr)}", noise_var_from_snr(snr, noiseless), cfg.mu) for snr in cfg.snr_db_list]
    if cfg.mu_list:
        return [(f"mu{_exact(mu)}", cfg.sigma_v2, mu) for mu in cfg.mu_list]
    return [("", cfg.sigma_v2, cfg.mu)]


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray], preamble: Sequence[str] = ()) -> None:
    """Write the `preamble` lines, the header and one row per index of
    `columns`, each value as `_fmt` writes it (integers in full, floats to 12
    significant digits) through one %-format per row."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.12g" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in [*preamble, ",".join(header)])
        # 1024 rows at a time: all of them as Python objects would raise peak memory
        for start in range(0, len(columns[0]), 1024):
            chunk = zip(*(c[start : start + 1024].tolist() for c in columns))
            fh.writelines(row % values for values in chunk)


def _config_echo(cfg: ExperimentConfig) -> str:
    blocks = []
    for section, rows in groupby(_KEYS, lambda row: row.section):
        lines = [f"[{section}]"]
        for row in rows:
            value = getattr(cfg, row.attr)
            # an unset key is left out, unless blank is its default
            if value is not None or row.default == "":
                lines.append(f"{row.key} = {'' if value is None else row.type.show(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _theory(model: SignalModel, cs: ConstraintSet, base: AlgorithmParams, mus, horizon: int) -> list[tuple]:
    """(transient trace, closed form, ||w_o||^2) at each step size in `mus`,
    from one recursion over all of them."""
    traces = transient_sweep(model, cs, base.alpha, mus, np.zeros(model.n_taps), horizon)
    w_o = optimal_constrained_wiener(model, cs)
    preds = [steady_state_emse(model, cs, replace(base, mu=mu)) for mu in mus]
    return [(trace, pred, float(w_o @ w_o)) for trace, pred in zip(traces, preds)]


def _core_count() -> int:
    """The cores this process may run on; 1 where the platform cannot say or fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _attempt_each(jobs: Sequence[Callable[[], Any]]) -> list[tuple[bool, Any]]:
    """The outcomes of the jobs in order, each (True, result) or (False, the
    exception the job raised), up to and including the first failure: a later
    job of the same share cannot be the first failure in job order, so it is
    not run."""
    outcomes = []
    for job in jobs:
        try:
            outcomes.append((True, job()))
        except Exception as exc:  # handed to the caller, which raises it in job order
            outcomes.append((False, exc))
            break
    return outcomes


def _child(write: int, jobs: Sequence[Callable[[], Any]]) -> NoReturn:
    """In a forked child: send the jobs' outcomes through `write` and exit,
    never returning into the parent's stack."""
    status = 1
    try:
        outcomes = _attempt_each(jobs)
        with open(write, "wb") as fh:
            pickle.dump(outcomes, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    except BaseException as exc:  # reported here; the parent sees no results
        sys.excepthook(type(exc), exc, exc.__traceback__)
    finally:
        os._exit(status)


def _run_jobs(jobs: Sequence[Callable[[], Any]]) -> list[Any]:
    """The results of several independent jobs, in job order; or the first
    failure in job order, raised once every share has stopped.

    The jobs are dealt round-robin into one share per core, at most one per
    job. This process computes the first share. Each other share runs in a
    child made with os.fork, which inherits the jobs as they are, pickles its
    `_attempt_each` outcomes back through a pipe and leaves with os._exit. A share
    stops at its first failure, since its later jobs come later in job order
    too; every other share still runs to its end or its own failure. So one
    job, or one core, forks nothing. Every child is reaped before this returns
    or raises; if this process's own share is interrupted, the children are
    killed first. Run from `entry`, the children inherit its frozen heap,
    which their collections neither walk nor write to.
    """
    n = max(1, min(len(jobs), _core_count()))
    outcomes: list[Any] = [None] * len(jobs)
    children = {}  # pid -> (read end of its pipe, indices of its jobs)
    try:
        for k in range(1, n):
            # a child must not write out what this process has buffered
            sys.stdout.flush()
            sys.stderr.flush()
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(write, jobs[k::n])
            os.close(write)
            children[pid] = (open(read, "rb"), range(k, len(jobs), n))
        for j, outcome in zip(range(0, len(jobs), n), _attempt_each(jobs[::n])):
            outcomes[j] = outcome
        for pid, (fh, share) in list(children.items()):
            with fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if not data:
                raise RuntimeError(f"worker process {pid} ended without its results (wait status {status})")
            for j, outcome in zip(share, pickle.loads(data)):
                outcomes[j] = outcome
    finally:
        if children:  # this process's share or a read failed
            from signal import SIGKILL  # here, so that start-up does not pay for it
        for pid, (fh, _) in children.items():
            fh.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    for done, value in outcomes:
        if not done:
            raise value
    return [value for _, value in outcomes]


# reference partner for plateau matching: matched algorithm -> reference
_MATCH_PAIRS = {"lms": "lmls", "clms": "clmls"}


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    points = _points(cfg)
    base = AlgorithmParams(mu=cfg.mu, alpha=cfg.alpha, t=cfg.l1_budget, beta_slope=cfg.beta_slope)
    matched = {a for a in cfg.algorithms if cfg.matching and _MATCH_PAIRS.get(a) in cfg.algorithms}
    partner = {_MATCH_PAIRS[a]: a for a in matched}  # reference -> the algorithm matched to it
    want_theory = cfg.experiment in ("exp2-snr", "exp2-mu") and "clmls" in cfg.algorithms

    def sweep(group, model, cs, name, mus):
        """By (point, algorithm): (mu, result) of name's sweep at `mus`, then of
        its partner's at the step sizes that match name's plateaus."""
        results = run_step_size_sweep(model, name, base, mus, cfg.trials, cfg.horizon, cfg.base_seed, cs=cs)
        runs = {(i, name): run for i, run in zip(group, zip(mus, results))}
        if name in partner:
            matched_mus = [
                match_step_size(
                    steady_state_plateau_db(res), partner[name], model, cfg.match_bounds, cs=cs,
                    params=base, trials=cfg.match_trials, horizon=cfg.horizon, base_seed=cfg.base_seed,
                )
                for res in results
            ]
            runs.update(sweep(group, model, cs, partner[name], matched_mus))
        return runs

    def recursion(group, model, cs, mus):
        # clmls, the one algorithm with a theory, is never matched
        return {(i, None): trace for i, trace in zip(group, _theory(model, cs, base, mus, cfg.horizon))}

    # the points of one noise level share model, constraint and trial seeds,
    # so each unmatched algorithm runs them as one step-size sweep, and the
    # theory as one recursion over clmls's step sizes. The sweeps come first,
    # so that this process's share is Monte-Carlo
    sweeps, recursions = [], []
    for sigma_v2 in dict.fromkeys(p[1] for p in points):
        group = [i for i, p in enumerate(points) if p[1] == sigma_v2]
        mus = [points[i][2] for i in group]
        model, cs = build_scenario(cfg, sigma_v2)
        sweeps += [partial(sweep, group, model, cs, name, mus) for name in sorted(set(cfg.algorithms) - matched)]
        if want_theory:
            recursions.append(partial(recursion, group, model, cs, mus))
    # by (point, algorithm): (mu, result); by (point, None): the theory
    table = {}
    for part in _run_jobs(sweeps + recursions):
        table.update(part)

    summary: list[str] = [f"# confilt run summary: {cfg.experiment}", ""]
    theory_lines: list[str] = []
    csv_files: dict[str, str] = {}  # file name -> plot title
    theory_files: set[str] = set()
    for i, (label, _, _) in enumerate(points):
        for name in cfg.algorithms:
            (mu, res), tag = table[i, name], f"{name}_{label}" if label else name
            fname = f"{cfg.experiment}_{tag}.csv"
            header = ["iteration", "msd_db", "emse"]
            cols = [np.arange(cfg.horizon), res.msd_db, res.emse]
            if name == "clmls" and (i, None) in table:
                trace, pred, w_o2 = table[i, None]
                line = (
                    f"{tag}: emse_closed_form={_fmt(pred.emse)} "
                    f"msd_closed_form={_fmt(pred.msd)} beta={_fmt(pred.beta_factor)} "
                    f"discriminant={_fmt(pred.discriminant)} valid={pred.valid}"
                )
                if trace.diverged_at is None:
                    header += ["theory_msd_db", "theory_emse"]
                    cols += [np.asarray(ratio_to_db(trace.msd[: cfg.horizon] / w_o2)), trace.emse[: cfg.horizon]]
                    theory_files.add(fname)
                else:
                    line += f" transient_diverged_at={trace.diverged_at}"
                    print(
                        f"warning: {tag}: theory recursion diverged at iteration "
                        f"{trace.diverged_at}; {fname} has no theory columns",
                        file=sys.stderr,
                    )
                theory_lines.append(line)
            _write_csv(out_dir / fname, header, cols)
            csv_files[fname] = tag
            summary.append(
                f"{tag}: plateau_db={_fmt(steady_state_plateau_db(res))} "
                f"emse_ss={_fmt(steady_state_emse_sim(res))} "
                f"mu={_fmt(mu)}{' (matched)' if name in matched else ''} "
                f"diverged={res.diverged_trials} fallback_steps={res.fallback_steps} "
                f"max_residual={_fmt(res.max_residual)}"
            )

    if theory_lines:
        summary += ["", "[theory]"] + theory_lines
    summary += ["", "[config-echo]", _config_echo(cfg), ""]
    (out_dir / "summary.txt").write_text("\n".join(summary), encoding="utf-8")
    _write_plot_script(out_dir, cfg, csv_files, theory_files)


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


def run_predict(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Write the theory curves of the single run point; the exit code."""
    points = _points(cfg)
    if len(points) != 1:
        raise ConfigError(
            "predict needs a single scenario point; drop snr_db_list/mu_list "
            "or reduce them to one entry"
        )
    if cfg.experiment == "exp3":
        raise ConfigError(
            "[experiment] id = exp3: predict needs a fixed system, and exp3 "
            "switches systems between its sparsity segments"
        )
    label, sigma_v2, mu = points[0]
    model, cs = build_scenario(cfg, sigma_v2)
    if cs is None:
        raise ConfigError("predict requires a constrained scenario")
    if "clmls" not in cfg.algorithms:
        raise ConfigError(f"[experiment] algorithms = {', '.join(cfg.algorithms)}: predict models clmls only")
    params = AlgorithmParams(mu=mu, alpha=cfg.alpha, t=cfg.l1_budget, beta_slope=cfg.beta_slope)
    ((trace, pred, w_o2),) = _theory(model, cs, params, [mu], cfg.horizon)
    if trace.diverged_at is not None:
        print(f"predict failed: theory recursion diverged at iteration {trace.diverged_at}", file=sys.stderr)
        return EXIT_DIVERGED

    preamble = [
        f"# steady_state_emse = {_fmt(pred.emse)}",
        f"# steady_state_msd = {_fmt(pred.msd)}",
        f"# beta_factor = {_fmt(pred.beta_factor)}",
        f"# discriminant = {_fmt(pred.discriminant)}",
    ]
    if not pred.valid:
        preamble.append(
            "# warning: invalid-regime discriminant (step size too large "
            "for the asymptotic model); closed-form values are NaN"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{cfg.experiment}_predict{('_' + label) if label else ''}.csv"
    _write_csv(
        path, ["iteration", "theory_msd_db", "theory_emse"],
        [np.arange(cfg.horizon + 1), np.asarray(ratio_to_db(trace.msd / w_o2)), trace.emse],
        preamble,
    )
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confilt",
        description="constrained adaptive filtering experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_init = sub.add_parser("init", help="write a commented template config")
    p_init.add_argument("--config", required=True, help="where to write the template")
    p_init.add_argument("--force", action="store_true", help="overwrite an existing file")
    for command, text in (
        ("validate", "check a config without running"),
        ("run", "run the configured experiment"),
        ("predict", "theory-only prediction"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", required=True, help="path to the INI config")
        p.add_argument("--seed", help="override base_seed")
        p.add_argument("--trials", help="override trials")
        p.add_argument("--out-dir", help="override output directory")
    return parser


def main(argv=None) -> int:
    """Run one command; its exit code. Every outcome of every command
    becomes its code and message here (see the module docstring)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or the usage and the error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.command == "init":
            path = Path(args.config)
            if path.exists() and not args.force:
                print(f"refusing to overwrite {path} (use --force)", file=sys.stderr)
                return EXIT_IO
            path.write_text(_template(), encoding="utf-8")
            print(f"wrote template config to {path}")
            return EXIT_OK
        flags = {"base_seed": args.seed, "trials": args.trials, "out_dir": args.out_dir}
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        if args.command == "validate":
            print(f"config ok: experiment {cfg.experiment}, algorithms {', '.join(cfg.algorithms)}")
            for note in cfg.notes:
                print(f"  {note}")
            return EXIT_OK
        _numeric()
        try:
            if args.command == "predict":
                return run_predict(cfg, Path(cfg.out_dir))
            run_experiment(cfg, Path(cfg.out_dir))
        except (EnsembleDivergedError, StepSizeMatchError) as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return EXIT_DIVERGED
        print(f"experiment {cfg.experiment} complete; results in {cfg.out_dir}/")
        return EXIT_OK
    except ConfigError as exc:
        print(f"{'invalid' if args.command == 'validate' else 'config error'}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"{'cannot write template' if args.command == 'init' else 'i/o error'}: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> int:
    """`main` as the program: load the numeric layers if the command computes,
    freeze what the imports built, then collect as usual (see the module
    docstring). `python -m confilt.cli` and the `confilt` console script
    both start here."""
    if sys.argv[1:2] in (["run"], ["predict"]):
        _numeric()
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
