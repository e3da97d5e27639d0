"""In-process tracing of confilt's modules, and direct timings of each layer.

The tracer wraps every public function of the five layer modules (`cli`,
`simulation`, `kernels`, `theory`, `constraints`) from outside the package:
the wrapper replaces the function wherever a confilt module holds a
reference to it, including the algorithm registry, and is removed again
afterwards.  Each call records a span (name, start, end, parent) in memory;
self time is a span's duration minus the time of its traced children, so
the layers' self times plus the untraced remainder add up to the wall time.

Kernel functions run once per sample, tens of thousands of times per
workload, so their calls are timed and counted but not stored as spans.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "simulation", "kernels", "theory", "constraints")
UNRECORDED_LAYERS = ("kernels",)


def _scenario_key(model, cs) -> str:
    """Fingerprint of the (model, constraint set) a reference optimum is for."""
    h = hashlib.sha1()
    systems = getattr(model.w_sys, "systems", (model.w_sys,))
    for arr in (model.R, *systems, *(() if cs is None else (cs.C, cs.z))):
        h.update(arr.tobytes())
    h.update(repr(model.sigma_v2).encode())
    return h.hexdigest()


def _count_monte_carlo(tracer, args, kwargs, result):
    tracer.counters["mc.trials"] += result.trials
    tracer.counters["mc.diverged_trials"] += result.diverged_trials


def _count_segment_optima(tracer, args, kwargs, result):
    tracer.scenarios.add(_scenario_key(*args[:2]))


def _count_theory_steps(tracer, args, kwargs, result):
    tracer.counters["theory.steps"] += len(result.msd) - 1


_ON_RETURN = {
    "simulation.run_monte_carlo": _count_monte_carlo,
    "simulation.segment_optima": _count_segment_optima,
    "theory.transient_predictor": _count_theory_steps,
}


class Tracer:
    """Spans and per-function [calls, total_s, self_s] of wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.scenarios: set[str] = set()
        self.root_s = 0.0  # time inside outermost traced calls
        self._stack: list[list] = []  # per active call: [child_s, span index]

    def wrap(self, name: str, fn, record: bool = True):
        stack, spans = self._stack, self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        on_return = _ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if record:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration
                if record:
                    spans[frame[1]][1:3] = (start, end)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def stat(self, name: str, field: int) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[field]

    def write_spans(self, path: Path, origin: float) -> None:
        rows = [[n, s - origin, e - origin, p] for n, s, e, p in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}))


@contextmanager
def installed(tracer: Tracer):
    """Route every call of a public confilt layer function through `tracer`."""
    import confilt
    from confilt import cli, constraints, kernels, simulation, theory

    modules = (cli, simulation, kernels, theory, constraints)
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj, record=layer not in UNRECORDED_LAYERS)
    saved = []
    for mod in (*modules, confilt):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    registry = dict(kernels.ALGORITHMS)
    for key, spec in registry.items():
        kernels.ALGORITHMS[key] = dataclasses.replace(spec, step=wrappers[spec.step])
    try:
        yield tracer
    finally:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)
        kernels.ALGORITHMS.update(registry)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload run."""
    t = tracer
    m: dict[str, float] = {"trace.wall_s": wall_s, "trace.unattributed_s": wall_s - t.root_s}
    for layer in LAYERS:
        own = [st for name, st in t.stats.items() if name.partition(".")[0] == layer]
        m[f"layer.{layer}.calls"] = sum(st[0] for st in own)
        m[f"layer.{layer}.self_s"] = sum(st[2] for st in own)
    mc, gs, so = "simulation.run_monte_carlo", "simulation.generate_signals", "simulation.segment_optima"
    m[f"{mc}.calls"] = t.stat(mc, 0)
    m[f"{mc}.total_s"] = t.stat(mc, 1)
    # the step loop: everything in the harness but signals and reference optima
    m[f"{mc}.self_s"] = t.stat(mc, 1) - t.stat(gs, 1) - t.stat(so, 1)
    for name in (gs, so):
        m[f"{name}.calls"] = t.stat(name, 0)
        m[f"{name}.total_s"] = t.stat(name, 1)
    m[f"{so}.useful_frac"] = _ratio(len(t.scenarios), t.stat(so, 0))
    m["simulation.diverged_frac"] = _ratio(t.counters["mc.diverged_trials"], t.counters["mc.trials"])
    tp, hg, hu = "theory.transient_predictor", "theory.h_G", "theory.h_U"
    m[f"{tp}.calls"] = t.stat(tp, 0)
    m[f"{tp}.total_s"] = t.stat(tp, 1)
    # the recursion without its moment functionals
    m[f"{tp}.self_s"] = t.stat(tp, 1) - t.stat(hg, 1) - t.stat(hu, 1)
    m[f"{tp}.steps_per_s"] = _ratio(t.counters["theory.steps"], t.stat(tp, 1))
    for name in (hg, hu):
        m[f"{name}.calls"] = t.stat(name, 0)
        m[f"{name}.total_s"] = t.stat(name, 1)
    m["cli.run_experiment.self_s"] = t.stat("cli.run_experiment", 2)
    m["cli.run_predict.self_s"] = t.stat("cli.run_predict", 2)
    return m


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _kernel_loop(spec, model, cs, params, n_steps: int, seed: int):
    """A closure that drives one step function over n_steps fresh samples."""
    import numpy as np
    from confilt.kernels import DegenerateDirectionError, FilterState, clms_step, clmls_step
    from confilt.simulation import generate_signals

    U, d = generate_signals(model, n_steps, np.random.default_rng(seed))
    fallback = clmls_step if spec.log_kernel else clms_step
    w0 = cs.f.copy() if spec.constrained else np.zeros(model.n_taps)

    def loop():
        state = FilterState(w=w0.copy(), n=0)
        for n in range(n_steps):
            if spec.sparse:
                try:
                    state, _ = spec.step(state, U[n], d[n], params, cs)
                except DegenerateDirectionError:
                    state = fallback(state, U[n], d[n], params, cs)
            elif spec.constrained:
                state = spec.step(state, U[n], d[n], params, cs)
            else:
                state = spec.step(state, U[n], d[n], params)

    return loop


def layer_timings(configs: dict[str, Path], workload_config: Path, seed: int, problems: list[str]) -> dict[str, float]:
    """Direct calls into each layer at fixed, small sizes.

    `configs` maps "L10" and "L30" to INI files of the two reference
    scenarios: linear-phase at L=10 and the sparse dc-gain schedule at L=30.
    The fallback share is that of the sparse algorithms' runs on the L=30
    scenario.  A wrong result of the step-size self-match is appended to
    `problems`.
    """
    from confilt import cli, constraints, simulation, theory
    from confilt.kernels import ALGORITHMS, AlgorithmParams

    m: dict[str, float] = {}
    m["cli.load_config_ms"] = 1e3 * _median_time(lambda: cli.load_config(workload_config), 30)
    wcfg = cli.load_config(workload_config)
    m["cli.build_scenario_ms"] = 1e3 * _median_time(lambda: cli.build_scenario(wcfg, wcfg.sigma_v2), 30)

    fallback_steps = sparse_steps = 0
    for size, path in configs.items():
        cfg = cli.load_config(path)
        model, cs = cli.build_scenario(cfg, cfg.sigma_v2)
        base = AlgorithmParams(mu=cfg.mu, alpha=cfg.alpha, beta_slope=cfg.beta_slope)
        optimum = simulation.segment_optima(model, cs)[0]
        n_steps = 600
        for name, spec in ALGORITHMS.items():
            run = functools.partial(
                simulation.run_monte_carlo, model, name, base, 1, cfg.horizon, seed, cs=cs
            )
            results = []
            m[f"simulation.{name}.samples_per_s.{size}"] = cfg.horizon / _median_time(lambda: results.append(run()), 3)
            if spec.sparse and size == "L30":
                fallback_steps += results[-1].fallback_steps
                sparse_steps += cfg.horizon
            params = base
            if spec.sparse:
                budget = simulation.l1_budget_for(optimum, spec.reweighted, base.beta_slope)
                params = dataclasses.replace(base, t=budget)
            loop = _kernel_loop(spec, model, cs, params, n_steps, seed)
            m[f"kernels.{name}.step_us.{size}"] = 1e6 * _median_time(loop, 3) / n_steps
        m[f"constraints.build_constraint_set_us.{size}"] = 1e6 * _median_time(
            lambda: [constraints.build_constraint_set(cs.C, cs.z) for _ in range(50)], 3
        ) / 50
    m["simulation.fallback_frac"] = _ratio(fallback_steps, sparse_steps)

    cfg = cli.load_config(configs["L10"])
    model, cs = cli.build_scenario(cfg, cfg.sigma_v2)
    params = AlgorithmParams(mu=cfg.mu, alpha=cfg.alpha)
    trials, samples = 8, cfg.horizon
    serial = _median_time(lambda: simulation.run_monte_carlo(model, "clmls", params, trials, samples, seed, cs=cs), 1)
    pooled = _median_time(
        lambda: simulation.run_monte_carlo(model, "clmls", params, trials, samples, seed, cs=cs, n_workers=2), 1
    )
    m["simulation.pool_speedup.n2"] = serial / pooled

    # self-match as in the package's own test: the target is clmls's plateau
    # at mu = 0.05, on a horizon long enough for the bracket to sit on the
    # rising branch of the plateau curve
    match_trials, match_horizon = 2, 6000
    target = simulation.steady_state_plateau_db(
        simulation.run_monte_carlo(model, "clmls", params, match_trials, match_horizon, seed, cs=cs)
    )
    probes = 0
    original = simulation.run_monte_carlo

    def counted(*args, **kwargs):
        nonlocal probes
        probes += 1
        return original(*args, **kwargs)

    simulation.run_monte_carlo = counted
    start = time.perf_counter()
    try:
        mu = simulation.match_step_size(
            target, "clmls", model, (0.02, 0.2), cs=cs, params=params,
            trials=match_trials, horizon=match_horizon, base_seed=seed,
        )
        if abs(mu / params.mu - 1.0) > 0.05:
            problems.append(f"self-match returned mu = {mu:g}, not within 5 % of {params.mu:g}")
    except simulation.StepSizeMatchError as exc:
        problems.append(f"self-match failed: {exc}")
    finally:
        simulation.run_monte_carlo = original
    m["simulation.match_step_size.s"] = time.perf_counter() - start
    m["simulation.match_step_size.probes"] = probes

    for label, as2 in (("1e-2", 1e-2), ("1", 1.0), ("1e3", 1e3)):
        err = theory.GaussianErrorModel(sigma_e2=as2, alpha=1.0)
        theory.h_G(err), theory.h_U(err)  # fill the quadrature node cache
        m[f"theory.h_G_us.as2_{label}"] = 1e6 * _median_time(lambda: [theory.h_G(err) for _ in range(50)], 3) / 50
        m[f"theory.h_U_us.as2_{label}"] = 1e6 * _median_time(lambda: [theory.h_U(err) for _ in range(50)], 3) / 50
    m["theory.steady_state_emse_us"] = 1e6 * _median_time(
        lambda: [theory.steady_state_emse(model, cs, params) for _ in range(50)], 3
    ) / 50
    return m
