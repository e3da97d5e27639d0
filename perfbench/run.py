"""Benchmark of the confilt experiment runner, driven from outside the package.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the directory holding `src/confilt`).

--trace 0 runs the workload's `confilt` command in child processes, again
and again for --seconds, and reports the end-to-end metrics named in
BENCHMARK.json: set-up time (median of several `confilt validate` runs),
command wall time and work per second (both over all commands of the run)
and peak RSS.
--trace 1 runs the same command in-process, untraced and traced in turn,
plus direct timings of each layer, and reports the per-layer metrics.
Every output curve is checked (see checks.py); the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  Files go to
.perfbench_out/ under the checkout.

Each --trace 1 invocation also re-runs two known-defect probes (exp1
step-size matching and the exp3 reweighted variants) and reports what they
show.  They are untimed and do not count towards "failed"; --trace 0 leaves
them out so that its time goes to measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# the in-process traced run must get the same BLAS threading as the children
os.environ.update(CHILD_THREADS_ENV)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

SETUP_REPEATS = 3  # at least this many `confilt validate` runs per run
SETUP_EVERY = 4  # one before every 4th command, so they sample the whole run
MIN_COMMANDS = 3
CHILD_TIMEOUT_S = 120.0
OUT_ROOT = Path(".perfbench_out")


@dataclass(frozen=True)
class Workload:
    command: str  # confilt subcommand
    experiment: str
    ini: str  # config text; {seed} becomes system_seed
    horizon: int
    trials: int | None  # --trials for `run`
    tags: tuple[str, ...]  # the curves the command must write
    why: str

    def config_text(self, seed: int) -> str:
        return self.ini.format(seed=seed)

    def work(self, curves: list[checks.CurveCheck]) -> int:
        """Filter updates (run) or recursion steps (predict) completed."""
        if self.command == "predict":
            return sum(c.rows - 1 for c in curves)
        return sum(c.rows for c in curves) * self.trials


WORKLOADS = {
    "exp2-mu-L10": Workload(
        "run", "exp2-mu",
        "[experiment]\nid = exp2-mu\nhorizon = 5000\nsystem_seed = {seed}\n\n[output]\nthreads = 1\n",
        5000, 4, ("clmls_mu0.03", "clmls_mu0.05", "clmls_mu0.1"),
        "CLMLS at L=10 over mu in {0.03,0.05,0.1}: Monte-Carlo step loop plus the theory; the only place theory meets simulation",
    ),
    "predict-L30": Workload(
        "predict", "custom",
        "[experiment]\nid = custom\nfilter_length = 30\nhorizon = 5000\nsystem_seed = {seed}\n\n[output]\nthreads = 1\n",
        5000, None, ("predict",),
        "theory recursion alone at L=30, where the kron(M, I_L) matvec dominates; the Monte-Carlo layer is never called",
    ),
}

# Reference scenarios for the direct layer timings (trace 1).
LAYER_CONFIGS = {
    "L10": "[experiment]\nid = custom\nfilter_length = 10\nhorizon = 1500\nsystem_seed = {seed}\n",
    "L30": "[experiment]\nid = exp3\nfilter_length = 30\nhorizon = 1500\nsystem_seed = {seed}\n",
}


@dataclass(frozen=True)
class DefectProbe:
    """A paper config run at its defaults, showing a known defect."""

    experiment: str
    ini: str
    trials: int
    horizon: int
    tags: tuple[str, ...]
    defect: str


DEFECT_PROBES = {
    # The 6-point geometric grid passes over clms's plateau minimum, so
    # matching exits 2 ("not bracketed"); the mu = 0.5 probe overflows.
    "exp1-matched": DefectProbe(
        "exp1", "[experiment]\nid = exp1\n\n[matching]\ntrials = 2\n\n[output]\nthreads = 1\n",
        2, 5000, ("lms", "lmls", "clms", "clmls"),
        "step-size matcher misses the clms plateau minimum (exit 2)",
    ),
    # l1-wclms and l1-wclmls end near +137 dB from a -1 dB start with
    # diverged=0 in the summary.
    "exp3-reweighted": DefectProbe(
        "exp3", "[experiment]\nid = exp3\n\n[output]\nthreads = 1\n",
        2, 6000, ("l1-clms", "l1-wclms", "l1-clmls", "l1-wclmls"),
        "reweighted l1 variants blow up without being flagged as diverged",
    ),
}


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: str


def run_child(argv: list[str], env: dict[str, str], log_path: Path) -> ChildRun:
    """Run one command to completion; resource usage is the child's own."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        log=log_path.read_text(encoding="utf-8", errors="replace"),
    )


def confilt_argv(command: str, config: Path, seed: int | None, trials: int | None, out_dir: Path | None) -> list[str]:
    argv = [command, "--config", str(config)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    if out_dir is not None:
        argv += ["--out-dir", str(out_dir)]
    return argv


def check_output(wl, out_dir: Path, exit_code: int) -> list[checks.CurveCheck]:
    if wl.command == "predict":
        return checks.check_predict(out_dir, wl.experiment, wl.horizon, exit_code)
    return checks.check_run(out_dir, wl.experiment, list(wl.tags), wl.horizon, exit_code)


def compare_to_first(first: list[checks.CurveCheck], curves: list[checks.CurveCheck], what: str) -> None:
    """Flag curves whose bytes differ from the same curve of the first run."""
    for ref, cur in zip(first, curves):
        if ref.sha256 and cur.sha256 != ref.sha256:
            cur.problems.append(f"output differs from the {what}")


def probe_defects(env: dict[str, str], work: Path) -> dict[str, dict]:
    out = {}
    for name, probe in DEFECT_PROBES.items():
        d = work / f"defect-{name}"
        d.mkdir(parents=True)
        cfg = d / "config.ini"
        cfg.write_text(probe.ini, encoding="utf-8")
        argv = [sys.executable, "-m", "confilt.cli"] + confilt_argv("run", cfg, None, probe.trials, d / "out")
        child = run_child(argv, env, d / "log.txt")
        curves = checks.check_run(d / "out", probe.experiment, list(probe.tags), probe.horizon, child.exit_code)
        failed = sum(not c.ok for c in curves)
        out[name] = {
            "defect": probe.defect,
            "exit_code": child.exit_code,
            "failed_ops_frac": failed / len(curves),
            "messages": [ln for ln in child.log.splitlines() if "run failed" in ln or "RuntimeWarning" in ln],
            "curves": [c.record() for c in curves],
        }
    return out


def provenance(wl_name: str, seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (TypeError, KeyError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": wl_name,
        "why": WORKLOADS[wl_name].why,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "child_env": {**CHILD_THREADS_ENV, "PYTHONPATH": "src"},
        "config_threads": 1,
    }


def end_to_end(wl: Workload, seed: int, seconds: float, env: dict[str, str], work: Path):
    """Time the CLI command in child processes; returns (metrics, curves, record)."""
    cfg = work / "config.ini"
    cfg.write_text(wl.config_text(seed), encoding="utf-8")
    py = [sys.executable, "-m", "confilt.cli"]
    validate = py + confilt_argv("validate", cfg, seed, wl.trials, None)

    setup, runs, all_curves, first = [], [], [], None
    start = time.perf_counter()
    while len(runs) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        if len(runs) % SETUP_EVERY == 0:
            setup.append(run_child(validate, env, work / "validate.log"))
        out_dir = work / f"out{len(runs)}"
        child = run_child(py + confilt_argv(wl.command, cfg, seed, wl.trials, out_dir), env, work / "command.log")
        curves = check_output(wl, out_dir, child.exit_code)
        if first is None:
            first = curves
        else:
            compare_to_first(first, curves, "first repetition")
            shutil.rmtree(out_dir)
        runs.append((child, wl.work([c for c in curves if c.ok])))
        all_curves += curves
    while len(setup) < SETUP_REPEATS:
        setup.append(run_child(validate, env, work / "validate.log"))
    bad_setup = [r.exit_code for r in setup if r.exit_code != 0]
    if bad_setup:
        first[0].problems.append(f"validate exited {bad_setup[0]}")

    # The host's speed drifts over seconds to minutes, so a command's time is
    # averaged over the whole run rather than taken from its middle command.
    total_wall = sum(c.wall_s for c, _ in runs)
    metrics = {
        "setup_s": statistics.median(r.wall_s for r in setup),
        "wall_s": total_wall / len(runs),
        "updates_per_s": sum(n for _, n in runs) / total_wall,
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c, _ in runs),
    }
    record = {
        "setup_walls_s": [r.wall_s for r in setup],
        "commands": [
            {"exit_code": c.exit_code, "wall_s": c.wall_s, "cpu_s": c.cpu_s, "peak_rss_mb": c.peak_rss_mb, "work": n}
            for c, n in runs
        ],
        "curves": [c.record() for c in first],
    }
    gaps = [c.emse_gap_rel for c in first if c.emse_gap_rel is not None and wl.command == "run"]
    if gaps:
        record["emse_gap_rel"] = statistics.mean(gaps)
    return metrics, all_curves, record


def traced(wl: Workload, seed: int, seconds: float, root: Path, work: Path):
    """In-process untraced/traced pairs plus direct layer timings."""
    sys.path.insert(0, str(root / "src"))
    import tracing
    from confilt import cli

    cfg = work / "config.ini"
    cfg.write_text(wl.config_text(seed), encoding="utf-8")
    layer_cfgs = {}
    for size, text in LAYER_CONFIGS.items():
        layer_cfgs[size] = work / f"layer-{size}.ini"
        layer_cfgs[size].write_text(text.format(seed=seed), encoding="utf-8")
    self_match = checks.CurveCheck("self-match")
    layer = tracing.layer_timings(layer_cfgs, cfg, seed, self_match.problems)

    def invoke(out_dir: Path) -> tuple[int, float]:
        argv = confilt_argv(wl.command, cfg, seed, wl.trials, out_dir)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main(argv)
            return code, time.perf_counter() - start

    pairs, all_curves, first = [], [self_match], None
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        i = len(pairs)
        code, plain_wall = invoke(work / f"plain{i}")
        plain = check_output(wl, work / f"plain{i}", code)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            origin = time.perf_counter()
            code, traced_wall = invoke(work / f"traced{i}")
        curves = check_output(wl, work / f"traced{i}", code)
        first = first or plain
        compare_to_first(first, plain, "first repetition")
        compare_to_first(first, curves, "untraced run")
        for d in (f"plain{i}", f"traced{i}"):
            shutil.rmtree(work / d, ignore_errors=True)
        pairs.append((plain_wall, traced_wall, tracer, origin, sum(c.rows for c in curves)))
        all_curves += plain + curves

    # per-layer figures come from one whole traced run, the median one
    order = sorted(range(len(pairs)), key=lambda k: pairs[k][1])
    plain_wall, traced_wall, tracer, origin, csv_rows = pairs[order[(len(order) - 1) // 2]]
    tracer.write_spans(work / "spans.json", origin)
    metrics = tracing.span_metrics(tracer, traced_wall)
    metrics["trace.untraced_wall_s"] = statistics.median(p[0] for p in pairs)
    metrics["trace.overhead_s"] = statistics.median(p[1] - p[0] for p in pairs)
    metrics["cli.csv_rows"] = csv_rows
    metrics.update(layer)
    record = {"pairs_s": [[p[0], p[1]] for p in pairs], "spans": len(tracer.spans)}
    return metrics, all_curves, record


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    wl = WORKLOADS[name]
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = OUT_ROOT / name / f"trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, **CHILD_THREADS_ENV, "PYTHONPATH": str(root / "src")}

    if trace:
        metrics, curves, record = traced(wl, seed, seconds, root, work)
        wanted = spec["per_layer"]
    else:
        metrics, curves, record = end_to_end(wl, seed, seconds, env, work)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(names) ^ set(metrics))} do not match BENCHMARK.json")

    record.update(provenance=provenance(name, seed), defects=probe_defects(env, work) if trace else {})
    failed = [c for c in curves if not c.ok]
    record["failures"] = [{"tag": c.tag, "problems": c.problems} for c in failed]
    (work / "report.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1), encoding="utf-8")

    print(f"# workload {name} seed {seed} trace {trace}: {wl.why}")
    for m in wanted:
        print(f"metric {m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    for probe, res in record["defects"].items():
        print(f"defect {probe} exit_code={res['exit_code']} failed_ops_frac={res['failed_ops_frac']:g} "
              f"| {DEFECT_PROBES[probe].defect}")
    for c in failed[:10]:
        print(f"failed {c.tag}: {'; '.join(c.problems)}")
    print(f"record {work / 'report.json'}")
    return {
        "correct": not failed,
        "attempted": len(curves),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed (system_seed and base_seed)")
    parser.add_argument("--seconds", type=float, default=50.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "confilt" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("run from the root of a confilt checkout (src/confilt and BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one fresh process per run, so no run inherits another's imports or memory
        results = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(trace)]
                out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout
                sys.stdout.write(out)
                results[f"{name}/trace{trace}"] = json.loads(out.splitlines()[-1])
        print(json.dumps(results))
        return 0
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
