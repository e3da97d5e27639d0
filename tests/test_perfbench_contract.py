"""The package as perfbench/tracing.py drives it in a `--trace 1` run.

The benchmark calls layer functions by name and keyword from outside the
package, so a renamed function or a dropped parameter it still passes
shows up here instead of only in a traced benchmark run. The module is
loaded from its file, unedited; every run is short (horizon 30 or 50).
"""

import importlib.util
import math
from pathlib import Path

from confilt import cli

ROOT = Path(__file__).resolve().parents[1]

# the benchmark's two layer-timing scenarios, at a short horizon
LAYER_CONFIGS = {
    "L10": "[experiment]\nid = custom\nfilter_length = 10\nhorizon = 30\nsystem_seed = 101\n",
    "L30": "[experiment]\nid = exp3\nfilter_length = 30\nhorizon = 30\nsystem_seed = 101\n",
}
EXP2_MU = "[experiment]\nid = exp2-mu\nhorizon = 50\nsystem_seed = 101\n\n[output]\nthreads = 1\n"
PREDICT_L30 = "[experiment]\nid = custom\nfilter_length = 30\nhorizon = 50\nsystem_seed = 101\n\n[output]\nthreads = 1\n"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_timings_and_traced_run(tmp_path, capsys):
    tracing = load_tracing()
    configs = {}
    for size, text in LAYER_CONFIGS.items():
        configs[size] = tmp_path / f"layer-{size}.ini"
        configs[size].write_text(text, encoding="utf-8")
    workload = tmp_path / "exp2-mu.ini"
    workload.write_text(EXP2_MU, encoding="utf-8")

    problems = []
    layer = tracing.layer_timings(configs, workload, 101, problems)
    assert problems == []
    assert layer and all(math.isfinite(v) for v in layer.values())

    tracer = tracing.Tracer()
    argv = ["run", "--config", str(workload), "--trials", "2", "--out-dir", str(tmp_path / "out")]
    with tracing.installed(tracer):
        code = cli.main(argv)
    capsys.readouterr()
    assert code == cli.EXIT_OK
    metrics = tracing.span_metrics(tracer, tracer.root_s)
    assert metrics["layer.cli.calls"] > 0
    assert all(math.isfinite(v) for v in metrics.values())


def test_traced_predict(tmp_path, capsys):
    tracing = load_tracing()
    workload = tmp_path / "predict-L30.ini"
    workload.write_text(PREDICT_L30, encoding="utf-8")
    tracer = tracing.Tracer()
    argv = ["predict", "--config", str(workload), "--out-dir", str(tmp_path / "out")]
    with tracing.installed(tracer):
        code = cli.main(argv)
    capsys.readouterr()
    assert code == cli.EXIT_OK
    metrics = tracing.span_metrics(tracer, tracer.root_s)
    assert metrics["layer.theory.calls"] > 0
    assert all(math.isfinite(v) for v in metrics.values())
