"""Small tests of the benchmark's own parsing, checks and span accounting.

    python3 perfbench/selftest.py

Kept out of the package's test suite on purpose (the file name does not
match pytest's test_*.py pattern); they need neither confilt nor numpy.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

SUMMARY = """\
# confilt run summary: exp2-mu

clmls_mu0.05: plateau_db=-41.9 emse_ss=6.5e-05 mu=0.05 (matched) diverged={div} fallback_steps=0 max_residual={res}

[theory]
clmls_mu0.05: emse_closed_form={cf} msd_closed_form=6.3e-05 beta=5 discriminant=0.975 valid=True

[config-echo]
[experiment]
id = exp2-mu
"""


def write_run(d: Path, *, div=0, res="2.2e-16", cf="6.3e-05", rows=4, start_db=0.0, bad=None):
    (d / "summary.txt").write_text(SUMMARY.format(div=div, res=res, cf=cf))
    lines = ["iteration,msd_db,emse,theory_msd_db,theory_emse"]
    for n in range(rows):
        lines.append(f"{n},{start_db - n},{1e-3},{-n},{1e-3}")
    if bad:
        lines[-1] = f"{rows - 1},{bad},1e-3,0,1e-3"
    (d / "exp2-mu_clmls_mu0.05.csv").write_text("\n".join(lines) + "\n")


def run_problems(**kw) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        exit_code = kw.pop("exit_code", 0)
        write_run(d, **kw)
        (curve,) = checks.check_run(d, "exp2-mu", ["clmls_mu0.05"], 4, exit_code)
        return curve.problems


class SummaryParsing(unittest.TestCase):
    def test_runs_and_theory_are_split(self):
        runs, theory = checks.parse_summary(SUMMARY.format(div=0, res="1e-16", cf="6.3e-05"))
        self.assertEqual(runs["clmls_mu0.05"]["plateau_db"], "-41.9")
        self.assertEqual(runs["clmls_mu0.05"]["mu"], "0.05")
        self.assertNotIn("emse_closed_form", runs["clmls_mu0.05"])
        self.assertEqual(theory["clmls_mu0.05"]["emse_closed_form"], "6.3e-05")
        self.assertNotIn("id", runs)

    def test_csv_comments_header_rows(self):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "x.csv"
            p.write_text("# steady_state_emse = 1.5e-4\n# warning: invalid regime\na,b\n0,1.5\n1,nan\n")
            comments, header, rows = checks.read_csv(p)
        self.assertEqual(comments["steady_state_emse"], "1.5e-4")
        self.assertIn("warning: invalid regime", comments)
        self.assertEqual(header, ["a", "b"])
        self.assertEqual(rows[0], [0.0, 1.5])


class RunChecks(unittest.TestCase):
    def test_good_curve_passes(self):
        self.assertEqual(run_problems(), [])

    def test_each_failure_is_reported(self):
        self.assertTrue(any("exit code" in p for p in run_problems(exit_code=2)))
        self.assertTrue(any("diverged=1" in p for p in run_problems(div=1)))
        self.assertTrue(any("max_residual" in p for p in run_problems(res="6.5e-09")))
        self.assertTrue(any("not below start" in p for p in run_problems(start_db=-100.0)))
        self.assertTrue(any("non-finite" in p for p in run_problems(bad="inf")))
        self.assertTrue(any("rows" in p for p in run_problems(rows=3)))
        self.assertTrue(any("emse gap" in p for p in run_problems(cf="1e-05")))

    def test_missing_output(self):
        with tempfile.TemporaryDirectory() as tmp:
            (curve,) = checks.check_run(Path(tmp), "exp3", ["l1-clms"], 10, 2)
        self.assertFalse(curve.ok)
        self.assertTrue(any("missing" in p for p in curve.problems))


class PredictChecks(unittest.TestCase):
    def write(self, d: Path, emse_cf: str, warning: bool = False):
        head = [f"# steady_state_emse = {emse_cf}"] + (["# warning: invalid-regime discriminant"] if warning else [])
        rows = [f"{n},{-10.0 * n},{1e-4 * (2 - n) + 1.0e-4}" for n in range(3)]
        (d / "custom_predict.csv").write_text("\n".join(head + ["iteration,theory_msd_db,theory_emse"] + rows) + "\n")

    def test_good_and_bad(self):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            self.write(d, "1.1e-4")
            self.assertEqual(checks.check_predict(d, "custom", 2, 0)[0].problems, [])
            self.write(d, "1.1e-4", warning=True)
            self.assertTrue(checks.check_predict(d, "custom", 2, 0)[0].problems)
            self.write(d, "5e-4")
            self.assertTrue(any("gap" in p for p in checks.check_predict(d, "custom", 2, 0)[0].problems))


class SpanAccounting(unittest.TestCase):
    def test_self_times_and_remainder_add_up_to_wall(self):
        tracer = tracing.Tracer()

        def leaf():
            time.sleep(0.002)

        def middle():
            time.sleep(0.001)
            leaf_t()
            leaf_t()

        def top():
            middle_t()
            kern_t()

        leaf_t = tracer.wrap("simulation.leaf", leaf)
        middle_t = tracer.wrap("cli.middle", middle)
        kern_t = tracer.wrap("kernels.step", leaf, record=False)
        top_t = tracer.wrap("cli.top", top)
        start = time.perf_counter()
        top_t()
        time.sleep(0.001)
        wall = time.perf_counter() - start

        m = tracing.span_metrics(tracer, wall)
        total_self = sum(m[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
        self.assertAlmostEqual(total_self + m["trace.unattributed_s"], wall, places=9)
        self.assertGreater(m["trace.unattributed_s"], 0.0005)
        self.assertEqual(m["layer.kernels.calls"], 1)
        self.assertEqual([s[0] for s in tracer.spans], ["cli.top", "cli.middle", "simulation.leaf", "simulation.leaf"])
        self.assertEqual([s[3] for s in tracer.spans], [None, 0, 1, 1])
        self.assertTrue(all(s[1] <= s[2] for s in tracer.spans))


class BenchmarkSpec(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_spec_is_within_its_limits(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(self.NAME.match(n) for n in names))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertTrue(all(self.UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_workloads_match_the_runner(self):
        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
