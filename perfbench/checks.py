"""Correctness checks on confilt's output files, read from outside the package.

Every (algorithm, variant) curve a command writes is one checked operation.
A `run` curve passes when

- the command exited 0,
- its CSV has `horizon` rows and every value is finite,
- `summary.txt` reports `diverged=0` for it,
- its `max_residual` is at most FEASIBILITY_TOL,
- its final-window plateau lies below the iteration-0 MSD of the CSV,
- and, where the summary carries a closed-form EMSE, the simulated
  steady-state EMSE is within EMSE_GAP_TOL of it (relative).

A `predict` curve passes when the command exited 0, the CSV has horizon + 1
finite rows, the closed form is in its valid regime, the curve decays, and
its final EMSE is within PREDICT_GAP_TOL of the closed form.

Only the standard library is used, so the checks cost the timed loop nothing
beyond reading the files.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

# Rounding leaves |C^T w - z| at or below 3e-15 for the unit-norm systems of
# the paper configs; 1e-10 flags a real loss of feasibility, such as the
# 6.5e-9 residual of a filter whose weights have grown to ~1e7.
FEASIBILITY_TOL = 1e-10
# Relative |simulated - closed-form| steady EMSE per exp2 point.  Over seeds
# 1-12 at 4 trials the gap ranged 0.04-0.51 (median 0.23); a wrong kernel or
# update moves it by whole factors, which this catches.
EMSE_GAP_TOL = 1.0
# Relative gap between the recursion's final EMSE and the small-error closed
# form; it is a model property (0.085 at L=30, mu=0.05, sigma_v2=0.01).
PREDICT_GAP_TOL = 0.25


@dataclass
class CurveCheck:
    """Outcome and accuracy fields of one checked (algorithm, variant) curve."""

    tag: str
    problems: list[str] = field(default_factory=list)
    rows: int = 0
    sha256: str = ""
    plateau_db: float | None = None
    iter0_db: float | None = None
    emse_sim: float | None = None
    emse_closed_form: float | None = None
    fallback_steps: int | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def emse_gap_rel(self) -> float | None:
        if self.emse_sim is None or not self.emse_closed_form:
            return None
        return abs(self.emse_sim - self.emse_closed_form) / self.emse_closed_form

    def record(self) -> dict:
        out = {k: v for k, v in vars(self).items() if v not in (None, "", [])}
        if self.emse_gap_rel is not None:
            out["emse_gap_rel"] = self.emse_gap_rel
        return out


def parse_key_values(text: str) -> dict[str, dict[str, str]]:
    """`tag: k=v k=v ...` lines -> {tag: {k: v}}; other lines are skipped."""
    out: dict[str, dict[str, str]] = {}
    for line in text.splitlines():
        tag, sep, rest = line.partition(": ")
        if not sep or " " in tag or "=" not in rest:
            continue
        out.setdefault(tag, {}).update(
            tok.split("=", 1) for tok in rest.split() if "=" in tok
        )
    return out


def parse_summary(text: str) -> tuple[dict[str, dict[str, str]], dict[str, dict[str, str]]]:
    """Split summary.txt into its per-run lines and its [theory] lines."""
    head, _, tail = text.partition("\n[theory]\n")
    theory_text = tail.partition("\n[config-echo]")[0] if tail else ""
    return parse_key_values(head.partition("\n[config-echo]")[0]), parse_key_values(theory_text)


def read_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[float]]]:
    """(`# key = value` comments, header, rows of floats) of a confilt CSV."""
    comments: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                comments[key.strip()] = value.strip() if sep else ""
            elif not header:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


def _load_curve(check: CurveCheck, path: Path, expected_rows: int):
    """Read one CSV into `check`; returns (comments, header, rows) or None."""
    if not path.is_file():
        check.problems.append(f"missing {path.name}")
        return None
    try:
        comments, header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        check.problems.append(f"unreadable {path.name}: {exc}")
        return None
    check.rows = len(rows)
    check.sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    if len(rows) != expected_rows:
        check.problems.append(f"{len(rows)} rows, expected {expected_rows}")
    if any(len(r) != len(header) for r in rows):
        check.problems.append("ragged rows")
    if not all(math.isfinite(v) for r in rows for v in r):
        check.problems.append("non-finite values")
    return comments, header, rows


def check_run(out_dir: Path, experiment: str, tags: list[str], horizon: int, exit_code: int) -> list[CurveCheck]:
    """Check every expected curve of one `confilt run` output directory."""
    summary_path = out_dir / "summary.txt"
    runs, theory = ({}, {})
    if summary_path.is_file():
        runs, theory = parse_summary(summary_path.read_text(encoding="utf-8"))
    checks = []
    for tag in tags:
        check = CurveCheck(tag)
        checks.append(check)
        if exit_code != 0:
            check.problems.append(f"exit code {exit_code}")
        loaded = _load_curve(check, out_dir / f"{experiment}_{tag}.csv", horizon)
        fields = runs.get(tag)
        if fields is None:
            check.problems.append("no summary line")
            continue
        try:
            check.plateau_db = float(fields["plateau_db"])
            check.emse_sim = float(fields["emse_ss"])
            diverged = int(fields["diverged"])
            check.fallback_steps = int(fields["fallback_steps"])
            residual = float(fields["max_residual"])
        except (KeyError, ValueError) as exc:
            check.problems.append(f"bad summary line: {exc}")
            continue
        if diverged != 0:
            check.problems.append(f"diverged={diverged}")
        if not residual <= FEASIBILITY_TOL:
            check.problems.append(f"max_residual={residual:g} > {FEASIBILITY_TOL:g}")
        if loaded and loaded[2] and "msd_db" in loaded[1]:
            check.iter0_db = loaded[2][0][loaded[1].index("msd_db")]
            if not check.plateau_db < check.iter0_db:
                check.problems.append(
                    f"plateau {check.plateau_db:.2f} dB not below start {check.iter0_db:.2f} dB"
                )
        if tag in theory:
            check.emse_closed_form = float(theory[tag].get("emse_closed_form", "nan"))
            gap = check.emse_gap_rel
            if gap is None or not gap <= EMSE_GAP_TOL:
                check.problems.append(f"emse gap {gap} > {EMSE_GAP_TOL}")
    return checks


def check_predict(out_dir: Path, experiment: str, horizon: int, exit_code: int) -> list[CurveCheck]:
    """Check the single curve of one `confilt predict` output directory."""
    check = CurveCheck("predict")
    if exit_code != 0:
        check.problems.append(f"exit code {exit_code}")
    loaded = _load_curve(check, out_dir / f"{experiment}_predict.csv", horizon + 1)
    if loaded and loaded[2]:
        comments, header, rows = loaded
        if not {"theory_msd_db", "theory_emse"} <= set(header):
            check.problems.append(f"unexpected header {header}")
            return [check]
        msd, emse = header.index("theory_msd_db"), header.index("theory_emse")
        check.iter0_db, check.plateau_db = rows[0][msd], rows[-1][msd]
        check.emse_sim = rows[-1][emse]  # the recursion's own steady value
        try:
            check.emse_closed_form = float(comments["steady_state_emse"])
        except (KeyError, ValueError):
            check.problems.append("no closed-form steady state")
        if any(key.startswith("warning") for key in comments):
            check.problems.append("closed form outside its valid regime")
        if not check.plateau_db < check.iter0_db:
            check.problems.append("theory curve does not decay")
        gap = check.emse_gap_rel
        if gap is None or not gap <= PREDICT_GAP_TOL:
            check.problems.append(f"recursion vs closed form gap {gap} > {PREDICT_GAP_TOL}")
    return [check]
