"""A digest of the CLI's outputs on a fixed, reduced command set.

Five reduced `run`s (exp1, exp2-mu, exp2-mu with AR(1) input and the
dc-gain constraint, exp2-snr and exp3, each with `--trials 4 --seed 101`)
and two `predict`s (custom, L = 30, with white and with AR(1) input), all at
system_seed 101, run one after another as `python -m confilt.cli` children
of this script, with one BLAS thread, in a temporary directory. Each writes
to its own relative `--out-dir`, so that the `[output] dir` echo of a
summary holds no absolute path.

The digest is JSON: the platform (Python minor version, numpy version, BLAS
name and version, machine, CPU model) and, per command, its exit code, its
stdout and the SHA-256 of every file it wrote. stderr is left out: the raw
numpy RuntimeWarnings that forked children write can come in another order.
Two trees compare by running this script in each and diffing the output.

    python tests/output_digest.py           # print the digest
    python tests/output_digest.py --write   # store it as tests/data/output_digest.json

`tests/test_output_digest.py` compares a fresh digest with the stored one on
the platform that stored it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STORED = Path(__file__).resolve().parent / "data" / "output_digest.json"

_SEED = "system_seed = 101\n"
_RUN = ["--trials", "4", "--seed", "101"]
# (name, command, config text, extra arguments); the name is the config
# file's stem and the output directory
COMMANDS = [
    ("exp1", "run", f"[experiment]\nid = exp1\nhorizon = 1500\n{_SEED}[matching]\ntrials = 2\n", _RUN),
    ("exp2-mu", "run", f"[experiment]\nid = exp2-mu\n{_SEED}", _RUN),
    (
        "exp2-mu-ar1-dc-gain", "run",
        f"[experiment]\nid = exp2-mu\n{_SEED}[scenario]\ninput = ar1\nconstraint = dc-gain\n", _RUN,
    ),
    ("exp2-snr", "run", f"[experiment]\nid = exp2-snr\n{_SEED}", _RUN),
    ("exp3", "run", f"[experiment]\nid = exp3\nhorizon = 1500\n{_SEED}", _RUN),
    ("predict-L30", "predict", f"[experiment]\nid = custom\nfilter_length = 30\n{_SEED}", []),
    (
        "predict-L30-ar1", "predict",
        f"[experiment]\nid = custom\nfilter_length = 30\n{_SEED}[scenario]\ninput = ar1\n", [],
    ),
]


def platform_info() -> dict[str, str]:
    """What can change an output bit: Python, numpy, its BLAS and the CPU."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "cpu": cpu,
    }


def digest() -> dict:
    """Run every command of `COMMANDS` and digest what it leaves."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    commands = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, command, text, extra in COMMANDS:
            (work / f"{name}.ini").write_text(text, encoding="utf-8")
            argv = [command, "--config", f"{name}.ini", *extra, "--out-dir", name]
            proc = subprocess.run(
                [sys.executable, "-m", "confilt.cli", *argv],
                cwd=work, env=env, capture_output=True, text=True, timeout=600,
            )
            out = work / name
            files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
            commands.append({
                "command": " ".join(argv),
                "exit_code": proc.returncode,
                "stdout": proc.stdout,
                "files": {
                    p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files
                },
            })
    return {"platform": platform_info(), "commands": commands}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__.strip(), file=sys.stderr)
        return 1
    text = json.dumps(digest(), indent=1) + "\n"
    if argv:
        STORED.parent.mkdir(exist_ok=True)
        STORED.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
