"""The program's entry, `python -m confilt.cli`, run in a subprocess under
`python -X dev -W error`, so that any warning in that process (an unclosed
file, a numpy RuntimeWarning, a DeprecationWarning) is an error there.

The entry writes the same files, stdout, stderr and exit code as `cli.main`
called in this process on the same config, and runs `main` with the collector
enabled and the imports' heap frozen; `cli.main` itself leaves the collector
as it finds it. Every run is short (horizon 200, 2 trials); a `run` of
exp2-mu has two jobs, so it forks wherever two cores are available. The
subprocess runs with one BLAS thread, as perfbench runs the program, so that
its forks happen in a single-threaded process: from Python 3.12 on, forking
a process that holds threads is itself a DeprecationWarning.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confilt import cli

SRC = Path(cli.__file__).resolve().parents[1]
STRICT_PYTHON = [sys.executable, "-X", "dev", "-W", "error"]
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

SHORT = "horizon = 200\nsystem_seed = 101\n"
# name -> (command, config, exit code); the "out-dir-is-a-file" case finds a file at --out-dir
CASES = {
    "run": ("run", f"[experiment]\nid = exp2-mu\n{SHORT}", cli.EXIT_OK),
    "predict": ("predict", f"[experiment]\nid = custom\nfilter_length = 30\n{SHORT}", cli.EXIT_OK),
    "bad-config": ("run", f"[experiment]\nid = custom\n{SHORT}\n[params]\nmu = abc\n", cli.EXIT_CONFIG),
    "predict-diverges": ("predict", f"[experiment]\nid = custom\n{SHORT}\n[params]\nmu = 1000\n", cli.EXIT_DIVERGED),
    "out-dir-is-a-file": ("run", f"[experiment]\nid = custom\n{SHORT}", cli.EXIT_IO),
}


def strict_python(cwd: Path, *args: str) -> tuple[int, str, str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": path}
    proc = subprocess.run(
        [*STRICT_PYTHON, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def outputs(cwd: Path) -> dict[str, bytes] | bytes | None:
    out = cwd / "out"
    if out.is_dir():
        return {p.name: p.read_bytes() for p in out.iterdir()}
    return out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("case", CASES)
def test_the_entry_writes_what_main_writes(tmp_path, capsys, monkeypatch, case):
    command, text, code = CASES[case]
    cfg = tmp_path / "config.ini"
    cfg.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--trials", "2", "--seed", "101", "--out-dir", "out"]
    runs = {}
    for where in ("entry", "main"):
        work = tmp_path / where
        work.mkdir()
        if case == "out-dir-is-a-file":
            (work / "out").write_text("not a directory\n", encoding="utf-8")
        if where == "entry":
            result = strict_python(work, "-m", "confilt.cli", *argv)
        else:
            monkeypatch.chdir(work)  # the same relative --out-dir, so the same [output] dir
            result = (cli.main(argv), *capsys.readouterr())
        runs[where] = (*result, outputs(work))
    assert runs["entry"] == runs["main"]
    assert runs["entry"][0] == code
    if code == cli.EXIT_OK:
        assert runs["entry"][2] == "" and runs["entry"][3]
    else:
        assert runs["entry"][2].count("\n") == 1  # one message, no traceback


# prints the collector's state when `main` starts parsing its arguments
PROBE = """
import argparse, gc, sys
parse_args = argparse.ArgumentParser.parse_args
def probe(self, *args, **kwargs):
    print(f"enabled={gc.isenabled()} frozen={gc.get_freeze_count()}", file=sys.stderr)
    return parse_args(self, *args, **kwargs)
argparse.ArgumentParser.parse_args = probe
"""
ENTRIES = {
    "python-m": 'import runpy\nrunpy.run_module("confilt.cli", run_name="__main__", alter_sys=True)\n',
    "console-script": "from confilt.cli import entry\nsys.exit(entry())\n",  # as the installed script calls it
}


@pytest.mark.parametrize("how", ENTRIES)
def test_main_runs_collecting_with_the_imports_frozen(tmp_path, how):
    cfg = tmp_path / "config.ini"
    cfg.write_text(f"[experiment]\nid = custom\n{SHORT}", encoding="utf-8")
    code, out, err = strict_python(tmp_path, "-c", PROBE + ENTRIES[how], "validate", "--config", str(cfg))
    assert code == cli.EXIT_OK and out.startswith("config ok: experiment custom")
    state, frozen = err.removesuffix("\n").rsplit("=", 1)
    assert state == "enabled=True frozen" and int(frozen) > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_finds_it(tmp_path, enabled):
    cfg = tmp_path / "config.ini"
    cfg.write_text(f"[experiment]\nid = custom\n{SHORT}", encoding="utf-8")
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for command in ("validate", "predict", "run"):
            argv = [command, "--config", str(cfg), "--trials", "2", "--out-dir", str(tmp_path / "out")]
            assert cli.main(argv) == cli.EXIT_OK
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
