"""The program's entry, `python -m confilt.cli`, run in a subprocess under
`python -X dev -W error`, so that any warning in that process (an unclosed
file, a numpy RuntimeWarning, a DeprecationWarning) is an error there.

The entry writes the same files, stdout, stderr and exit code as `cli.main`
called in this process on the same config, and runs `main` with the collector
enabled and the imports' heap frozen; `cli.main` itself leaves the collector
as it finds it. The commands that compute nothing (`init`, `validate`,
`--help`, a usage error) load no numpy, and for `run` and `predict` the
entry loads it before it freezes the heap. Every run is short (horizon 200,
2 trials); a `run` of exp2-mu has two jobs, so it forks wherever two cores
are available. The subprocess runs with one BLAS thread, as perfbench runs
the program, so that its forks happen in a single-threaded process: from
Python 3.12 on, forking a process that holds threads is itself a
DeprecationWarning.
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
# name -> (command, config, exit code, lines on stderr); the "out-dir-is-a-file"
# case finds a file at --out-dir, and "usage-error" names a command
# that does not exist
CASES = {
    "run": ("run", f"[experiment]\nid = exp2-mu\n{SHORT}", cli.EXIT_OK, 0),
    "predict": ("predict", f"[experiment]\nid = custom\nfilter_length = 30\n{SHORT}", cli.EXIT_OK, 0),
    "bad-config": ("run", f"[experiment]\nid = custom\n{SHORT}\n[params]\nmu = abc\n", cli.EXIT_CONFIG, 1),
    "predict-diverges": ("predict", f"[experiment]\nid = custom\n{SHORT}\n[params]\nmu = 1000\n", cli.EXIT_DIVERGED, 1),
    "out-dir-is-a-file": ("run", f"[experiment]\nid = custom\n{SHORT}", cli.EXIT_IO, 1),
    "usage-error": ("simulate", f"[experiment]\nid = custom\n{SHORT}", cli.EXIT_CONFIG, 2),  # usage, then the error
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
    command, text, code, lines = CASES[case]
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
        assert runs["entry"][2].count("\n") == lines  # the message, no traceback


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


# the modules that only the commands which compute, `run` and `predict`, need
NUMERIC = ("numpy", "confilt.constraints", "confilt.simulation", "confilt.theory")
LOADED = f"import sys\ndef loaded(): return ','.join(m for m in {NUMERIC!r} if m in sys.modules)\n"
# prints which of them the process has loaded when it exits
AT_EXIT = LOADED + "import atexit\natexit.register(lambda: print(f'loaded={loaded()}', file=sys.stderr))\n"
# prints which of them the process has loaded when the entry freezes the heap
AT_FREEZE = LOADED + """
import gc
freeze = gc.freeze
def probe():
    print(f"loaded={loaded()}", file=sys.stderr)
    freeze()
gc.freeze = probe
"""
# name -> (arguments, exit code) of the commands that compute nothing; the
# failures must report their own error, not one from a name left unloaded
READERS = {
    "validate": (["validate", "--config", "config.ini"], cli.EXIT_OK),
    "validate-fails": (["validate", "--config", "missing.ini"], cli.EXIT_CONFIG),
    "init": (["init", "--config", "new.ini"], cli.EXIT_OK),
    "init-fails": (["init", "--config", "missing/new.ini"], cli.EXIT_IO),
    "help": (["--help"], cli.EXIT_OK),
    "usage-error": (["simulate"], cli.EXIT_CONFIG),
}


@pytest.mark.parametrize("how", ENTRIES)
@pytest.mark.parametrize("command", READERS)
def test_commands_that_compute_nothing_load_no_numpy(tmp_path, how, command):
    (tmp_path / "config.ini").write_text(f"[experiment]\nid = custom\n{SHORT}", encoding="utf-8")
    argv, expected = READERS[command]
    code, _, err = strict_python(tmp_path, "-c", AT_EXIT + ENTRIES[how], *argv)
    assert code == expected and "Traceback" not in err and err.splitlines()[-1] == "loaded="


@pytest.mark.parametrize("module", ["confilt.kernels", "confilt.cli"])
def test_importing_the_config_layer_loads_no_numpy(tmp_path, module):
    assert strict_python(tmp_path, "-c", f"{AT_EXIT}import {module}\n") == (0, "", "loaded=\n")


@pytest.mark.parametrize("how", ENTRIES)
@pytest.mark.parametrize("command", ["run", "predict"])
def test_the_freeze_covers_numpy_for_the_commands_that_compute(tmp_path, how, command):
    cfg = tmp_path / "config.ini"
    cfg.write_text(f"[experiment]\nid = custom\n{SHORT}", encoding="utf-8")
    argv = [command, "--config", str(cfg), "--trials", "2", "--out-dir", "out"]
    code, _, err = strict_python(tmp_path, "-c", AT_FREEZE + ENTRIES[how], *argv)
    assert code == cli.EXIT_OK and err == f"loaded={','.join(NUMERIC)}\n"


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
