"""Whole processes, started as a user starts them: the stapy CLI, each demo and
a script, each under ``python -W error`` in a fresh working directory, with
stapy imported from the source tree that this test session imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stapy

SRC = Path(stapy.__file__).resolve().parents[1]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
LONG = "x" * 100_000


def run(cwd, *args, **env):
    """``python -W error *args`` in ``cwd``: its exit code, stdout and stderr, as bytes."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", *args], cwd=cwd, capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), **env), timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


# Each row: python's arguments, then what its stdout starts with.  Every run exits 0 with
# nothing on stderr: a warning would fail it, as it fails the tests.
SILENT = [
    # On a box up to 1.7e308 the samplers overflow; the run's one floating-point guard keeps
    # that silent.
    pytest.param(["-m", "stapy", "--function", "1e-300*x1+1e-300*x2+1e-300*x3", "--dim", "3",
                  "--bounds", "0,1.7e308", "--iterations", "20"], b"seed 0: ", id="float-limits"),
    # sqrt of a negative, 1/0 (x2 clamped onto its bound 1) and exp overflow raise the
    # invalid, divide and overflow flags; the same guard keeps all three silent.
    pytest.param(["-m", "stapy", "--function", "sqrt(x1) + 1/(x2-1) + exp(1000*x3)", "--dim", "3",
                  "--bounds", "-1,1", "--iterations", "20", "--seed", "1", "--seed", "2",
                  "--seed", "3"], b"seed 1: ", id="domain-errors"),
    # --help is the one way parse_config exits.
    pytest.param(["-m", "stapy", "--help"], b"usage: stapy", id="help"),
] + [pytest.param([str(demo)], b"", id=demo.stem) for demo in DEMOS]


@pytest.mark.parametrize("args,out", SILENT)
def test_process_runs_silently(tmp_path, args, out):
    code, stdout, stderr = run(tmp_path, *args)
    assert (code, stderr) == (0, b"")
    assert stdout.startswith(out)


def test_demos_are_rows():
    assert DEMOS, "no demo found, so none is run"


# Each row: the files written into the working directory first, the CLI's arguments, and its
# exit code.  Every run writes nothing on stdout, one line under 400 bytes on stderr, and leaves
# every file it was given byte for byte as it was.
ERRORS = [
    # The --out-json parent is missing, so stapy exits before the first seed runs.
    pytest.param({}, ["--function", "griewank", "--dim", "10", "--seed", "1", "--seed", "2",
                      "--seed", "3", "--out-json", "missing/x.json"], 1, id="unwritable-output"),
    # A 100,000-character value, given as a flag or in a config file, is quoted in a few
    # characters, and so is an output path with a NUL byte.  A --dim that is no integer is
    # argparse's own message, which main writes too.
    pytest.param({}, ["--function", "sphere", "--dim", "2", "--bounds", LONG], 2, id="long-bounds"),
    pytest.param({}, ["--function", "sphere", "--dim", LONG], 2, id="long-dim"),
    pytest.param({"long-seeds.json": {"function": "sphere", "dim": 2, "seeds": LONG}},
                 ["--config", "long-seeds.json"], 2, id="long-seeds"),
    pytest.param({"nul-path.json": {"function": "sphere", "dim": 2, "out_json": "a\0b"}},
                 ["--config", "nul-path.json"], 2, id="nul-path"),
    # A config file whose out_json names the file itself.
    pytest.param({"self.json": {"function": "sphere", "dim": 2, "out_json": "self.json"}},
                 ["--config", "self.json"], 2, id="output-is-the-config"),
]


@pytest.mark.parametrize("files,args,code", ERRORS)
def test_process_error_is_one_short_line(tmp_path, files, args, code):
    given = {tmp_path / name: json.dumps(doc).encode() for name, doc in files.items()}
    for path, data in given.items():
        path.write_bytes(data)
    exit_code, stdout, stderr = run(tmp_path, "-m", "stapy", *args)
    assert (exit_code, stdout) == (code, b"")
    assert stderr.startswith(b"error: ") and stderr.count(b"\n") == 1 and stderr.endswith(b"\n")
    assert len(stderr) < 400
    assert {path: path.read_bytes() for path in given} == given


def test_failed_run_keeps_the_file_its_stdout_was_redirected_into(tmp_path):
    """``--out-json /dev/stdout`` names the file the shell redirected stdout
    into; a run that then fails did not create it, so it stays.  Run only as
    a process: in this one, fd 1 is the test session's own."""
    with open(tmp_path / "log.txt", "wb") as log:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "stapy", "--function", "sphere", "--dim", "2",
             "--iterations", "2", "--out-json", "/dev/stdout", "--out-csv", "x" * 300],
            cwd=tmp_path, stdout=log, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300,
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: cannot write ") and proc.stderr.count(b"\n") == 1
    assert [path.name for path in tmp_path.iterdir()] == ["log.txt"]


BLAS_THREADS = """\
import hashlib
import stapy
spec = stapy.get_benchmark("rastrigin")
for n in (100, 300, 1001):
    r = stapy.sta_run(spec.objective, spec.default_box(n), stapy.StaParams(iterations=5), rng=7)
    print(n, r.evaluations, hashlib.sha256(r.best.tobytes() + r.history.tobytes()).hexdigest())
"""


def test_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A BLAS that splits a product over threads may reorder each row's sum;
    op_rotate's sum is exact, so every result stays bit-identical, up to
    n = 1001, where a rotation draw is a (30030, 16) product."""
    (tmp_path / "blas-threads.py").write_text(BLAS_THREADS)
    one, two = (run(tmp_path, "blas-threads.py", OPENBLAS_NUM_THREADS=threads) for threads in "12")
    assert one == two
    code, stdout, stderr = one
    assert (code, stderr) == (0, b"") and stdout.count(b"\n") == 3
