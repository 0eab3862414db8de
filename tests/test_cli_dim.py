"""The CLI at large dimensions: uniform bounds are read once, and a ``--dim``
whose box cannot be held is one ``error:`` line naming ``--dim``, exit 2.

Only 10**20 is run for real: a dim numpy could try to allocate, such as
10**11, may be killed for memory rather than raise, so running out of
memory is simulated.
"""

import json
import tracemalloc

import numpy as np
import pytest

from stapy import cli
from stapy.cli import main, parse_config
from stapy.core import SearchSpace

HUGE = str(10**20)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def uniform_config(tmp_path, bounds=(-1, 1)):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bounds": bounds}))
    return str(cfg)


def bounds_sources(tmp_path):
    """Each way to give the box [-1, 1] over every coordinate."""
    return {
        "flag": ["--bounds", "-1,1"],
        "config": ["--config", uniform_config(tmp_path)],
        "config text": ["--config", uniform_config(tmp_path, "-1,1")],
        "default": [],
    }


@pytest.mark.parametrize("source", ["flag", "config", "config text", "default"])
@pytest.mark.parametrize("function", ["x1", "sphere", "paper_quadratic"])
def test_an_unindexable_dim_is_one_line_naming_dim(tmp_path, capsys, function, source):
    args = ["--function", function, "--dim", HUGE] + bounds_sources(tmp_path)[source]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err == f"error: --dim must be a positive integer whose box fits in memory, got {HUGE}\n"


@pytest.mark.parametrize(
    "function, source",
    [("x1", "flag"), ("x1", "config"), ("x1", "config text")]
    + [("sphere", source) for source in ("flag", "config", "config text", "default")],
)
def test_a_box_that_runs_out_of_memory_is_one_line_naming_dim(
    tmp_path, capsys, monkeypatch, function, source
):
    def out_of_memory(self):
        raise MemoryError

    monkeypatch.setattr(SearchSpace, "__post_init__", out_of_memory)
    args = ["--function", function, "--dim", "3"] + bounds_sources(tmp_path)[source]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err == "error: --dim is too large for its box to fit in memory, got 3\n"


@pytest.mark.parametrize("source", ["flag", "config", "config text"])
def test_uniform_bounds_are_read_once(tmp_path, source):
    """A uniform pair costs a few float64 arrays of the dimension, not a text
    and a tuple per coordinate."""
    dim = 10**6
    bounds = bounds_sources(tmp_path)[source]
    args = ["--function", "x1", "--dim", str(dim)] + bounds
    tracemalloc.start()
    try:
        config = parse_config(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * dim
    assert config.space.dim == dim
    assert np.all(config.space.lower == -1.0) and np.all(config.space.upper == 1.0)


def parse_peak(args):
    tracemalloc.start()
    try:
        parse_config(args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_benchmark_with_given_bounds_builds_no_default_box():
    """Given bounds replace a benchmark's default box, which is then never built."""
    bounds = ["--dim", str(10**6), "--bounds", "-1,1"]
    expression = parse_peak(["--function", "x1"] + bounds)
    benchmark = parse_peak(["--function", "sphere"] + bounds)
    assert benchmark <= 1.1 * expression


@pytest.mark.parametrize("source", ["flag", "config", "config text", "default"])
def test_a_fixed_dim_benchmark_rejects_another_dim_whatever_the_bounds(tmp_path, capsys, source):
    args = ["--function", "paper_quadratic", "--dim", "4"] + bounds_sources(tmp_path)[source]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err == "error: dim mismatch: benchmark 'paper_quadratic' is fixed to dim 3, got 4\n"


@pytest.mark.parametrize("out", ["--out-csv", "--out-json"])
def test_only_a_run_with_out_json_builds_the_params_document(tmp_path, capsys, monkeypatch, out):
    """The document is built once, after the runs, and only to be written; each seed runs once."""
    calls = {"_params_document": 0, "sta_run": 0}
    for name in calls:
        def counted(*args, real=getattr(cli, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    args = ["--function", "x1", "--dim", "3", "--bounds", "-1,1", "--iterations", "2", "--seed", "1", "--seed", "2"]
    code, _, err = run_cli(args + [out, str(tmp_path / "out")], capsys)
    assert code == 0 and err == ""
    assert calls == {"_params_document": int(out == "--out-json"), "sta_run": 2}
