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

from stapy.cli import main, parse_config
from stapy.core import SearchSpace

HUGE = str(10**20)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def uniform_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bounds": [-1, 1]}))
    return str(cfg)


def bounds_sources(tmp_path, dim):
    """Each way to give the box [-1, 1] over ``dim`` coordinates."""
    path = tmp_path / "box.txt"
    path.write_text("-1,1\n" * dim)
    return {
        "flag": ["--bounds", "-1,1"],
        "config": ["--config", uniform_config(tmp_path)],
        "file": ["--bounds-file", str(path)],
        "default": [],
    }


@pytest.mark.parametrize("source", ["flag", "config", "file", "default"])
@pytest.mark.parametrize("function", ["x1", "sphere", "paper_quadratic"])
def test_an_unindexable_dim_is_one_line_naming_dim(tmp_path, capsys, function, source):
    args = ["--function", function, "--dim", HUGE] + bounds_sources(tmp_path, 2)[source]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err == f"error: --dim must be a positive integer whose box fits in memory, got {HUGE}\n"


@pytest.mark.parametrize(
    "function, source",
    [("x1", "flag"), ("x1", "config"), ("x1", "file")]
    + [("sphere", source) for source in ("flag", "config", "file", "default")],
)
def test_a_box_that_runs_out_of_memory_is_one_line_naming_dim(
    tmp_path, capsys, monkeypatch, function, source
):
    def out_of_memory(self):
        raise MemoryError

    monkeypatch.setattr(SearchSpace, "__post_init__", out_of_memory)
    args = ["--function", function, "--dim", "3"] + bounds_sources(tmp_path, 3)[source]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err == "error: --dim is too large for its box to fit in memory, got 3\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_uniform_bounds_are_read_once(tmp_path, source):
    """A uniform pair costs a few float64 arrays of the dimension, not a text
    and a tuple per coordinate."""
    dim = 10**6
    bounds = ["--bounds", "-1,1"] if source == "flag" else ["--config", uniform_config(tmp_path)]
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
