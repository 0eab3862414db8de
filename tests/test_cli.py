"""End-to-end CLI behavior: flags, config files, outputs, exit codes."""

import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stapy import cli
from stapy.cli import CliError, build_parser, main, parse_config


def bounds_of(config):
    """The configured box as (lo, hi) pairs, comparable with ``==``."""
    return list(zip(config.space.lower.tolist(), config.space.upper.tolist()))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------- parse_config


def test_parse_config_rastrigin_defaults():
    config = parse_config(["--function", "rastrigin", "--dim", "10"])
    assert config.function == "rastrigin"
    assert config.space.dim == 10
    assert bounds_of(config) == [(-5.12, 5.12)] * 10
    assert config.params.iterations == 1000 and config.params.se == 30
    assert config.seeds == (0,), "default seed is 0, explicit"


def test_parse_config_bounds_flag_overrides_default_box():
    config = parse_config(
        ["--function", "griewank", "--dim", "15", "--bounds", "-600,600"]
    )
    assert bounds_of(config) == [(-600.0, 600.0)] * 15


def test_parse_config_fixed_dim_autofilled():
    config = parse_config(["--function", "paper_quadratic"])
    assert config.space.dim == 3
    assert bounds_of(config) == [(-3.0, 3.0), (-2.0, 2.0), (-1.0, 1.0)]


def test_parse_config_param_flags():
    config = parse_config(
        [
            "--function", "sphere", "--dim", "2", "--iterations", "7",
            "--se", "12", "--alpha-max", "2", "--alpha-min", "1e-3",
            "--beta", "0.5", "--gamma", "1.5", "--delta", "2.5", "--fc", "4",
            "--seed", "3", "--seed", "5", "--target-fitness", "1e-9",
        ]
    )
    p = config.params
    assert (p.iterations, p.se, p.alpha_max, p.alpha_min) == (7, 12, 2.0, 1e-3)
    assert (p.beta, p.gamma, p.delta, p.fc) == (0.5, 1.5, 2.5, 4.0)
    assert config.seeds == (3, 5)
    assert config.target_fitness == 1e-9


def test_parse_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "function": "sphere",
                "dim": 4,
                "bounds": [-10, 10],
                "iterations": 50,
                "se": 10,
            }
        )
    )
    config = parse_config(["--config", str(cfg), "--seed", "7"])
    assert (config.function, config.space.dim, config.params.se) == ("sphere", 4, 10)
    assert bounds_of(config) == [(-10.0, 10.0)] * 4
    assert config.seeds == (7,)
    # CLI flags win over the file.
    override = parse_config(["--config", str(cfg), "--se", "25", "--dim", "3"])
    assert override.params.se == 25 and override.space.dim == 3


def test_parse_config_bounds_rows(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bounds": [[-3, 3], [-2, 2], [-1, 1]]}))
    config = parse_config(["--function", "sphere", "--dim", "3", "--config", str(cfg)])
    assert bounds_of(config) == [(-3.0, 3.0), (-2.0, 2.0), (-1.0, 1.0)]


@pytest.mark.parametrize(
    "bounds", ["-1,1", "-1 1", ["-1", "1"], [-1, 1], [-1.0, "1"]],
    ids=["text", "spaced-text", "strings", "numbers", "mixed"],
)
def test_config_bounds_pair_reads_like_the_bounds_flag(tmp_path, bounds):
    """A uniform pair in a config file, as text or as two items, gives the
    box that --bounds -1,1 gives."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bounds": bounds}))
    base = ["--function", "sphere", "--dim", "3"]
    assert bounds_of(parse_config(base + ["--config", str(cfg)])) == \
        bounds_of(parse_config(base + ["--bounds", "-1,1"])) == [(-1.0, 1.0)] * 3


@pytest.mark.parametrize(
    "bounds,message",
    [
        ([True, 2], "malformed bounds in config file: coordinate 0: expected LO,HI, got 'True,2'"),
        ([-1, "x" * 100_000], "malformed bounds in config file: coordinate 0: expected LO,HI"),
        ({"lo": -1}, "malformed bounds in config file: expected"),
        ([[-1, 1], 2], "malformed bounds in config file: expected"),
    ],
    ids=["bool", "long-text", "object", "mixed"],
)
def test_malformed_config_bounds_are_one_short_line(tmp_path, capsys, bounds, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"function": "sphere", "dim": 2, "bounds": bounds}))
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and len(err.encode()) < 400, "one short line"


def test_parse_config_expression_function():
    config = parse_config(
        ["--function", "x1^2+x2^2", "--dim", "2", "--bounds", "-1,1"]
    )
    assert config.function == "x1^2+x2^2"


@pytest.mark.parametrize(
    "args,needle",
    [
        (["--dim", "2"], "--function is required"),
        (["--function", "sphere"], "--dim is required"),
        (["--function", "nope", "--dim", "2", "--bounds", "-1,1"], "unknown function"),
        (["--function", "sphere", "--dim", "0"], "positive integer"),
        (["--function", "sphere", "--dim", "2", "--bounds", "1,1"], "malformed bounds"),
        (["--function", "sphere", "--dim", "2", "--bounds", "1"], "malformed bounds"),
        (["--function", "paper_quadratic", "--dim", "5"], "dim mismatch"),
        (["--function", "x1+x9", "--dim", "2", "--bounds", "-1,1"], "unknown function"),
        (["--function", "x1+x2", "--dim", "2"], "--bounds or a config file's bounds is required"),
        (["--function", "sphere", "--dim", "2", "--se", "0"], "se"),
        (["--function", "sphere", "--dim", "2", "--seed", "-1"], "seed"),
        (["--function", "sphere", "--dim", "2", "--gamma", "inf"], "gamma"),
        (["--config", ""], "^cannot read config file : No such file or directory$"),
    ],
)
def test_parse_config_actionable_errors(args, needle):
    from stapy.cli import CliError

    with pytest.raises(CliError, match=needle):
        parse_config(args)


@pytest.mark.parametrize("lo,hi", [("nan", "1"), ("1", "nan"), ("inf", "2")])
@pytest.mark.parametrize("source", ["flag", "config", "config text", "config rows"])
def test_parse_config_rejects_non_finite_bound(tmp_path, source, lo, hi):
    # Named as non-finite, not as a failed LO < HI comparison.
    base = ["--function", "sphere", "--dim", "2"]
    if source == "flag":
        args = base + ["--bounds", f"{lo},{hi}"]
    else:
        bounds = {
            "config": [float(lo), float(hi)],
            "config text": f"{lo},{hi}",
            "config rows": [[-1, 1], [lo, hi]],
        }[source]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bounds": bounds}))
        args = base + ["--config", str(cfg)]
    with pytest.raises(CliError, match="malformed bounds .*bounds must be finite"):
        parse_config(args)


@pytest.mark.parametrize(
    "text",
    ["2,1", "1,1", "nan,1", "-1e308,1e308", "abc", "1," + "x" * 100_000],
    ids=["reversed", "empty", "nan", "width-overflows", "not-a-pair", "long-text"],
)
@pytest.mark.parametrize("source", ["flag", "config", "config text", "config pair"])
def test_malformed_bounds_name_their_source_in_one_short_line(tmp_path, capsys, source, text):
    base = ["--function", "sphere", "--dim", "2"]
    if source == "flag":
        args, where = base + ["--bounds", text], "for --bounds"
    else:
        def number_or_text(v):
            try:
                return float(v)
            except ValueError:
                return v

        cfg = tmp_path / "run.json"
        row = [number_or_text(v) for v in text.split(",")]
        bounds = {"config": [[-1, 1], row], "config text": text, "config pair": row}[source]
        cfg.write_text(json.dumps({"bounds": bounds}))
        args, where = base + ["--config", str(cfg)], "in config file"
    with pytest.raises(CliError) as info:
        parse_config(args)
    assert str(info.value).startswith(f"malformed bounds {where}")
    if source == "config text":  # read exactly as --bounds reads it
        with pytest.raises(CliError) as flag_info:
            parse_config(base + ["--bounds", text])
        assert str(info.value) == str(flag_info.value).replace("for --bounds", where, 1)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 400, "one short line"


@pytest.mark.parametrize(
    "content,message",
    [
        (b'{"function": "\xff"}', "cannot read config file"),
        (b"[" * 100_000 + b"]" * 100_000, "is not valid JSON"),
    ],
    ids=["not-utf8", "nested-too-deeply"],
)
def test_config_file_that_cannot_be_decoded_is_one_line(tmp_path, capsys, content, message):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(content)
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert message in err


def test_input_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte order mark at the start of the config file is skipped:
    the run prints what the same file without the mark prints."""
    text = json.dumps({"function": "x1^2 + x2^2", "dim": 2, "bounds": [-1, 1]})
    args = ["--iterations", "3", "--seed", "4", "--config"]
    outs = []
    for name, prefix in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(prefix + text.encode("utf-8"))
        code, out, err = run_cli(args + [str(path)], capsys)
        assert (code, err) == (0, "")
        outs.append(re.sub(r"runtime=\S+ ms", "runtime", out))
    assert outs[0] == outs[1] and outs[0].startswith("seed 4: ")


@pytest.mark.parametrize("content", ["[1, 2]", '"sphere"'], ids=["array", "string"])
def test_config_file_that_holds_no_object_is_one_line(tmp_path, capsys, content):
    cfg = tmp_path / "run.json"
    cfg.write_text(content)
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: config file {cfg} must hold a JSON object\n"


def test_parse_config_bounds_rows_dim_mismatch(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bounds": [[-1, 1]]}))
    with pytest.raises(CliError, match=r"^dim mismatch: 1 bounds row\(s\) in config file, expected 2$"):
        parse_config(["--function", "sphere", "--dim", "2", "--config", str(cfg)])


def test_bounds_file_flag_is_an_unknown_argument(tmp_path, capsys):
    args = ["--function", "sphere", "--dim", "2", "--bounds-file", "box.txt"]
    assert run_cli(args, capsys) == (2, "", "error: 2 unrecognized argument(s), the first '--bounds-file'\n")


def test_parse_config_rejects_unknown_config_key(tmp_path):
    from stapy.cli import CliError

    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"function": "sphere", "dim": 2, "speed": 11}))
    with pytest.raises(CliError, match="unknown config key 'speed'"):
        parse_config(["--config", str(cfg)])


@pytest.mark.parametrize(
    "entry",
    [
        {"dim": "abc"},
        {"dim": 2.7},
        {"dim": True},
        {"target_fitness": "x"},
    ],
    ids=["dim-abc", "dim-2.7", "dim-true", "target-x"],
)
def test_config_file_value_is_typed_like_its_flag(tmp_path, capsys, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"function": "sphere", "dim": 2, "iterations": 5, **entry}))
    with pytest.raises(CliError, match="config file"):
        parse_config(["--config", str(cfg)])
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, "one-line message"


@pytest.mark.parametrize(
    "seeds",
    [[1], [], {"a": 1}, "17", True, [1.9], None, "x" * 100_000],
    ids=["list", "empty", "object", "str", "true", "float", "null", "long"],
)
def test_config_seeds_is_an_unknown_key(tmp_path, capsys, seeds):
    """Seeds come from --seed alone; a config file's seeds fails, whatever its
    value and null too, with the same line and before any output is opened."""
    cfg = tmp_path / "run.json"
    doc = {"function": "sphere", "dim": 2, "seeds": seeds, "out_json": str(tmp_path / "out.json")}
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    known = ", ".join(cli._CONFIG_KEYS)
    assert (code, out, err) == (2, "", f"error: unknown config key 'seeds' (known: {known})\n")
    assert len(cli._CONFIG_KEYS) == 14
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


TYPED_FLAGS = (
    "--dim", "--iterations", "--se", "--seed", "--alpha-max", "--alpha-min",
    "--beta", "--gamma", "--delta", "--fc", "--target-fitness",
)


@pytest.mark.parametrize("flag", TYPED_FLAGS + ("config",))
def test_bad_typed_value_is_one_short_line(tmp_path, capsys, flag):
    args = ["--function", "sphere", "--dim", "2"]
    if flag == "config":
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": "x" * 100_000}))
        args += ["--config", str(cfg)]
    else:
        args += [flag, "x" * 100_000]
    try:
        code = main(args)
    except SystemExit as exit_:  # a bad flag is argparse's error
        code = exit_.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 400
    assert "invalid " in captured.err and "xxxxxxxxxxxxxxxxxxxx..." in captured.err


@pytest.mark.parametrize(
    "extra", [["x" * 100_000], ["--zz"] + ["x"] * 100_000], ids=["long", "many"]
)
def test_unrecognized_arguments_are_one_short_line(capsys, extra):
    try:
        code = main(["--function", "sphere", "--dim", "2", *extra])
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 400
    first = f"the first '{extra[0][:20]}"
    assert f"error: {len(extra)} unrecognized argument(s), {first}" in captured.err


# Every option string, and "--s", a prefix of two of them (--se, --seed).
OPTIONS = sorted(build_parser()._option_string_actions) + ["--s"]


@pytest.mark.parametrize("form", ["separate", "equals", "attached"])
@pytest.mark.parametrize("option", OPTIONS)
def test_every_option_with_a_long_token_is_at_most_one_short_line(
    tmp_path, monkeypatch, capsys, option, form
):
    """Whatever message argparse or stapy writes about a 100,000-character
    token with a newline near its start, it is one line under 400 bytes.  It
    is a configuration error (exit 2), except that a help flag given the token
    apart prints help (exit 0), and an output path that names it runs, then
    cannot be written (exit 1)."""
    monkeypatch.chdir(tmp_path)
    token = "x\n" + "x" * 99_998
    given = {"separate": [option, token], "equals": [f"{option}={token}"]}
    args = ["--function", "sphere", "--dim", "2", "--iterations", "1"]
    args += given.get(form, [option + token])
    expected = 2
    if option in ("-h", "--help") and form == "separate":
        expected = 0
    elif option in ("--out-json", "--out-csv") and form != "attached":
        expected = 1
    try:
        code = main(args)
    except SystemExit as exit_:  # argparse's errors and its help
        code = exit_.code
    err = capsys.readouterr().err
    assert code == expected
    assert err.count("\n") == (expected != 0) and len(err.encode()) < 400
    assert err.startswith("error: ") or expected == 0


def test_config_file_null_is_absent_and_flags_win(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps({"function": "sphere", "dim": "abc", "se": None})
    )
    config = parse_config(["--config", str(cfg), "--dim", "3", "--seed", "4"])
    assert (config.space.dim, config.params.se, config.seeds) == (3, 30, (4,))


@pytest.mark.parametrize(
    "args,read,expected",
    [
        (["--function", "-x1^2+x2^2", "--bounds", "-1,1"], lambda c: c.function, "-x1^2+x2^2"),
        (["--function", "sphere", "--target-fitness", "-1e-3"], lambda c: c.target_fitness, -1e-3),
        (["--function", "sphere", "--bounds", "-1,1"], bounds_of, [(-1.0, 1.0)] * 2),
        (["--function", "sphere", "--out-json", "-o.json"], lambda c: c.out_json, "-o.json"),
        (["--function", "sphere", "--bounds", "-1 1"], bounds_of, [(-1.0, 1.0)] * 2),
    ],
    ids=["function", "target-fitness", "bounds", "out-json", "bounds-with-space"],
)
def test_flag_value_may_start_with_minus(args, read, expected):
    config = parse_config(args + ["--dim", "2"])
    assert read(config) == expected


@pytest.mark.parametrize(
    "args,flag",
    [
        (["--function", "--dim", "2"], "--function"),
        (["--function", "--functio"], "--function"),  # a unique prefix of a flag
        (["--function", "--fun=3"], "--function"),
        (["--function", "sphere", "--out-json", "-hello.json"], "--out-json"),  # -h ello.json
        (["--function", "--", "--dim", "2"], "--function"),
    ],
    ids=["flag", "prefix", "prefix-with-value", "h-with-letters", "double-dash"],
)
def test_flag_followed_by_an_option_lacks_its_value(args, flag):
    with pytest.raises(CliError, match=f"{flag}: expected one argument"):
        parse_config(args)


VALUE_FLAGS = [flag for action in build_parser()._actions if action.nargs != 0
               for flag in action.option_strings]


@pytest.mark.parametrize("form", ["separate", "joined"])
@pytest.mark.parametrize("flag", VALUE_FLAGS)
def test_double_dash_is_never_a_flags_value(tmp_path, monkeypatch, capsys, flag, form):
    """``--flag --`` and ``--flag=--`` are one error line that names the flag, exit 2,
    with nothing on stdout and no file created."""
    monkeypatch.chdir(tmp_path)
    args = ["--function", "sphere", "--dim", "2", "--iterations", "2"]
    args += [flag, "--"] if form == "separate" else [f"{flag}=--"]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(re.escape(flag) + r"\b", err), "the message names the flag"
    assert list(tmp_path.iterdir()) == []


ARGPARSE_ERRORS = [
    (["--function", "sphere", "--dim", "x"], "argument --dim: invalid int value: 'x'"),
    (["--function", "--dim", "2"], "argument --function: expected one argument"),
    (["--function", "sphere", "--dim", "2", "--s", "3"],
     "ambiguous option: --s could match --se, --seed"),
    (["--function", "sphere", "--dim", "2", "--zz"], "1 unrecognized argument(s), the first '--zz'"),
    (["--function", "sphere", "--dim", "2", "--config", "{cfg}"],
     "config file {cfg}: argument --gamma: invalid float value: 'x'"),
]


@pytest.mark.parametrize("args,message", ARGPARSE_ERRORS,
                         ids=["invalid-int", "missing-value", "ambiguous", "unknown", "config"])
def test_argparse_error_is_raised_and_main_writes_it(tmp_path, capsys, args, message):
    """argparse's errors leave parse_config as CliError, never as SystemExit,
    and main writes them as every other configuration error: exit 2, one line."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": "x"}))
    args = [arg.format(cfg=cfg) for arg in args]
    message = message.format(cfg=cfg)
    with pytest.raises(CliError) as info:
        parse_config(args)
    assert str(info.value) == message
    assert capsys.readouterr() == ("", "")
    assert run_cli(args, capsys) == (2, "", f"error: {message}\n")


# ------------------------------------------------------------------- main


def test_main_error_exit_code_and_message(capsys):
    code, out, err = run_cli(["--function", "nope", "--dim", "2"], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1, "one-line message"


def test_main_rejects_over_deep_expression_in_one_line(capsys):
    text = "(" * 400 + "x1" + ")" * 400
    code, out, err = run_cli(["--function", text, "--dim", "1", "--bounds", "-1,1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, "one-line message"
    assert "nests too deeply" in err


def test_main_caps_the_echoed_expression_around_the_error(capsys):
    terms = "+".join(["x1"] * 2000) + "+)"
    for text, position, shown in [
        (terms, len(terms), ["'...+x1+x1", "+x1+)'"]),  # the tail is shown, the head elided
        ("y" * 10_000, 1, ["'yyy", "y...'"]),  # the offending token is cut too
        ("x" + "9" * 5000, 1, ["out of range"]),  # more digits than int() reads
    ]:
        code, out, err = run_cli(["--function", text, "--dim", "1", "--bounds", "-1,1"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and len(err.encode()) < 400, "one short line"
        assert f"at position {position}" in err
        assert all(part in err for part in shown)


def test_main_runs_an_iteration_budget_beyond_float_range(capsys):
    code, out, err = run_cli(
        ["--function", "sphere", "--dim", "2", "--iterations", "1" + "0" * 309,
         "--target-fitness", "1"],
        capsys,
    )
    assert code == 0 and err == ""
    assert out.startswith("seed 0: fbest=")


def test_main_prints_summary_and_echoes_seed(capsys):
    code, out, _ = run_cli(
        ["--function", "sphere", "--dim", "2", "--iterations", "5"], capsys
    )
    assert code == 0
    assert "seed 0:" in out
    assert "fbest=" in out and "best = [" in out and "ms" in out


def test_main_rastrigin_csv_1000_rows_non_increasing(tmp_path, capsys):
    csv_path = tmp_path / "hist.csv"
    code, _, _ = run_cli(
        ["--function", "rastrigin", "--dim", "10", "--bounds", "-5.12,5.12",
         "--iterations", "1000", "--out-csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "seed,iteration,fbest"
    assert len(lines) == 1 + 1000
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == list(range(1, 1001))
    fbest = [float(r[2]) for r in rows]
    assert all(b <= a for a, b in zip(fbest, fbest[1:])), "fbest must not increase"
    assert all(r[0] == "0" for r in rows)


def test_main_json_byte_identical_except_runtime(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            ["--function", "rastrigin", "--dim", "4", "--iterations", "40",
             "--seed", "42", "--out-json", str(path)],
            capsys,
        )
        assert code == 0
    texts = [p.read_text(encoding="utf-8") for p in paths]
    stripped = [
        "\n".join(l for l in t.splitlines() if "runtime_ms" not in l) for t in texts
    ]
    assert stripped[0] == stripped[1]
    assert texts[0].endswith("\n")


def test_main_json_schema_and_feasibility(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _, _ = run_cli(
        ["--function", "griewank", "--dim", "3", "--iterations", "30",
         "--seed", "1", "--seed", "2", "--out-json", str(path)],
        capsys,
    )
    assert code == 0
    records = json.loads(path.read_text(encoding="utf-8"))
    assert [r["seed"] for r in records] == [1, 2], "seed order preserved"
    for record in records:
        assert set(record) == {
            "seed", "best", "fbest", "evaluations", "runtime_ms", "params",
        }
        for value, (lo, hi) in zip(record["best"], record["params"]["bounds"]):
            assert lo <= value <= hi, "JSON best must lie inside the bounds"
        assert record["params"]["function"] == "griewank"
        assert record["params"]["se"] == 30


def test_main_config_round_trip_replay(tmp_path, capsys):
    """The params object in the JSON summary, with the record's seed as --seed,
    reproduces the identical record and CSV rows, runtime_ms aside."""
    code, _, _ = run_cli(
        ["--function", "rastrigin", "--dim", "5", "--iterations", "60", "--seed", "9",
         "--out-json", str(tmp_path / "first.json"), "--out-csv", str(tmp_path / "first.csv")],
        capsys,
    )
    assert code == 0
    (record,) = json.loads((tmp_path / "first.json").read_text(encoding="utf-8"))
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(record["params"]))
    code, _, _ = run_cli(
        ["--config", str(replay_cfg), "--seed", str(record["seed"]),
         "--out-json", str(tmp_path / "second.json"), "--out-csv", str(tmp_path / "second.csv")],
        capsys,
    )
    assert code == 0
    (replayed,) = json.loads((tmp_path / "second.json").read_text(encoding="utf-8"))
    del record["runtime_ms"], replayed["runtime_ms"]
    assert replayed == record
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


def test_main_expression_objective_runs(tmp_path, capsys):
    path = tmp_path / "expr.json"
    code, out, _ = run_cli(
        ["--function", "(x1-1)^2+(x2-2*x1)^2+(x3-3*x2)^2", "--dim", "3",
         "--config", str(write_box(tmp_path)), "--iterations", "100",
         "--seed", "3", "--out-json", str(path)],
        capsys,
    )
    assert code == 0
    record = json.loads(path.read_text(encoding="utf-8"))[0]
    assert abs(record["fbest"] - 1150.0 / 2116.0) < 1e-3


def write_box(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"bounds": [[-3, 3], [-2, 2], [-1, 1]]}))
    return path


def test_main_target_fitness_short_run(tmp_path, capsys):
    csv_path = tmp_path / "short.csv"
    code, _, _ = run_cli(
        ["--function", "sphere", "--dim", "3", "--iterations", "1000",
         "--target-fitness", "1e-6", "--out-csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert 1 < len(lines) < 1001
    assert float(lines[-1].split(",")[2]) <= 1e-6


def test_main_unwritable_output_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        ["--function", "sphere", "--dim", "2", "--iterations", "2",
         "--out-json", str(tmp_path / "missing-dir" / "x.json")],
        capsys,
    )
    assert code == 1
    assert "error: cannot write" in err


@pytest.mark.parametrize("given", ["flag", "config key"])
@pytest.mark.parametrize("flag", ["--out-json", "--out-csv"])
@pytest.mark.parametrize(
    "fault,reason",
    [
        ("missing parent", errno.ENOENT),
        ("parent is a file", errno.ENOTDIR),
        ("a directory", errno.EISDIR),
        ("parent not writable", errno.EACCES),
        ("empty", errno.ENOENT),
        ("name too long", errno.ENAMETOOLONG),
    ],
)
def test_unwritable_output_fails_before_any_run(tmp_path, monkeypatch, capsys, given, flag, fault,
                                                reason):
    """A path that cannot be opened to write, the empty one included, is
    reported before the first seed runs: exit 1, one stderr line, empty
    stdout, and no file created, the other output's included."""
    (tmp_path / "file").write_text("", encoding="utf-8")
    path = {
        "missing parent": tmp_path / "missing" / "x",
        "parent is a file": tmp_path / "file" / "x",
        "a directory": tmp_path,
        "parent not writable": tmp_path / "x",
        "empty": "",
        "name too long": "x" * 256,  # relative, so that the line stays under main's cut
    }[fault]
    monkeypatch.chdir(tmp_path)
    if fault == "parent not writable":  # chmod does not bind a superuser: open refuses instead
        real_open = open

        def refuse(name, *args, **kwargs):
            if str(name) == str(path):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            return real_open(name, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refuse, raising=False)
    monkeypatch.setattr(cli, "sta_run", lambda *a, **k: pytest.fail("a seed ran"))
    (tmp_path / "ok").mkdir()
    other = tmp_path / "ok" / "other"
    args = ["--function", "griewank", "--dim", "10", "--seed", "1", "--seed", "2",
            "--out-csv" if flag == "--out-json" else "--out-json", str(other)]
    if given == "flag":
        args += [flag, str(path)]
    else:
        cfg = tmp_path / "ok" / "run.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): str(path)}))
        args += ["--config", str(cfg)]
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {path}: {os.strerror(reason)}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(hasattr(os, "geteuid") and os.geteuid() == 0,
                    reason="a superuser may write into a directory that chmod 0o555 guards")
def test_output_in_a_read_only_directory_fails_before_any_run(tmp_path, monkeypatch, capsys):
    """The kernel's own EACCES, not a stand-in for it: exit 1, one line, no seed."""
    guarded = tmp_path / "guarded"
    guarded.mkdir()
    guarded.chmod(0o555)
    monkeypatch.setattr(cli, "sta_run", lambda *a, **k: pytest.fail("a seed ran"))
    path = guarded / "x.json"
    try:
        code, out, err = run_cli(["--function", "sphere", "--dim", "2", "--out-json", str(path)], capsys)
    finally:
        guarded.chmod(0o755)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {path}: {os.strerror(errno.EACCES)}\n"
    assert list(guarded.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out-json", "--out-csv", "--config"])
def test_path_with_a_nul_byte_fails_before_any_run(tmp_path, monkeypatch, capsysbinary, flag):
    """No file has a name with a NUL byte in it: exit 2 before the first seed
    runs, and for an input before any file is read, one short line that names
    the flag and quotes the path without the NUL."""
    cfg = tmp_path / "run.json"
    if flag.startswith("--out"):  # given as a config key, which the config file must be read for
        key = flag[2:].replace("-", "_")
        cfg.write_text(json.dumps({"function": "sphere", "dim": 2, key: "a\u0000b"}))
        argv = ["--config", str(cfg)]
    else:
        cfg.write_text(json.dumps({"function": "x1", "dim": 1}))
        argv = ["--config", str(cfg), flag, "a\0b"]
        monkeypatch.setattr(cli, "_load_config_file", lambda *a: pytest.fail("a file was read"))
    monkeypatch.setattr(cli, "sta_run", lambda *a, **k: pytest.fail("a seed ran"))
    code = main(argv)
    out, err = capsysbinary.readouterr()
    assert (code, out) == (2, b"")
    assert err.startswith(f"error: {flag} ".encode()) and err.count(b"\n") == 1
    assert len(err) < 400 and b"\0" not in err and b"'a\\x00b'" in err
    assert list(tmp_path.iterdir()) == [cfg]


class _DiskFullAfterTenCharacters:
    """Stands in for ``open``: the file is created and partly written, then
    the write fails as on a full disk."""

    def __init__(self, path, *args, **kwargs):
        self.handle = open(path, *args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[:10])
        self.handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fault,reason", [
    ("disk full", errno.ENOSPC),
])
def test_write_error_after_the_runs_leaves_no_output_file(tmp_path, monkeypatch, capsys,
                                                          fault, reason):
    """A write error shows after the runs: exit 1, one error line ending in
    the reason, and the partial file is removed, so neither output file
    remains."""
    json_path = tmp_path / "x.json"
    csv_path = tmp_path / "x.csv"
    monkeypatch.setattr(cli, "open", _DiskFullAfterTenCharacters, raising=False)
    code, out, err = run_cli(
        ["--function", "sphere", "--dim", "2", "--iterations", "2", "--seed", "1",
         "--out-json", str(json_path), "--out-csv", str(csv_path)],
        capsys,
    )
    assert code == 1
    assert out.startswith("seed 1: ")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert err.endswith(f": {os.strerror(reason)}\n")
    assert list(tmp_path.iterdir()) == []  # neither output file remains


def test_failed_write_removes_every_output_it_opened(tmp_path, monkeypatch, capsys):
    """The JSON is written in full, then the disk fills during the CSV's
    write: exit 1, one error line, and the JSON is removed too."""
    json_path, csv_path = tmp_path / "ok.json", tmp_path / "x.csv"
    written = []
    real_open = open

    class DiskFullOnTheCsv(_DiskFullAfterTenCharacters):
        def write(self, text):
            written.append(json.loads(json_path.read_text(encoding="utf-8")))  # whole, closed
            super().write(text)

    def open_output(path, *args, **kwargs):
        return (DiskFullOnTheCsv if str(path) == str(csv_path) else real_open)(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", open_output, raising=False)
    code, out, err = run_cli(
        ["--function", "sphere", "--dim", "2", "--iterations", "2", "--seed", "1",
         "--out-json", str(json_path), "--out-csv", str(csv_path)],
        capsys,
    )
    assert code == 1 and out.startswith("seed 1: ")
    assert err == f"error: cannot write {csv_path}: {os.strerror(errno.ENOSPC)}\n"
    assert [[record["seed"] for record in records] for records in written] == [[1]]
    assert list(tmp_path.iterdir()) == []


def test_failed_open_keeps_a_symlink_and_the_file_it_names(tmp_path, monkeypatch, capsys):
    """The JSON names a symlink to a file that exists, then the CSV cannot be
    opened: exit 1 before any seed runs, and the link and its file remain,
    the file truncated as the shell's > truncates it."""
    link, target = tmp_path / "link.json", tmp_path / "target.txt"
    target.write_text("target\n")
    link.symlink_to(target.name)
    monkeypatch.setattr(cli, "sta_run", lambda *a, **k: pytest.fail("a seed ran"))
    code, _, err = run_cli(
        ["--function", "sphere", "--dim", "2", "--iterations", "2", "--seed", "1",
         "--out-json", str(link), "--out-csv", str(tmp_path / ("x" * 300))],
        capsys,
    )
    assert code == 1 and err.endswith(f": {os.strerror(errno.ENAMETOOLONG)}\n")
    assert sorted(tmp_path.iterdir()) == [link, target]
    assert os.readlink(link) == target.name and target.read_text() == ""


def test_failed_write_never_unlinks_a_device(tmp_path, monkeypatch, capsys):
    """An output written to a device is left to it: a failed write that
    follows it removes nothing."""
    removed = []
    monkeypatch.setattr(cli.os, "remove", removed.append)  # no real device node is unlinked
    code, _, err = run_cli(
        ["--function", "sphere", "--dim", "2", "--iterations", "2", "--seed", "1",
         "--out-json", os.devnull, "--out-csv", str(tmp_path / ("x" * 300))],
        capsys,
    )
    assert code == 1 and err.endswith(f": {os.strerror(errno.ENAMETOOLONG)}\n")
    assert removed == []


def test_failed_write_keeps_a_file_it_could_not_open(tmp_path, monkeypatch, capsys):
    """An output that open refuses was never opened, so it is left as it was;
    the one written before it is removed."""
    json_path, csv_path = tmp_path / "ok.json", tmp_path / "kept.csv"
    csv_path.write_text("kept\n")
    real_open = open

    def refuse_csv(path, *args, **kwargs):
        if str(path) == str(csv_path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refuse_csv, raising=False)
    code, _, err = run_cli(
        ["--function", "sphere", "--dim", "2", "--iterations", "2", "--seed", "1",
         "--out-json", str(json_path), "--out-csv", str(csv_path)],
        capsys,
    )
    assert code == 1
    assert err == f"error: cannot write {csv_path}: {os.strerror(errno.EACCES)}\n"
    assert list(tmp_path.iterdir()) == [csv_path] and csv_path.read_text() == "kept\n"


@pytest.mark.parametrize("spelling", ["dotted", "hard link"])
@pytest.mark.parametrize("given", ["flag", "config key"])
@pytest.mark.parametrize("output", ["--out-json", "--out-csv"])
def test_output_may_not_overwrite_an_input(tmp_path, monkeypatch, capsys, output, given, spelling):
    """An output that names the config file, under any spelling of its path
    or through a hard link to it, is one error line, exit 2, before any seed
    runs, and the config file is left as it was."""
    cfg = tmp_path / "run.json"
    links = [tmp_path / "hard"] if spelling == "hard link" else []
    target = str(links[0]) if links else f"{tmp_path}/./{cfg.name}"  # not as the input spells it
    doc = {"function": "x1^2+x2^2", "dim": 2, "bounds": [[-1, 1], [-1, 1]]}
    if given == "config key":
        doc[output[2:].replace("-", "_")] = target
    cfg.write_text(json.dumps(doc))
    for link in links:
        os.link(cfg, link)
    before = cfg.read_bytes()
    args = ["--config", str(cfg)]
    args += [output, target] if given == "flag" else []
    monkeypatch.setattr(cli, "sta_run", lambda *a, **k: pytest.fail("a seed ran"))
    with pytest.raises(CliError, match=f"^--config and {output} name the same file$"):
        parse_config(args)
    assert run_cli(args, capsys) == (2, "", f"error: --config and {output} name the same file\n")
    assert cfg.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == sorted([cfg, *links])


def test_run_that_aborts_is_one_line_and_writes_no_output(tmp_path, capsys):
    json_path = tmp_path / "J"
    code, out, err = run_cli(
        ["--function", "sqrt(-1-x1*x1)", "--dim", "1", "--bounds", "-1,1",
         "--seed", "1", "--seed", "2", "--out-json", str(json_path)],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err == ("error: run aborted after 0 completed iteration(s): "
                   "objective is non-finite at every initial point\n")
    assert not json_path.exists()


def test_run_that_aborts_keeps_an_output_that_existed_and_removes_a_new_one(tmp_path, capsys):
    """Both outputs are opened before the first seed; the one that existed
    stays, truncated, and the one the run created is removed."""
    json_path, csv_path = tmp_path / "old.json", tmp_path / "new.csv"
    json_path.write_text("old\n")
    code, out, err = run_cli(
        ["--function", "sqrt(-1-x1*x1)", "--dim", "1", "--bounds", "-1,1",
         "--out-json", str(json_path), "--out-csv", str(csv_path)],
        capsys,
    )
    assert (code, out) == (1, "") and err.startswith("error: run aborted ")
    assert list(tmp_path.iterdir()) == [json_path] and json_path.read_text() == ""


def test_interrupted_run_removes_the_outputs_it_created(tmp_path, monkeypatch, capsys):
    json_path, csv_path = tmp_path / "x.json", tmp_path / "x.csv"

    def interrupt(*args, **kwargs):
        assert json_path.exists() and csv_path.exists(), "opened before the first seed"
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "sta_run", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["--function", "sphere", "--dim", "2",
              "--out-json", str(json_path), "--out-csv", str(csv_path)])
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []


def test_main_csv_uses_lf_and_full_precision(tmp_path, capsys):
    csv_path = tmp_path / "prec.csv"
    code, _, _ = run_cli(
        ["--function", "sphere", "--dim", "2", "--iterations", "10",
         "--seed", "8", "--out-csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    raw = csv_path.read_bytes()
    assert b"\r" not in raw, "LF line endings only"
    text = raw.decode("utf-8")
    values = [float(line.split(",")[2]) for line in text.splitlines()[1:]]
    from stapy import SearchSpace, StaParams, sphere, sta_run

    result = sta_run(sphere, SearchSpace.uniform(2, -100, 100),
                     StaParams(iterations=10), rng=8)
    assert values == list(result.history), "repr round-trip must be lossless"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_loses_only_the_printed_lines(tmp_path, unbuffered):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the process writes anything
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stapy", "--function", "griewank", "--dim", "5",
             "--iterations", "20", "--seed", "1", "--seed", "2",
             "--out-json", "b.json", "--out-csv", "b.csv"],
            stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path, env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b"", "no traceback, no 'Exception ignored' at shutdown"
    records = json.loads((tmp_path / "b.json").read_text(encoding="utf-8"))
    assert [r["seed"] for r in records] == [1, 2]
    assert len((tmp_path / "b.csv").read_text(encoding="utf-8").splitlines()) == 1 + 2 * 20
