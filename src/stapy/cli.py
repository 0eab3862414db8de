"""Command-line front end: configure runs, batch over seeds, emit JSON/CSV.

Precedence for every setting is CLI flag > config file (``--config``, JSON)
> built-in default.  The ``params`` object written into each JSON summary
record is itself a valid ``--config`` document, so any recorded run can be
replayed verbatim.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .benchmarks import get_benchmark, list_benchmarks
from .core import ObjectiveFn, RandomSource, SearchSpace, StaParams, _quoted, _real
from .engine import RunAborted, sta_run
from .expressions import ExpressionError, parse_expression


class CliError(ValueError):
    """Configuration problem with a one-line, actionable message."""


@dataclass(frozen=True)
class RunConfig:
    function: str
    objective: ObjectiveFn
    space: SearchSpace
    params: StaParams
    seeds: tuple[int, ...]
    target_fitness: Optional[float]
    out_json: Optional[str]
    out_csv: Optional[str]


_PARAM_KEYS = tuple(f.name for f in fields(StaParams))
_CONFIG_KEYS = ("function", "dim", "bounds", "seeds", "target_fitness", "out_json", "out_csv") + _PARAM_KEYS


def _line(message: str) -> str:  # one line; past 300 characters, its first and last 150
    message = message.replace("\n", " ")
    return message if len(message) <= 300 else f"{message[:150]}...{message[-150:]}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stapy",
        description="Minimize a benchmark or expression objective over a box "
        "with the continuous state transition algorithm.",
    )
    parser.add_argument(
        "--function",
        help="registered benchmark name (%s) or an expression in x1..xn"
        % ", ".join(list_benchmarks()),
    )
    parser.add_argument("--dim", type=int, help="number of decision variables")
    parser.add_argument(
        "--bounds",
        help="uniform per-coordinate bounds as LO,HI (e.g. --bounds -5.12,5.12)",
    )
    parser.add_argument(
        "--bounds-file",
        help="path to a text file with one 'LO,HI' (or 'LO HI') line per coordinate",
    )
    parser.add_argument("--config", help="JSON config file; CLI flags override it")
    parser.add_argument("--iterations", type=int, help="outer-loop budget (default 1000)")
    parser.add_argument("--se", type=int, help="samples per operator application (default 30)")
    parser.add_argument("--alpha-max", type=float, help="initial rotation radius (default 1)")
    parser.add_argument("--alpha-min", type=float, help="radius reset threshold (default 1e-4)")
    parser.add_argument("--beta", type=float, help="translation step cap (default 1)")
    parser.add_argument("--gamma", type=float, help="expansion scale (default 1)")
    parser.add_argument("--delta", type=float, help="axis perturbation scale (default 1)")
    parser.add_argument("--fc", type=float, help="rotation radius decay base (default 2)")
    parser.add_argument(
        "--seed",
        type=int,
        action="append",
        help="random seed; repeat the flag to batch several runs (default 0)",
    )
    parser.add_argument(
        "--target-fitness",
        type=float,
        help="optional early stop once the incumbent fitness is <= this value",
    )
    parser.add_argument("--out-json", help="write a JSON summary array to this path")
    parser.add_argument("--out-csv", help="write a seed,iteration,fbest history CSV to this path")
    parser.error = lambda message: parser.exit(2, f"error: {_line(message)}\n")  # no usage
    return parser


def _normalize_argv(parser: argparse.ArgumentParser, argv: Sequence[str]) -> list[str]:
    # argparse reads a token that starts with "-" as an option unless it is a
    # plain negative number, so "--bounds -5.12,5.12", "--function -x1^2" or
    # "--target-fitness -1e-3" would lack a value; join such a value to its
    # flag as --flag=value unless it is an option itself.
    options = parser._option_string_actions
    out: list[str] = []
    for arg in argv:
        takes_value = out and out[-1] in options and options[out[-1]].nargs != 0
        if takes_value and arg.startswith("-") and arg.split("=", 1)[0] not in options:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _load_config_file(path: str) -> dict:
    # Returns the file's settings without its null values, which count as absent.
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise CliError(f"cannot read config file {path}: {err.strerror}") from err
    except (ValueError, RecursionError) as err:
        raise CliError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise CliError(
                f"unknown config key {key!r} (known: {', '.join(_CONFIG_KEYS)})"
            )
    return {key: value for key, value in data.items() if value is not None}


def _read_bounds_file(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except (OSError, UnicodeDecodeError) as err:  # an OSError's strerror omits the path
        raise CliError(f"cannot read bounds file {path}: {getattr(err, 'strerror', err)}") from err
    return [line for line in lines if line and not line.startswith("#")]


def _config_rows(raw) -> Union[str, list[str]]:
    # Accept [lo, hi] (uniform, one row for every coordinate) or [[lo, hi], ...].
    if isinstance(raw, list) and len(raw) == 2 and all(isinstance(v, (int, float)) for v in raw):
        return "{},{}".format(*raw)
    if not isinstance(raw, list) or not all(isinstance(r, list) and len(r) == 2 for r in raw):
        raise CliError("malformed bounds in config file: expected [lo, hi] or [[lo, hi], ...]")
    return [f"{lo},{hi}" for lo, hi in raw]


def _search_space(rows: Union[str, list[str]], dim: int, where: str) -> SearchSpace:
    # One "LO,HI" (or "LO HI") row per coordinate, or one read once for all; SearchSpace judges the box.
    if not isinstance(rows, str) and len(rows) != dim:
        raise CliError(f"dim mismatch: {len(rows)} bounds row(s) {where}, expected {dim}")
    pairs = []
    for k, row in enumerate([rows] if isinstance(rows, str) else rows):
        try:
            lo, hi = map(float, row.replace(",", " ").split())
        except ValueError:
            raise CliError(
                f"malformed bounds {where}: coordinate {k}: expected LO,HI, got {_quoted(row)}"
            ) from None
        pairs.append((lo, hi))
    try:
        return SearchSpace(*np.broadcast_to(pairs, (dim, 2)).T)
    except ValueError as err:
        raise CliError(f"malformed bounds {where}: {err}") from err


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Resolve flags, config file, and defaults into a validated RunConfig.

    A config-file value is read exactly like the flag it stands for: it
    becomes that flag's default as a string (its JSON text unless it is a
    string), which argparse types with the flag's ``type`` when the flag is
    not given.  A ``seeds`` list becomes ``--seed`` arguments.
    """
    parser = build_parser()
    argv = _normalize_argv(parser, sys.argv[1:] if argv is None else argv)
    args, extra = parser.parse_known_args(argv)
    if extra:  # argparse's own message quotes every extra token in full
        parser.error(f"{len(extra)} unrecognized argument(s), the first {_quoted(extra[0])}")
    file_cfg = _load_config_file(args.config) if args.config else {}
    if file_cfg:
        parser.set_defaults(
            **{
                key: value if isinstance(value, str) else json.dumps(value)
                for key, value in file_cfg.items()
                if key not in ("bounds", "seeds")
            }
        )
        seeds = file_cfg.get("seeds")
        if seeds is not None and args.seed is None:
            if not isinstance(seeds, list) or not seeds:
                got = "an empty list" if isinstance(seeds, list) else _quoted(seeds)
                raise CliError(
                    f"config file {args.config}: seeds must be a non-empty list of integers, got {got}"
                )
            argv = [f"--seed={json.dumps(s)}" for s in seeds] + argv
        parser.exit_on_error = False
        try:
            args = parser.parse_args(argv)
        except argparse.ArgumentError as err:
            raise CliError(f"config file {args.config}: {err}") from None

    function = args.function
    if function is None:
        raise CliError("--function is required (benchmark name or expression)")

    benchmark = None
    try:
        benchmark = get_benchmark(function)
    except ValueError:
        pass

    dim = args.dim
    if dim is None and benchmark is not None:
        dim = benchmark.fixed_dim
    if dim is None:
        raise CliError("--dim is required")
    if not 1 <= dim <= np.iinfo(np.intp).max // 8:  # numpy indexes no more float64 bounds
        raise CliError(f"--dim must be a positive integer whose box fits in memory, got {_quoted(dim)}")
    if benchmark is not None and benchmark.fixed_dim not in (None, dim):
        raise CliError(
            f"dim mismatch: benchmark {benchmark.name!r} is fixed to dim {benchmark.fixed_dim}, got {dim}"
        )

    try:  # the box takes memory in proportion to dim
        try:
            objective = benchmark.objective if benchmark is not None else parse_expression(function, dim)
        except ExpressionError as err:
            start = max(0, min(err.position - 40, len(function) - 80))
            shown = ("..." if start else "") + function[start:start + 80]
            shown += "..." if start + 80 < len(function) else ""
            raise CliError(
                f"unknown function {shown!r}: not a registered benchmark "
                f"({', '.join(list_benchmarks())}) and not a valid expression ({err})"
            ) from err

        if args.bounds is not None and args.bounds_file is not None:
            raise CliError("--bounds and --bounds-file are mutually exclusive")
        if args.bounds is not None:
            space = _search_space(args.bounds, dim, "for --bounds")
        elif args.bounds_file is not None:
            space = _search_space(_read_bounds_file(args.bounds_file), dim, f"in {args.bounds_file}")
        elif "bounds" in file_cfg:
            space = _search_space(_config_rows(file_cfg["bounds"]), dim, "in config file")
        elif benchmark is not None:
            space = benchmark.default_box(dim)
        else:
            raise CliError("--bounds or --bounds-file is required for expression objectives")
    except MemoryError:
        raise CliError(f"--dim is too large for its box to fit in memory, got {_quoted(dim)}") from None

    overrides = {k: v for k, v in vars(args).items() if k in _PARAM_KEYS and v is not None}
    try:
        params = StaParams(**overrides)
        seeds = tuple(RandomSource(s).seed for s in args.seed or [0])
        if args.target_fitness is not None:
            args.target_fitness = _real(args.target_fitness, "target_fitness")
    except ValueError as err:
        raise CliError(str(err)) from err

    outputs = [os.path.realpath(path) for path in (args.out_json, args.out_csv) if path]
    if len(set(outputs)) < len(outputs):
        raise CliError("--out-json and --out-csv name the same file")

    return RunConfig(
        function=function,
        objective=objective,
        space=space,
        params=params,
        seeds=seeds,
        target_fitness=args.target_fitness,
        out_json=args.out_json,
        out_csv=args.out_csv,
    )


def _params_document(config: RunConfig) -> dict:
    space = config.space
    doc = {"function": config.function, "dim": space.dim}
    doc["bounds"] = np.column_stack((space.lower, space.upper)).tolist()
    doc.update(asdict(config.params))
    doc["target_fitness"] = config.target_fitness
    return doc


def _unwritable(path: str) -> Optional[str]:
    """Why opening ``path`` to write must fail, found without creating it, or None;
    ``os.access`` asks with the real ids, and any refusal reads EACCES (even EROFS)."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return os.strerror(errno.EACCES)


def run_command(config: RunConfig) -> int:
    """Check the output paths, execute one run per seed, print summaries, write JSON/CSV."""
    for path in filter(None, (config.out_json, config.out_csv)):
        if reason := _unwritable(path):
            print(f"error: {_line(f'cannot write {path}: {reason}')}", file=sys.stderr)
            return 1

    records = []
    for seed in config.seeds:
        start = time.perf_counter()
        result = sta_run(
            config.objective,
            config.space,
            config.params,
            rng=seed,
            target_fitness=config.target_fitness,
        )
        runtime_ms = (time.perf_counter() - start) * 1e3
        records.append((seed, result, runtime_ms))
        best_str = "[" + ", ".join(f"{v:.8g}" for v in result.best) + "]"
        try:
            print(f"seed {seed}: fbest={result.fbest!r} evaluations={result.evaluations} "
                  f"runtime={runtime_ms:.1f} ms\n  best = {best_str}", flush=True)
        except BrokenPipeError:
            # A closed stdout costs only the printed lines.  Point it at the
            # null device so that later prints and the flush at exit pass.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)

    outputs = []
    if config.out_json:
        params_doc = _params_document(config)
        summary = [
            {
                "seed": seed,
                "best": [float(v) for v in result.best],
                "fbest": float(result.fbest),
                "evaluations": int(result.evaluations),
                "runtime_ms": runtime_ms,
                "params": params_doc,
            }
            for seed, result, runtime_ms in records
        ]
        outputs.append((config.out_json, json.dumps(summary, indent=2) + "\n"))
    if config.out_csv:
        lines = ["seed,iteration,fbest"]
        for seed, result, _ in records:
            lines.extend(
                f"{seed},{iteration},{float(value)!r}"
                for iteration, value in enumerate(result.history, start=1)
            )
        outputs.append((config.out_csv, "\n".join(lines) + "\n"))

    for path, text in outputs:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as err:
            print(f"error: {_line(f'cannot write {path}: {err.strerror}')}", file=sys.stderr)
            try:
                os.remove(path)
            except OSError:
                pass
            return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_config(argv)
    except CliError as err:
        print(f"error: {_line(str(err))}", file=sys.stderr)
        return 2
    try:
        return run_command(config)
    except RunAborted as err:
        print(f"error: {_line(str(err))}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
