"""Command-line front end: configure runs, batch over seeds, emit JSON/CSV.

Precedence for every setting is CLI flag > config file (``--config``, JSON)
> built-in default.  The ``params`` object written into each JSON summary
record is itself a valid ``--config`` document, so any recorded run can be
replayed verbatim with its record's seed as ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import asdict, fields
from typing import NoReturn, Optional, Sequence

import numpy as np

from .benchmarks import get_benchmark, list_benchmarks
from .core import SearchSpace, StaParams, _count, _quoted, _real
from .engine import RunAborted, sta_run
from .expressions import ExpressionError, parse_expression


class CliError(Exception):
    """A configuration problem, argparse's own included; ``main`` writes its
    message as one ``error:`` line and exits 2."""


_PARAM_KEYS = tuple(f.name for f in fields(StaParams))


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
    parser.add_argument("--config", help="JSON config file; CLI flags override it")
    parser.add_argument("--iterations", type=int, help="outer-loop budget (default %(default)s)")
    parser.add_argument("--se", type=int, help="samples per operator application (default %(default)s)")
    parser.add_argument("--alpha-max", type=float, help="initial rotation radius (default %(default)s)")
    parser.add_argument("--alpha-min", type=float, help="radius reset threshold (default %(default)s)")
    parser.add_argument("--beta", type=float, help="translation step cap (default %(default)s)")
    parser.add_argument("--gamma", type=float, help="expansion scale (default %(default)s)")
    parser.add_argument("--delta", type=float, help="axis perturbation scale (default %(default)s)")
    parser.add_argument("--fc", type=float, help="rotation radius decay base (default %(default)s)")
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

    def error(message: str) -> NoReturn:  # argparse's own: main writes it, with no usage block
        raise CliError(message)
    parser.error = error
    # A token that argparse's option matching does not claim is a flag's value only if it
    # looks like a negative number; widen that to every token, as in "--function -x1^2".
    # Set last: a flag added after it would match it and turn the rule off.
    parser._negative_number_matcher = re.compile("-")
    parser.set_defaults(**asdict(StaParams()))
    return parser


# Each flag's setting but --config's own and the seeds is a config key of the same name.
_CONFIG_KEYS = tuple(a.dest for a in build_parser()._actions if a.dest not in ("help", "config", "seed"))


def _load_config_file(path: str) -> dict:
    # Reads UTF-8, with or without a byte order mark, and returns the file's
    # settings without its null values, which count as absent.
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            data = json.load(handle)
    except (OSError, UnicodeDecodeError) as err:  # an OSError's strerror omits the path
        reason = err.strerror if isinstance(err, OSError) else err
        raise CliError(f"cannot read config file {path}: {reason}") from err
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


def _search_space(raw, dim: int, where: str) -> SearchSpace:
    # --bounds's "LO,HI" (or "LO HI") text or a [lo, hi] pair, read once for every coordinate,
    # or [[lo, hi], ...], one row per coordinate, each row as its "LO,HI"; SearchSpace judges the box.
    if isinstance(raw, list) and len(raw) == 2 and not any(isinstance(v, list) for v in raw):
        raw = "{},{}".format(*raw)
    if not isinstance(raw, str):
        if not isinstance(raw, list) or not all(isinstance(r, list) and len(r) == 2 for r in raw):
            raise CliError(f'malformed bounds {where}: expected "LO,HI", [lo, hi] or [[lo, hi], ...]')
        if len(raw) != dim:
            raise CliError(f"dim mismatch: {len(raw)} bounds row(s) {where}, expected {dim}")
    pairs = []
    for k, row in enumerate([raw] if isinstance(raw, str) else ["{},{}".format(*r) for r in raw]):
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


def _without_nul(paths: dict[str, Optional[str]]) -> None:
    for flag, path in paths.items():
        if path and "\0" in path:  # no file has such a name; _file_key and open raise ValueError
            raise CliError(f"{flag} must name a path without a NUL byte, got {_quoted(path)}")


def _file_key(path: str):  # an existing file by device and inode, which a hard link shares
    with suppress(OSError):
        stat = os.stat(path)
        return stat.st_dev, stat.st_ino
    return os.path.realpath(path)


def parse_config(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Resolve flags, config file, and defaults into argparse's namespace,
    with ``objective``, ``space``, ``params`` and ``seeds`` resolved.

    argparse gets the tokens unchanged, and ``--`` is never a flag's value,
    not even as ``--flag=--``.  Every config-file value is the default of the
    flag it stands for, read like that flag's value when the flag is not
    given: argparse types a string with the flag's ``type``, so any other
    value goes in as its JSON text, unless its reader takes JSON, as
    ``_search_space`` takes a ``bounds`` pair ``[lo, hi]`` for every
    coordinate, or one such row per coordinate, beside ``--bounds``'s text.
    Seeds come from ``--seed`` alone.  No path may hold a
    NUL byte, judged for ``--config`` before it is read, and no output may
    name the config file, hard links included; ``run_command`` opens the
    outputs.
    Raises CliError for a configuration problem, argparse's included; only
    ``--help`` exits.
    """
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # argparse's own message quotes every extra token in full
        parser.error(f"{len(extra)} unrecognized argument(s), the first {_quoted(extra[0])}")
    for action in parser._actions:  # --flag=--: argparse stores "--", or [] before 3.13 (in --seed's list)
        value = getattr(args, action.dest, None)
        if value in ("--", []) or isinstance(value, list) and [] in value:
            parser.error(f"argument {action.option_strings[0]}: expected one argument")
    _without_nul({"--config": args.config})
    where = "in config file" if args.bounds is None else "for --bounds"  # from the flags: never compare texts
    file_cfg = _load_config_file(args.config) if args.config is not None else {}
    if file_cfg:
        parser.set_defaults(
            **{
                key: value if isinstance(value, str) or key == "bounds" else json.dumps(value)
                for key, value in file_cfg.items()
            }
        )
        try:
            args = parser.parse_args(argv)
        except CliError as err:
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

        if args.bounds is not None:
            space = _search_space(args.bounds, dim, where)
        elif benchmark is not None:
            space = benchmark.default_box(dim)
        else:
            raise CliError("--bounds or a config file's bounds is required for expression objectives")
    except MemoryError:
        raise CliError(f"--dim is too large for its box to fit in memory, got {_quoted(dim)}") from None

    try:
        params = StaParams(**{k: getattr(args, k) for k in _PARAM_KEYS})
        seeds = tuple(_count(s, "seed", 0, 2**64) for s in args.seed or [0])
        if args.target_fitness is not None:
            args.target_fitness = _real(args.target_fitness, "target_fitness")
    except ValueError as err:
        raise CliError(str(err)) from err

    outputs = {"--out-json": args.out_json, "--out-csv": args.out_csv}
    _without_nul(outputs)
    first: dict = {}  # each file's first flag; no output may share one
    for flag, path in {"--config": args.config, **outputs}.items():
        other = first.setdefault(_file_key(path), flag) if path else flag  # "" names no file
        if other != flag and flag in outputs:
            raise CliError(f"{other} and {flag} name the same file")

    args.dim, args.objective, args.space, args.params, args.seeds = dim, objective, space, params, seeds
    return args


def _params_document(config: argparse.Namespace) -> dict:
    space = config.space
    doc = {"function": config.function, "dim": space.dim}
    doc["bounds"] = np.column_stack((space.lower, space.upper)).tolist()
    doc.update(asdict(config.params))
    doc["target_fitness"] = config.target_fitness
    return doc


@contextmanager
def _writing(path: str):
    try:
        yield
    except OSError as err:  # its strerror omits the path
        raise OSError(f"cannot write {path}: {err.strerror}") from err


def run_command(config: argparse.Namespace) -> int:
    """Open the outputs, JSON then CSV, run each seed and print its summary,
    then write the outputs; return 0, or raise RunAborted or OSError.  An
    output that exists is truncated when opened, as the shell's ``>`` does;
    whatever ends the command early removes only the outputs it created."""
    paths = [path for path in (config.out_json, config.out_csv) if path is not None]
    created = []
    try:
        with ExitStack() as stack:
            handles = []
            for path in paths:
                new = not os.path.lexists(path)  # created: no path, not even a link, before its open
                with _writing(path):
                    handles.append(stack.enter_context(open(path, "w", encoding="utf-8", newline="\n")))
                if new:
                    created.append(path)
            records = []
            for seed in config.seeds:
                start = time.perf_counter()
                result = sta_run(config.objective, config.space, config.params, rng=seed,
                                 target_fitness=config.target_fitness)
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
            texts = []
            if config.out_json is not None:
                params_doc = _params_document(config)
                summary = [
                    {
                        "seed": seed,
                        "best": result.best.tolist(),
                        "fbest": result.fbest,
                        "evaluations": result.evaluations,
                        "runtime_ms": runtime_ms,
                        "params": params_doc,
                    }
                    for seed, result, runtime_ms in records
                ]
                texts.append(json.dumps(summary, indent=2) + "\n")
            if config.out_csv is not None:
                lines = ["seed,iteration,fbest"] + [
                    f"{seed},{iteration},{value!r}"
                    for seed, result, _ in records
                    for iteration, value in enumerate(result.history.tolist(), start=1)
                ]
                texts.append("\n".join(lines) + "\n")
            for path, handle, text in zip(paths, handles, texts):
                with _writing(path), handle:
                    handle.write(text)
    except BaseException:  # KeyboardInterrupt included
        for path in created:
            with suppress(OSError):
                os.remove(path)
        raise
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run_command(parse_config(argv))
    except (CliError, RunAborted, OSError) as err:  # every error: line
        line = str(err).replace("\n", " ")  # one line; past 300 characters, its first and last 150
        line = line if len(line) <= 300 else f"{line[:150]}...{line[-150:]}"
        print(f"error: {line}", file=sys.stderr)
        return 2 if isinstance(err, CliError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
