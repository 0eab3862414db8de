"""Command-line front end: configure runs, batch over seeds, emit JSON/CSV.

Precedence for every setting is CLI flag > config file (``--config``, JSON)
> built-in default.  The ``params`` object written into each JSON summary
record is itself a valid ``--config`` document, so any recorded run can be
replayed verbatim.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .benchmarks import get_benchmark, list_benchmarks
from .core import ObjectiveFn, SearchSpace, StaParams
from .engine import RunAborted, sta_run
from .expressions import ExpressionError, parse_expression


class CliError(ValueError):
    """Configuration problem with a one-line, actionable message."""


@dataclass(frozen=True)
class RunConfig:
    function: str
    dim: int
    objective: ObjectiveFn
    bounds: tuple[tuple[float, float], ...]
    params: StaParams
    seeds: tuple[int, ...]
    target_fitness: Optional[float]
    out_json: Optional[str]
    out_csv: Optional[str]

    def search_space(self) -> SearchSpace:
        lower = np.array([b[0] for b in self.bounds])
        upper = np.array([b[1] for b in self.bounds])
        return SearchSpace(lower, upper)


_PARAM_KEYS = ("alpha_max", "alpha_min", "beta", "gamma", "delta", "se", "fc", "iterations")
_CONFIG_KEYS = ("function", "dim", "bounds", "seeds", "target_fitness", "out_json", "out_csv") + _PARAM_KEYS


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
    return parser


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    # argparse rejects "--bounds -5.12,5.12" (comma pairs are not recognized
    # as negative numbers); splice such values into --flag=value form.
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--bounds" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--bounds={argv[i + 1]}")
            i += 2
            continue
        out.append(arg)
        i += 1
    return out


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise CliError(f"cannot read config file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise CliError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise CliError(
                f"unknown config key {key!r} (known: {', '.join(_CONFIG_KEYS)})"
            )
    return data


def _parse_bound_pair(text: str, where: str) -> tuple[float, float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 2:
        raise CliError(f"malformed bounds {where}: expected LO,HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise CliError(f"malformed bounds {where}: {text!r} is not a number pair") from None
    if not lo < hi:
        raise CliError(f"malformed bounds {where}: need LO < HI, got {lo} >= {hi}")
    return lo, hi


def _read_bounds_file(path: str, dim: int) -> list[tuple[float, float]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        raise CliError(f"cannot read bounds file {path}: {err}") from err
    pairs = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pairs.append(_parse_bound_pair(line, f"in {path} line {lineno}"))
    if len(pairs) != dim:
        raise CliError(
            f"dim mismatch: bounds file {path} has {len(pairs)} coordinate "
            f"line(s), expected {dim}"
        )
    return pairs


def _config_bounds(raw, dim: int) -> list[tuple[float, float]]:
    # Accept [lo, hi] (uniform) or [[lo, hi], ...] (per coordinate).
    if (
        isinstance(raw, (list, tuple))
        and len(raw) == 2
        and all(isinstance(v, (int, float)) for v in raw)
    ):
        pair = _parse_bound_pair(f"{raw[0]},{raw[1]}", "in config file")
        return [pair] * dim
    if isinstance(raw, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and len(row) == 2 for row in raw
    ):
        pairs = [_parse_bound_pair(f"{row[0]},{row[1]}", "in config file") for row in raw]
        if len(pairs) != dim:
            raise CliError(
                f"dim mismatch: config file bounds list has {len(pairs)} "
                f"entries, expected {dim}"
            )
        return pairs
    raise CliError("malformed bounds in config file: expected [lo, hi] or [[lo, hi], ...]")


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Resolve flags, config file, and defaults into a validated RunConfig."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_normalize_argv(argv))
    file_cfg = _load_config_file(args.config) if args.config else {}

    def merged(flag_value, key, default=None):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    function = merged(args.function, "function")
    if function is None:
        raise CliError("--function is required (benchmark name or expression)")
    function = str(function)

    benchmark = None
    try:
        benchmark = get_benchmark(function)
    except ValueError:
        pass

    dim = merged(args.dim, "dim")
    if dim is None and benchmark is not None and benchmark.fixed_dim is not None:
        dim = benchmark.fixed_dim
    if dim is None:
        raise CliError("--dim is required")
    dim = int(dim)
    if dim < 1:
        raise CliError(f"--dim must be a positive integer, got {dim}")
    if benchmark is not None and benchmark.fixed_dim is not None and dim != benchmark.fixed_dim:
        raise CliError(
            f"dim mismatch: function {benchmark.name!r} is "
            f"{benchmark.fixed_dim}-dimensional, got --dim {dim}"
        )

    if benchmark is not None:
        objective = benchmark.objective
    else:
        try:
            objective = parse_expression(function, dim)
        except ExpressionError as err:
            raise CliError(
                f"unknown function {function!r}: not a registered benchmark "
                f"({', '.join(list_benchmarks())}) and not a valid expression ({err})"
            ) from err

    bounds_flag = merged(args.bounds, None)
    bounds_file = merged(args.bounds_file, None)
    bounds_cfg = file_cfg.get("bounds")
    if bounds_flag is not None and bounds_file is not None:
        raise CliError("--bounds and --bounds-file are mutually exclusive")
    if bounds_flag is not None:
        pairs = [_parse_bound_pair(bounds_flag, "for --bounds")] * dim
    elif bounds_file is not None:
        pairs = _read_bounds_file(bounds_file, dim)
    elif bounds_cfg is not None:
        pairs = _config_bounds(bounds_cfg, dim)
    elif benchmark is not None:
        box = benchmark.default_box(dim)
        pairs = list(zip(box.lower.tolist(), box.upper.tolist()))
    else:
        raise CliError("--bounds or --bounds-file is required for expression objectives")

    overrides = {}
    for key in _PARAM_KEYS:
        value = merged(getattr(args, key), key)
        if value is not None:
            overrides[key] = value
    try:
        params = StaParams(**overrides)
    except (TypeError, ValueError) as err:
        raise CliError(str(err)) from err

    seeds = args.seed if args.seed is not None else file_cfg.get("seeds")
    if seeds is None:
        seeds = [0]
    try:
        seeds = tuple(int(s) for s in seeds)
    except (TypeError, ValueError):
        raise CliError(f"seeds must be integers, got {seeds!r}") from None
    for s in seeds:
        if not 0 <= s < 2**64:
            raise CliError(f"seed {s} is outside the unsigned 64-bit range")

    target = merged(args.target_fitness, "target_fitness")
    config = RunConfig(
        function=function,
        dim=dim,
        objective=objective,
        bounds=tuple((float(lo), float(hi)) for lo, hi in pairs),
        params=params,
        seeds=seeds,
        target_fitness=None if target is None else float(target),
        out_json=merged(args.out_json, "out_json"),
        out_csv=merged(args.out_csv, "out_csv"),
    )
    try:
        config.search_space()
    except ValueError as err:
        raise CliError(f"malformed bounds: {err}") from err
    return config


def _params_document(config: RunConfig) -> dict:
    doc = {"function": config.function, "dim": config.dim}
    doc["bounds"] = [[lo, hi] for lo, hi in config.bounds]
    for key in _PARAM_KEYS:
        doc[key] = getattr(config.params, key)
    doc["target_fitness"] = config.target_fitness
    return doc


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def run_command(config: RunConfig) -> int:
    """Execute one run per seed, print summaries, write JSON/CSV outputs."""
    space = config.search_space()
    params_doc = _params_document(config)

    records = []
    for seed in config.seeds:
        start = time.perf_counter()
        result = sta_run(
            config.objective,
            space,
            config.params,
            rng=seed,
            target_fitness=config.target_fitness,
        )
        runtime_ms = (time.perf_counter() - start) * 1e3
        records.append((seed, result, runtime_ms))
        best_str = "[" + ", ".join(f"{v:.8g}" for v in result.best) + "]"
        print(
            f"seed {seed}: fbest={result.fbest!r} "
            f"evaluations={result.evaluations} runtime={runtime_ms:.1f} ms"
        )
        print(f"  best = {best_str}")

    outputs = []
    if config.out_json:
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
            _write_text(path, text)
        except OSError as err:
            print(f"error: cannot write {path}: {err}", file=sys.stderr)
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
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        return run_command(config)
    except RunAborted as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
