"""One benchmark process: runs or verifies a workload and prints JSON.

Started by ``run.py``, one process per step, with single-threaded BLAS::

    worker.py setup      --workload W --seed S --count K   # ready, then exit
    worker.py lib        --workload W --seed S --count K [--spans PATH]
    worker.py verify-cli --workload W --seed S --count K --dir DIR
    worker.py trace-cli  --workload W --seed S --count K --dir DIR --spans PATH

The last line of standard output is a JSON object with one record per
instance (evaluations, iterations, wall time, fbest, success, correctness
problems and a digest of the result) and, for traced steps, the per-layer
metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    # Import the benchmark as a package and stapy from this checkout only.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

import argparse
import contextlib
import json
import time

import numpy as np

from perfbench import checks, clock, tracing, workloads


def _import_stapy():
    import stapy

    if not Path(stapy.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: stapy imported from {stapy.__file__}, not {ROOT / 'src'}")
    return stapy


def _space(stapy, w):
    return stapy.SearchSpace.uniform(w.dim, -w.half_width, w.half_width)


def _f_at(f, w, best) -> float:
    # Evaluate the way the run did: as a one-row batch or as a single point.
    best = np.asarray(best, dtype=float)
    return float(f(best[None, :])[0]) if w.batch else float(f(best))


def _record(problem: int, seed: int, result, wall: float, success: bool, problems: list[str],
            probe_s=None) -> dict:
    """One instance's outcome; ``result`` is a ``RunResult`` or None."""
    return {
        "problem": problem,
        "seed": seed,
        "evaluations": int(result.evaluations) if result else 0,
        "iterations": int(result.history.size) if result else 0,
        "wall_s": wall,
        "probe_s": probe_s,
        "fbest": float(result.fbest) if result else None,
        "success": bool(success),
        "problems": problems,
        "digest": checks.run_digest(result.best, result.fbest, result.history, result.evaluations)
        if result
        else None,
    }


def run_lib(w, seed: int, count: int, spans: str | None, setup_only: bool) -> dict:
    """Each instance through ``stapy.sta_run``, timed around the call."""
    stapy = _import_stapy()
    probs = workloads.problems(w, seed, count)
    space = _space(stapy, w)
    params = stapy.StaParams(iterations=w.iterations)
    refs = [workloads.reference(w, p.shift) for p in probs]
    objectives = [workloads.counting_objective(w, p.shift) for p in probs]
    stop_at = w.stop_at
    if setup_only:
        return {"instances": []}

    tracer = None
    if spans:
        tracer = tracing.Tracer()
        tracer.install()

    def solve(p, objective):
        f = tracing.TracedObjective(tracer, objective) if tracer else objective
        return stapy.sta_run(f, space, params, rng=p.seeds[0], target_fitness=stop_at)

    records = []
    clock.probe()  # warm up the probe kernel
    before = clock.probe()
    for p, ref, objective in zip(probs, refs, objectives):
        start = time.perf_counter()
        try:
            result = solve(p, objective)
        except stapy.RunAborted as err:
            result, problems = None, [f"RunAborted: {err}"]
        wall = time.perf_counter() - start
        after = clock.probe()
        if result is not None:
            problems = checks.check_run(
                result.best, result.fbest, result.history, result.evaluations,
                f_at_best=_f_at(ref, w, result.best),
                lower=space.lower, upper=space.upper,
                counted=objective.count, stop_at=stop_at, iterations=w.iterations,
            )
        success = result is not None and w.reached(result.fbest)
        records.append(_record(p.index, p.seeds[0], result, wall, success, problems, [before, after]))
        before = after

    out = {"instances": records}
    if tracer is not None:
        tracer.paused = True
        out["trace"] = _trace_summary(tracer, spans)
        out["trace"]["metrics"]["operators.op_rotate.peak_alloc_mib"] = _rotate_peak(w, seed)
    # Rerun the first instance: it must reproduce bit for bit.
    if records and records[0]["digest"]:
        again = solve(probs[0], workloads.counting_objective(w, probs[0].shift))
        if checks.run_digest(again.best, again.fbest, again.history, again.evaluations) != records[0]["digest"]:
            records[0]["problems"].append("rerun is not bit-identical")
    return out


def _trace_summary(tracer, spans_path) -> dict:
    cols = tracer.columns()
    summary = tracing.layer_metrics(tracer.names, cols)
    summary.update(tracing.ratio_metrics(tracer.counts))
    summary.update(tracing.cli_metrics(tracer.names, cols))
    tracer.save(spans_path)
    return {"metrics": summary, "missing": tracer.missing}


def _per_instance_ns(tracer, cols) -> list[int]:
    """Duration of each instance's sta_run span, by instance id."""
    if "sta_run" not in tracer.names:
        return []
    runs = cols["name"] == tracer.names.index("sta_run")
    order = np.argsort(cols["instance"][runs])
    return (cols["end"][runs] - cols["start"][runs])[order].tolist()


def _rotate_peak(w, seed: int) -> float:
    try:
        return tracing.rotate_peak_alloc_mib(w.dim, 30, seed)
    except AttributeError:  # op_rotate no longer exported
        return 0.0


def _paths(directory: Path, prefix: str, index: int) -> tuple[Path, Path, Path]:
    base = directory / f"{prefix}-{index}"
    return base.with_suffix(".json"), base.with_suffix(".csv"), base.with_suffix(".out")


def _read_cli(directory: Path, prefix: str, index: int):
    json_path, csv_path, out_path = _paths(directory, prefix, index)
    records = json.loads(json_path.read_text(encoding="utf-8"))
    rows = checks.parse_history_csv(csv_path.read_text(encoding="utf-8"))
    summaries = checks.parse_summaries(out_path.read_text(encoding="utf-8"))
    return records, rows, summaries


def _check_cli_problem(stapy, w, p, compiled, records, rows, summaries, counted) -> list[dict]:
    """Checks on every seed of one CLI process; ``counted(k, seed)`` gives
    the benchmark's own evaluation count for the k-th seed and the digest of
    a replay, or None."""
    space = _space(stapy, w)
    ref = workloads.reference(w, p.shift)
    stop_at = w.stop_at
    out = []
    for k, seed in enumerate(p.seeds):
        if k >= len(records):
            out.append(_record(p.index, seed, None, 0.0, False, ["no JSON record"]))
            continue
        record = records[k]
        history = [v for _, v in rows.get(seed, [])]
        best = np.array(record["best"], dtype=float)
        f_at_best = _f_at(compiled, w, best)
        problems = checks.check_cli_record(record, seed, summaries.get(seed), rows.get(seed))
        count, replay_digest = counted(k, seed)
        problems += checks.check_run(
            best, record["fbest"], history, record["evaluations"],
            f_at_best=f_at_best, lower=space.lower, upper=space.upper,
            counted=count, stop_at=stop_at, iterations=w.iterations,
        )
        digest = checks.run_digest(best, record["fbest"], history, record["evaluations"])
        if replay_digest is not None and replay_digest != digest:
            problems.append("CLI result differs from the sta_run replay")
        expected = _f_at(ref, w, best)
        if not abs(f_at_best - expected) <= 1e-9 * max(1.0, abs(expected)):
            problems.append("expression value differs from the shifted function it encodes")
        out.append({
            "problem": p.index, "seed": seed, "evaluations": int(record["evaluations"]),
            "iterations": len(history), "wall_s": record["runtime_ms"] / 1e3, "probe_s": None,
            "fbest": record["fbest"], "success": w.reached(record["fbest"]),
            "problems": problems, "digest": digest,
        })
    return out


def _missing_outputs(p, err) -> list[dict]:
    return [_record(p.index, s, None, 0.0, False, [f"unreadable CLI output: {err}"]) for s in p.seeds]


def verify_cli(w, seed: int, count: int, directory: Path) -> dict:
    """Replay every CLI seed through ``sta_run`` with a counting objective
    and check the CLI's JSON, CSV and printed summaries against it."""
    stapy = _import_stapy()
    space = _space(stapy, w)
    params = stapy.StaParams(iterations=w.iterations)
    records_out = []
    for p in workloads.problems(w, seed, count):
        try:
            records, rows, summaries = _read_cli(directory, "cli", p.index)
        except (OSError, ValueError) as err:
            records_out += _missing_outputs(p, err)
            continue
        compiled = stapy.parse_expression(workloads.expression(w, p.shift), w.dim)

        def counted(k, s):
            objective = workloads.CountingBatchObjective(compiled)
            r = stapy.sta_run(objective, space, params, rng=s, target_fitness=w.stop_at)
            return objective.count, checks.run_digest(r.best, r.fbest, r.history, r.evaluations)

        records_out += _check_cli_problem(stapy, w, p, compiled, records, rows, summaries, counted)
    return {"instances": records_out}


def trace_cli(w, seed: int, count: int, directory: Path, spans: str) -> dict:
    """Run ``stapy.cli.main`` in this process with spans on, then check its
    outputs and compare them with the untraced CLI run's outputs."""
    stapy = _import_stapy()
    import stapy.cli

    probs = workloads.problems(w, seed, count)
    tracer = tracing.Tracer()
    tracer.install()
    codes, probes = [], []
    clock.probe()  # warm up the probe kernel
    for p in probs:
        json_path, csv_path, out_path = _paths(directory, "traced", p.index)
        argv = workloads.cli_argv(w, p, str(json_path), str(csv_path))
        before = clock.probe(clock.BURST)
        with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            codes.append(stapy.cli.main(argv))
        probes.append([before, clock.probe(clock.BURST)])
    tracer.paused = True
    trace = _trace_summary(tracer, spans)
    trace["metrics"]["operators.op_rotate.peak_alloc_mib"] = _rotate_peak(w, seed)

    records_out = []
    first = 0
    ns = _per_instance_ns(tracer, tracer.columns())
    for p, code, probe in zip(probs, codes, probes):
        try:
            records, rows, summaries = _read_cli(directory, "traced", p.index)
            untraced = json.loads(_paths(directory, "cli", p.index)[0].read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            records_out += _missing_outputs(p, err)
            first += len(p.seeds)
            continue

        def counted(k, s, first=first):
            return tracer.points[first + k], None

        compiled = stapy.parse_expression(workloads.expression(w, p.shift), w.dim)
        checked = _check_cli_problem(stapy, w, p, compiled, records, rows, summaries, counted)
        for k, rec in enumerate(checked):
            if code != 0:
                rec["problems"].append(f"stapy.cli.main returned {code}")
            if k >= len(untraced) or _strip_runtime(untraced[k]) != _strip_runtime(records[k]):
                rec["problems"].append("traced CLI record differs from the untraced one")
            rec["wall_s"] = ns[first + k] / 1e9 if first + k < len(ns) else 0.0
            rec["probe_s"] = probe
        records_out += checked
        first += len(p.seeds)
    return {"instances": records_out, "trace": trace}


def _strip_runtime(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "runtime_ms"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "lib", "verify-cli", "trace-cli"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--dir", type=Path)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    if args.mode in ("setup", "lib"):
        out = run_lib(w, args.seed, args.count, args.spans, setup_only=args.mode == "setup")
    elif args.mode == "verify-cli":
        out = verify_cli(w, args.seed, args.count, args.dir)
    else:
        out = trace_cli(w, args.seed, args.count, args.dir, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
