"""Workload benchmark for stapy: time to target, throughput and search quality.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lib_n100_batch --seed 1 --seconds 15 --trace 0

Each workload runs in processes of its own, with single-threaded BLAS, and
is measured from outside through the stable entry points only: the
``stapy`` CLI (``python3 -m stapy``) and ``stapy.sta_run``.  Every instance
is checked for correctness.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once with spans around
stapy's public functions, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when a correctness check fails and 2 when the checkout has no stapy
sources.  Spans and a detailed result are written under ``perfbench/out/``.
See ``perfbench/NOTES.md`` for the metric definitions.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # import the benchmark as the `perfbench` package

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import threading
import time

from perfbench import clock, tracing, workloads

OUT = ROOT / "perfbench" / "out"
WORKER = ROOT / "perfbench" / "worker.py"

#: Timed fresh-interpreter launches per run for setup_s, after one untimed
#: launch that fills the bytecode cache.
SETUP_LAUNCHES = 9

#: Wall-clock budget of one benchmark run, in seconds.
RUN_BUDGET_S = 175.0

#: (name, unit) of every end-to-end metric, in print order.  fail_ratio is
#: printed but not repeated in the result's metrics: the result line carries
#: it as ``failed`` over ``attempted``, and it is 0 on correct code.
END_TO_END = (
    ("ert_s", "s"),
    ("ert_evals", "count"),
    ("success_rate", "fraction"),
    ("evals_per_s", "1/s"),
    ("iter_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("fail_ratio", "fraction"),
)

#: (name, unit) of every per-layer metric in the result line of a traced run.
PER_LAYER = (
    tuple(
        (f"{span}.{field}", unit)
        for span in tracing.LAYER_SPANS
        for field, unit in (("calls", "count"), ("self_ms", "ms"), ("share", "fraction"))
    )
    + tuple((f"engine.phase.{k}.improve_ratio", "fraction") for k in tracing.PHASE_KINDS)
    + (
        ("engine.translate.fire_ratio", "fraction"),
        ("engine.translate.accept_ratio", "fraction"),
        ("core.RandomSource.calls", "count"),
        ("core.RandomSource.ms", "ms"),
        ("operators.op_rotate.peak_alloc_mib", "MiB"),
        ("trace.wall_ms", "ms"),
        ("trace.overhead", "fraction"),
        ("trace.evals_per_s_untraced", "1/s"),
        ("trace.evals_per_s_traced", "1/s"),
    )
)

#: Printed for the CLI workload only, where the cli layer runs.
CLI_STEPS = (
    ("cli.parse_config.ms", "ms"),
    ("cli.resolve_objective.ms", "ms"),
    ("cli.seed_loop.ms", "ms"),
    ("cli.write_outputs.ms", "ms"),
)


class Runner:
    """Starts the benchmark's processes and waits for each to end."""

    def __init__(self, budget_s: float):
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ)
        self.env.update(
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONHASHSEED="0",
            PYTHONPATH=str(ROOT / "src"),
        )

    def launch(self, argv: list[str], stdout: Path) -> tuple[int, float, float]:
        """Run ``argv`` to completion: exit code, wall seconds, peak RSS MiB.

        The child is killed when the run's budget is spent.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark run budget spent")
        with open(stdout, "w") as out, open(stdout.with_suffix(".err"), "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def probed(self, argv: list[str], stdout: Path) -> tuple[int, float, float, list[float]]:
        """:meth:`launch` between two probes of the machine's speed."""
        before = clock.probe(clock.BURST)
        code, wall, rss = self.launch(argv, stdout)
        return code, wall, rss, [before, clock.probe(clock.BURST)]

    def worker(self, mode: str, w, seed: int, count: int, stdout: Path, *extra) -> tuple[dict, float]:
        """Run a worker step: its JSON result and peak RSS MiB."""
        argv = [sys.executable, str(WORKER), mode, "--workload", w.name,
                "--seed", str(seed), "--count", str(count), *extra]
        code, _, rss = self.launch(argv, stdout)
        try:
            result = json.loads(stdout.read_text(encoding="utf-8").splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if code != 0 or result is None:
            detail = stdout.with_suffix(".err").read_text(encoding="utf-8")[-2000:]
            raise WorkerFailed(f"worker {mode} exited with code {code}:\n{detail}")
        return result, rss


class WorkerFailed(RuntimeError):
    pass


def setup_seconds(runner: Runner, argv: list[str], stdout: Path) -> tuple[float, float]:
    """Median wall time of SETUP_LAUNCHES fresh processes running ``argv``:
    contention-corrected and raw."""
    walls = []
    for i in range(SETUP_LAUNCHES + 1):
        code, wall, _, probe = runner.probed(argv, stdout)
        if code != 0:
            raise WorkerFailed(f"set-up process exited with code {code}")
        if i:
            walls.append((clock.corrected(wall, *probe), wall))
    return statistics.median(w for w, _ in walls), statistics.median(w for _, w in walls)


# ---------------------------------------------------------------- workloads


def lib_workload(runner: Runner, w, seed: int, seconds: float, trace: bool, rundir: Path) -> dict:
    """``stapy.sta_run`` on each instance, in a worker process; each instance
    is one timed unit."""
    if trace:
        count = w.problem_count(seconds / 2)
        plain, _ = runner.worker("lib", w, seed, count, rundir / "untraced.out")
        traced, _ = runner.worker("lib", w, seed, count, rundir / "traced.out",
                                  "--spans", str(rundir / "spans.npz"))
        for a, b in zip(plain["instances"], traced["instances"]):
            if a["digest"] != b["digest"]:
                b["problems"].append("traced run differs from the untraced run")
        return {"instances": traced["instances"], "trace": traced["trace"],
                "untraced": plain["instances"], "traced": traced["instances"]}
    count = w.problem_count(seconds)
    setup_s = setup_seconds(
        runner,
        [sys.executable, str(WORKER), "setup", "--workload", w.name,
         "--seed", str(seed), "--count", str(count)],
        rundir / "setup.out",
    )
    result, rss = runner.worker("lib", w, seed, count, rundir / "lib.out")
    instances = result["instances"]
    return {"instances": instances, "timed": instances, "setup_s": setup_s, "peak_rss_mib": rss}


def _stapy_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "stapy", *argv]


def _cli_processes(runner: Runner, w, probs, rundir: Path) -> dict:
    """One ``stapy`` process per problem: its exit code, wall seconds (with
    the probes around it) and peak RSS, by problem index."""
    out = {}
    for p in probs:
        base = rundir / f"cli-{p.index}"
        argv = workloads.cli_argv(w, p, str(base.with_suffix(".json")), str(base.with_suffix(".csv")))
        code, wall, rss, probe = runner.probed(_stapy_argv(argv), base.with_suffix(".out"))
        out[p.index] = {"code": code, "wall_s": wall, "probe_s": probe, "rss_mib": rss,
                        "evaluations": 0, "iterations": 0}
    return out


def _attach_processes(instances: list[dict], processes: dict) -> None:
    """Fail the seeds of a process that exited non-zero, and add each seed's
    evaluations and iterations to its process."""
    for rec in instances:
        proc = processes[rec["problem"]]
        proc["evaluations"] += rec["evaluations"]
        proc["iterations"] += rec["iterations"]
        if proc["code"] != 0:
            rec["problems"].append(f"stapy exited with code {proc['code']}")


def _rerun_first_seed(runner: Runner, w, one, rundir: Path) -> list[str]:
    """Run problem ``one`` (a problem cut to its first seed) again, alone: its
    JSON record (but runtime_ms) and CSV rows must equal those of the batch
    run."""
    base = rundir / "rerun"
    argv = workloads.cli_argv(w, one, str(base.with_suffix(".json")), str(base.with_suffix(".csv")))
    code, _, _ = runner.launch(_stapy_argv(argv), base.with_suffix(".out"))
    if code != 0:
        return [f"rerun exited with code {code}"]
    try:
        again = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))[0]
        first = json.loads((rundir / f"cli-{one.index}.json").read_text(encoding="utf-8"))[0]
        rows_again = base.with_suffix(".csv").read_text(encoding="utf-8").splitlines()[1:]
        rows_first = (rundir / f"cli-{one.index}.csv").read_text(encoding="utf-8").splitlines()[1:]
    except (OSError, ValueError, IndexError) as err:
        return [f"rerun output unreadable: {err}"]
    again.pop("runtime_ms")
    first.pop("runtime_ms")
    prefix = f"{one.seeds[0]},"
    if again != first or rows_again != [r for r in rows_first if r.startswith(prefix)]:
        return ["rerun is not bit-identical"]
    return []


def cli_workload(runner: Runner, w, seed: int, seconds: float, trace: bool, rundir: Path) -> dict:
    """One ``stapy`` CLI process per problem; each process, start-up and
    output included, is one timed unit, because that is what a CLI user
    waits for and it stays observable however the CLI runs its seeds."""
    if trace:
        count = w.problem_count(seconds / 2)
        probs = workloads.problems(w, seed, count)
        processes = _cli_processes(runner, w, probs, rundir)
        traced, _ = runner.worker("trace-cli", w, seed, count, rundir / "traced.out",
                                  "--dir", str(rundir), "--spans", str(rundir / "spans.npz"))
        _attach_processes(traced["instances"], processes)
        # The overhead compares sta_run time per seed: runtime_ms untraced,
        # the sta_run span traced.
        untraced = []
        for p in probs:
            try:
                records = json.loads((rundir / f"cli-{p.index}.json").read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            untraced += [{"evaluations": r["evaluations"], "iterations": 1,
                          "wall_s": r["runtime_ms"] / 1e3,
                          "probe_s": processes[p.index]["probe_s"]} for r in records]
        return {"instances": traced["instances"], "trace": traced["trace"],
                "untraced": untraced, "traced": traced["instances"]}

    count = w.problem_count(seconds)
    probs = workloads.problems(w, seed, count)
    one = workloads.Problem(probs[0].index, probs[0].shift, probs[0].seeds[:1])
    base = rundir / "setup"
    argv = workloads.cli_argv(w, one, str(base.with_suffix(".json")), str(base.with_suffix(".csv")))
    argv[argv.index("--iterations") + 1] = "1"
    setup_s = setup_seconds(runner, _stapy_argv(argv), base.with_suffix(".out"))

    processes = _cli_processes(runner, w, probs, rundir)
    rerun_problems = _rerun_first_seed(runner, w, one, rundir)
    verified, _ = runner.worker("verify-cli", w, seed, count, rundir / "verify.out",
                                "--dir", str(rundir))
    instances = verified["instances"]
    _attach_processes(instances, processes)
    if instances and rerun_problems:
        instances[0]["problems"] += rerun_problems
    return {
        "instances": instances,
        "timed": list(processes.values()),
        "setup_s": setup_s,
        "peak_rss_mib": max(p["rss_mib"] for p in processes.values()),
    }


# ------------------------------------------------------------------ metrics


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def unit_costs(timed) -> tuple[list[float], list[float]]:
    """Per timed unit, contention-corrected: seconds per evaluation and ms
    per iteration."""
    per_eval, per_iter = [], []
    for t in timed:
        if t.get("evaluations") and t.get("iterations") and t.get("probe_s"):
            wall = clock.corrected(t["wall_s"], *t["probe_s"])
            per_eval.append(wall / t["evaluations"])
            per_iter.append(wall * 1e3 / t["iterations"])
    return per_eval, per_iter


def end_to_end(run: dict) -> tuple[dict, dict]:
    """The end-to-end metrics and printed extras of an untraced run.

    Time enters as the median over timed units of the corrected seconds per
    evaluation, so ERT in time is ERT in evaluations times that cost; the
    median keeps a unit whose probes missed a burst of contention from
    moving the result.
    """
    inst = run["instances"]
    attempted = len(inst)
    failed = sum(1 for r in inst if r["problems"])
    successes = sum(1 for r in inst if r["success"])
    evaluations = sum(r["evaluations"] for r in inst)
    if successes == 0:
        raise WorkerFailed("no instance reached the target, so ERT is undefined")
    per_eval, per_iter = unit_costs(run["timed"])
    sec_per_eval = statistics.median(per_eval)
    setup_s, raw_setup_s = run["setup_s"]
    raw_wall = sum(t["wall_s"] for t in run["timed"])
    metrics = {
        "ert_s": evaluations / successes * sec_per_eval,
        "ert_evals": evaluations / successes,
        "success_rate": successes / attempted,
        "evals_per_s": 1.0 / sec_per_eval,
        "iter_ms_p50": statistics.median(per_iter),
        "setup_s": setup_s,
        "peak_rss_mib": run["peak_rss_mib"],
        "fail_ratio": failed / attempted,
    }
    extras = {
        "instances": attempted,
        "successes": successes,
        "evaluations": evaluations,
        "timed_units": len(per_eval),
        "us_per_eval": sec_per_eval * 1e6,
        "raw.ert_s": raw_wall / successes,
        "raw.evals_per_s": evaluations / raw_wall,
        "raw.setup_s": raw_setup_s,
        "contention": raw_wall / sum(clock.corrected(t["wall_s"], *t["probe_s"]) for t in run["timed"]),
    }
    tail = tail_percentile(per_iter)
    if tail:
        extras[f"iter_ms_p{tail[0]}"] = f"{tail[1]:.6g} (n={len(per_iter)})"
    return metrics, extras


def per_layer(run: dict) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and the CLI steps."""
    found = run["trace"]["metrics"]
    metrics = {name: float(found.get(name, 0.0)) for name, _ in PER_LAYER}
    eps_u = 1.0 / statistics.median(unit_costs(run["untraced"])[0])
    eps_t = 1.0 / statistics.median(unit_costs(run["traced"])[0])
    metrics["trace.evals_per_s_untraced"] = eps_u
    metrics["trace.evals_per_s_traced"] = eps_t
    metrics["trace.overhead"] = eps_u / eps_t - 1.0
    extras = {name: found.get(name, 0.0) for name, _ in CLI_STEPS}
    extras["trace.residual_ms"] = found.get("trace.residual_ms")
    extras["trace.spans"] = found.get("trace.spans")
    extras["missing"] = run["trace"]["missing"]
    return metrics, extras


# ------------------------------------------------------------------ output


def machine_info(cpus: set[int]) -> dict:
    """The machine and source a result was measured on; ``cpus`` are the
    CPUs usable before the benchmark pinned itself to one."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout is not a stable numpy API
        blas = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stapy").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_cpu": max(cpus),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": 1,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def print_table(title: str, metrics: dict, table, extras: dict) -> None:
    print(title)
    unit_of = dict(table)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit_of[name]}")
    for name, value in extras.items():
        if value is not None:
            print(f"  {name:<44} {value!s:>16} {unit_of.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "stapy" / "__init__.py").is_file():
        print(f"error: no stapy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    # One core for the benchmark and every process it starts, so that the
    # probes see the same core as the program.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    rundir = OUT / w.name
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    runner = Runner(RUN_BUDGET_S)
    run_workload = cli_workload if w.entry == "cli" else lib_workload
    try:
        run = run_workload(runner, w, args.seed, args.seconds, bool(args.trace), rundir)
        if args.trace:
            metrics, extras = per_layer(run)
            table = PER_LAYER + CLI_STEPS
        else:
            metrics, extras = end_to_end(run)
            table = END_TO_END
    except (WorkerFailed, TimeoutError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    inst = run["instances"]
    failed = [r for r in inst if r["problems"]]
    print_table(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
                metrics, table, extras)
    for r in failed[:10]:
        print(f"  FAILED problem {r['problem']} seed {r['seed']}: {'; '.join(r['problems'])}")
    info = machine_info(cpus)
    print("  machine " + json.dumps(info))

    reported = {name: {"value": metrics[name], "unit": unit}
                for name, unit in (PER_LAYER if args.trace else END_TO_END)
                if name != "fail_ratio"}
    result = {"correct": not failed, "attempted": len(inst), "failed": len(failed), "metrics": reported}
    detail = dict(result, workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  extras=extras, machine=info, instances=inst, timed=run.get("timed"))
    (OUT / f"{w.name}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
