"""Workload definitions and the seeded instance generator.

Every piece of randomness in the benchmark enters through :func:`problems`:
the workload seed expands into problem instances (a shift vector and one or
more optimizer seeds), and the program under test only ever receives the
generated objective, box or expression text.

Each objective is moved off the origin, ``f(x - o)``.  The origin is the
fixed point of all four multiplicative operators, so an optimum there would
flatter the search (Kudela, Nat. Mach. Intell. 2022; shifted CEC'05 suite).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Each shift coordinate has magnitude in [SHIFT_LO, SHIFT_HI] times the box
#: half-width, so the optimum keeps a margin of at least SHIFT_LO half-widths
#: from the origin and 1 - SHIFT_HI half-widths from either bound.
SHIFT_LO = 0.2
SHIFT_HI = 0.8

#: Rastrigin's 2*pi, spelled out for the expression grammar (which has no pi).
TWO_PI = 6.283185307179586

#: Minimum of every workload objective (shifted rastrigin and griewank),
#: attained at the shift.
FSTAR = 0.0

#: Fewest problems in a run, however short.
MIN_PROBLEMS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``target`` is the precision: an instance succeeds when its
    ``fbest - FSTAR`` reaches it within ``iterations`` outer iterations, and
    every run is given ``FSTAR + target`` as its early-stop fitness.
    ``problems_per_second`` sizes a run: a run of ``s`` seconds generates
    ``round(s * problems_per_second)`` problems, measured on a 2-core x86-64
    machine at the parent commit, so the instance set (and with it
    ``ert_evals``) is fixed for a given seed and run length.
    """

    name: str
    why: str
    entry: str  # "cli" (the stapy CLI) or "lib" (stapy.sta_run)
    function: str  # "rastrigin" or "griewank"
    dim: int
    half_width: float
    batch: bool
    iterations: int
    target: float
    problems_per_second: float
    seeds_per_problem: int = 1

    @property
    def stop_at(self) -> float:
        """The early-stop fitness every run is given."""
        return FSTAR + self.target

    def reached(self, fbest: float) -> bool:
        return fbest - FSTAR <= self.target

    def problem_count(self, seconds: float) -> int:
        return max(MIN_PROBLEMS, round(seconds * self.problems_per_second))


WORKLOADS = {
    w.name: w
    for w in (
        # Why: this is how CLI users run batches -- one `stapy` process per
        # problem, several --seed values in it, --out-json and --out-csv.
        # Work splits between the compiled expression (about 62% of run time
        # in a probe) and per-phase overhead in engine, operators and core, so
        # lock-step seeds, validation removal and expression-compiler work
        # show up here.  At 300 iterations about 3 in 4 seeds reach 1e-6; the
        # rest stall in a local minimum.
        Workload(
            name="cli_n10_expr",
            why="stapy CLI on a shifted-rastrigin expression, n=10, 10 seeds per "
            "process with JSON/CSV output: expression plus per-phase overhead",
            entry="cli",
            function="rastrigin",
            dim=10,
            half_width=5.12,
            batch=True,
            iterations=300,
            target=1e-6,
            problems_per_second=1.0,
            seeds_per_problem=10,
        ),
        # Why: at n = 100 the (se, n, n) rotation draw in op_rotate takes
        # about 68% of run time (traced probe), so rotation-kernel work shows
        # up here; it is also the workload whose memory could grow.  The
        # target 300 is reached by about 95% of instances within 125
        # iterations (hitting times 70 to 140 iterations).
        Workload(
            name="lib_n100_batch",
            why="sta_run on shifted rastrigin at n=100 evaluated as a batch: "
            "dominated by the (se, n, n) rotation draw in op_rotate",
            entry="lib",
            function="rastrigin",
            dim=100,
            half_width=5.12,
            batch=True,
            iterations=125,
            target=300.0,
            problems_per_second=4.5,
        ),
        # Why: the same core.evaluate_batch layer as the other two, but
        # through its per-row Python loop, because the objective does not
        # advertise supports_batch.  Objective plus evaluate_batch take about
        # 78% of run time, so optimizer-side speed-ups should leave this
        # workload flat and a regression on the per-row path shows here.
        # About 98% of instances reach the target 1 within 100 iterations.
        Workload(
            name="lib_n10_scalar",
            why="sta_run on shifted griewank at n=10 wrapped without "
            "supports_batch: the per-row evaluate_batch loop and the objective",
            entry="lib",
            function="griewank",
            dim=10,
            half_width=600.0,
            batch=False,
            iterations=100,
            target=1.0,
            problems_per_second=12.0,
        ),
    )
}


@dataclass(frozen=True)
class Problem:
    """One shifted objective and the optimizer seeds run on it."""

    index: int
    shift: np.ndarray
    seeds: tuple[int, ...]


def draw_shift(rng: np.random.Generator, dim: int, half_width: float) -> np.ndarray:
    """A shift inside the box ``[-half_width, half_width]^dim``, with every
    coordinate at least SHIFT_LO half-widths from 0 and at least
    1 - SHIFT_HI half-widths from the bounds."""
    sign = rng.choice((-1.0, 1.0), dim)
    return sign * rng.uniform(SHIFT_LO, SHIFT_HI, dim) * half_width


def problems(workload: Workload, seed: int, count: int) -> list[Problem]:
    """The first ``count`` problems of ``workload`` for ``seed``.

    Problem ``i`` depends only on (workload, seed, i), so a longer run sees
    the same problems as a shorter one, plus more.
    """
    root = np.random.SeedSequence([int(seed), zlib.crc32(workload.name.encode())])
    out = []
    for index, child in enumerate(root.spawn(count)):
        rng = np.random.default_rng(child)
        shift = draw_shift(rng, workload.dim, workload.half_width)
        seeds = tuple(int(s) for s in rng.integers(0, 2**63, workload.seeds_per_problem))
        out.append(Problem(index, shift, seeds))
    return out


def reference(workload: Workload, shift: np.ndarray):
    """The benchmark's own shifted objective ``f(x - o)``; accepts a point or
    an ``(m, n)`` batch."""
    import stapy

    base = getattr(stapy, workload.function)

    def shifted(x):
        return base(np.asarray(x, dtype=float) - shift)

    return shifted


class CountingObjective:
    """The objective handed to ``sta_run``: counts the points it evaluates.

    The count is the benchmark's independent check on ``evaluations``.  The
    class attribute ``supports_batch`` is only set for batch workloads, so a
    scalar workload goes through the per-row path of ``evaluate_batch``.
    """

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, x):
        x = np.asarray(x)
        self.count += 1 if x.ndim == 1 else x.shape[0]
        return self.f(x)


class CountingBatchObjective(CountingObjective):
    supports_batch = True


def counting_objective(workload: Workload, shift: np.ndarray) -> CountingObjective:
    cls = CountingBatchObjective if workload.batch else CountingObjective
    return cls(reference(workload, shift))


def expression(workload: Workload, shift: np.ndarray) -> str:
    """Shifted rastrigin as ``stapy`` expression text, shift digits in full."""
    if workload.function != "rastrigin":
        raise ValueError(f"no expression form for {workload.function!r}")

    def term(i: int, o: float) -> str:
        return f"(x{i}-{o!r})" if o >= 0 else f"(x{i}+{-o!r})"

    terms = "".join(
        f" + {term(i, o)}^2 - 10*cos({TWO_PI!r}*{term(i, o)})"
        for i, o in enumerate(shift.tolist(), start=1)
    )
    return f"{10.0 * workload.dim!r}{terms}"


def cli_argv(workload: Workload, problem: Problem, out_json: str, out_csv: str) -> list[str]:
    """Arguments for the ``stapy`` CLI on one problem, all its seeds."""
    h = workload.half_width
    argv = [
        "--function", expression(workload, problem.shift),
        "--dim", str(workload.dim),
        f"--bounds={-h!r},{h!r}",
        "--iterations", str(workload.iterations),
        "--target-fitness", repr(workload.stop_at),
        "--out-json", out_json,
        "--out-csv", out_csv,
    ]
    for seed in problem.seeds:
        argv += ["--seed", str(seed)]
    return argv
