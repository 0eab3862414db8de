"""Correctness checks applied to every benchmark instance.

Each check returns a list of problems (empty when the instance is correct);
an instance with any problem counts as failed in ``fail_ratio``.  The
functions take plain values, so a fabricated result can be checked as easily
as a real one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re

import numpy as np


def check_run(
    best,
    fbest: float,
    history,
    evaluations: int,
    *,
    f_at_best: float,
    lower,
    upper,
    counted: int,
    stop_at: float,
    iterations: int,
) -> list[str]:
    """The run contract: ``fbest == f(best)``, ``best`` inside the box, a
    non-increasing history ending at ``fbest``, an exact evaluation count,
    and an early stop exactly at the first iteration that reaches ``stop_at``.
    """
    best = np.asarray(best, dtype=float)
    history = np.asarray(history, dtype=float)
    problems = []
    if not f_at_best == fbest:
        problems.append(f"fbest {fbest!r} != f(best) {f_at_best!r}")
    if best.shape != np.shape(lower) or not (
        (best >= lower).all() and (best <= upper).all()
    ):
        problems.append("best lies outside the box")
    if history.ndim != 1 or history.size < 1:
        problems.append("history is empty")
    else:
        if not (np.diff(history) <= 0).all():
            problems.append("history increases")
        if not history[-1] == fbest:
            problems.append(f"history ends at {history[-1]!r}, not fbest {fbest!r}")
        reached = np.nonzero(history <= stop_at)[0]
        expected = reached[0] + 1 if reached.size else iterations
        if history.size != expected:
            problems.append(
                f"ran {history.size} iteration(s), expected {expected} "
                f"for budget {iterations} and stop at {stop_at!r}"
            )
    if counted != evaluations:
        problems.append(f"evaluations {evaluations} != counted {counted}")
    return problems


def run_digest(best, fbest: float, history, evaluations: int) -> str:
    """Digest of everything a rerun must reproduce bit for bit."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(best, dtype=float).tobytes())
    h.update(np.float64(fbest).tobytes())
    h.update(np.ascontiguousarray(history, dtype=float).tobytes())
    h.update(str(int(evaluations)).encode())
    return h.hexdigest()


_SUMMARY_RE = re.compile(r"^seed (\d+): fbest=(\S+) evaluations=(\d+) runtime=\S+ ms$")
_BEST_RE = re.compile(r"^  best = \[(.*)\]$")


def parse_summaries(stdout: str) -> dict[int, tuple[str, int, list[str]]]:
    """Per seed: (fbest text, evaluations, best coordinates as printed)."""
    out = {}
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        m = _SUMMARY_RE.match(line)
        if m is None:
            continue
        b = _BEST_RE.match(lines[i + 1]) if i + 1 < len(lines) else None
        coords = [c.strip() for c in b.group(1).split(",")] if b else []
        out[int(m.group(1))] = (m.group(2), int(m.group(3)), coords)
    return out


def parse_history_csv(text: str) -> dict[int, list[tuple[int, float]]]:
    """Per seed: the (iteration, fbest) rows of a ``--out-csv`` file."""
    rows = csv.reader(io.StringIO(text))
    if next(rows, None) != ["seed", "iteration", "fbest"]:
        raise ValueError("history CSV lacks the seed,iteration,fbest header")
    out: dict[int, list[tuple[int, float]]] = {}
    for seed, iteration, value in rows:
        out.setdefault(int(seed), []).append((int(iteration), float(value)))
    return out


def check_cli_record(record: dict, seed: int, summary, csv_rows) -> list[str]:
    """The CLI's three views of one seed agree: the JSON record, the printed
    summary and the CSV rows (one per completed iteration, numbered 1..m,
    the last equal to fbest)."""
    problems = []
    if record.get("seed") != seed:
        problems.append(f"JSON record has seed {record.get('seed')}, expected {seed}")
    if summary is None:
        problems.append("no printed summary")
    else:
        fbest_text, evaluations, coords = summary
        if fbest_text != repr(float(record["fbest"])):
            problems.append(f"printed fbest {fbest_text} != JSON {record['fbest']!r}")
        if evaluations != record["evaluations"]:
            problems.append("printed evaluations differ from JSON")
        if coords != [f"{v:.8g}" for v in record["best"]]:
            problems.append("printed best differs from JSON")
    if not csv_rows:
        problems.append("no CSV rows")
    else:
        if [it for it, _ in csv_rows] != list(range(1, len(csv_rows) + 1)):
            problems.append("CSV iterations are not 1..m")
        if not csv_rows[-1][1] == record["fbest"]:
            problems.append("last CSV row differs from fbest")
    return problems
