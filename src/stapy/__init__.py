"""Derivative-free global minimization over box constraints.

The optimizer keeps a single incumbent solution and, each iteration,
surrounds it with stochastic candidate clouds produced by four geometric
transformation operators (rotation, translation, expansion, axesion),
clamps the candidates to the box, and greedily keeps the best point seen.
See :func:`sta_run` for the main entry point and :mod:`stapy.cli` for the
command-line front end.
"""

from __future__ import annotations

from .benchmarks import (
    BenchmarkSpec,
    get_benchmark,
    griewank,
    list_benchmarks,
    paper_quadratic,
    rastrigin,
    rosenbrock,
    sphere,
)
from .core import (
    EPS,
    CallCounter,
    RandomSource,
    RunResult,
    SearchSpace,
    Solution,
    StaParams,
    evaluate_batch,
)
from .engine import (
    EvaluationError,
    RunAborted,
    RunState,
    initialize,
    select_best,
    sta_run,
)
from .expressions import CompiledExpression, ExpressionError, parse_expression
from .operators import op_axes, op_expand, op_rotate, op_translate

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "CallCounter",
    "CompiledExpression",
    "EPS",
    "EvaluationError",
    "ExpressionError",
    "RandomSource",
    "RunAborted",
    "RunResult",
    "RunState",
    "SearchSpace",
    "Solution",
    "StaParams",
    "evaluate_batch",
    "get_benchmark",
    "griewank",
    "initialize",
    "list_benchmarks",
    "op_axes",
    "op_expand",
    "op_rotate",
    "op_translate",
    "paper_quadratic",
    "parse_expression",
    "rastrigin",
    "rosenbrock",
    "select_best",
    "sphere",
    "sta_run",
    "__version__",
]
