"""Derivative-free global minimization over box constraints.

The optimizer keeps a single incumbent solution and, each iteration,
surrounds it with stochastic candidate clouds produced by four geometric
transformation operators (rotation, translation, expansion, axesion),
clamps the candidates to the box, and greedily keeps the best point seen.
See :func:`sta_run` for the main entry point and :mod:`stapy.cli` for the
command-line front end.

Each public name is listed once, in its submodule's ``__all__``; the package
re-exports those lists.
"""

from . import benchmarks, core, engine, expressions, operators
from .benchmarks import *  # noqa: F403
from .core import *  # noqa: F403
from .engine import *  # noqa: F403
from .expressions import *  # noqa: F403
from .operators import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *benchmarks.__all__,
    *core.__all__,
    *engine.__all__,
    *expressions.__all__,
    *operators.__all__,
    "__version__",
]
