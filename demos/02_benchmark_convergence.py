"""
Benchmark convergence: Rastrigin 10D and Griewank 15D descent curves
====================================================================

Reproduces the two classic multimodal experiments on their customary
boxes, writes the histories to a long-format CSV (function, seed,
iteration, fbest), and renders a semilog plot when matplotlib is importable.
The CSV is the command-line front end's `--out-csv` format with a leading
function column.
"""

import numpy as np

from stapy import StaParams, get_benchmark, sta_run

SEEDS = range(5)
RUNS = [("rastrigin", 10), ("griewank", 15)]

histories = {}
for name, dim in RUNS:
    spec = get_benchmark(name)
    space = spec.default_box(dim)
    for seed in SEEDS:
        result = sta_run(spec.objective, space, StaParams(), rng=seed)
        histories[(name, seed)] = result.history
        print(f"{name:9s} dim={dim} seed={seed}: fbest={result.fbest:.3e} "
              f"evaluations={result.evaluations}")

# Long-format CSV, one row per iteration per run.
with open("benchmark_convergence.csv", "w", encoding="utf-8", newline="\n") as out:
    out.write("function,seed,iteration,fbest\n")
    for (name, seed), history in histories.items():
        for iteration, value in enumerate(history.tolist(), start=1):
            out.write(f"{name},{seed},{iteration},{value!r}\n")
print("wrote benchmark_convergence.csv")

# Semilog descent plot, if a plotting stack is around.  Zeros are clipped
# to the smallest positive value seen so the log axis stays defined.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=False)
    for ax, (name, dim) in zip(axes, RUNS):
        for seed in SEEDS:
            h = np.asarray(histories[(name, seed)], dtype=float)
            positive = h[h > 0]
            floor = positive.min() if positive.size else 1e-300
            ax.semilogy(np.maximum(h, floor), lw=0.8, label=f"seed {seed}")
        ax.set_title(f"{name} {dim}D")
        ax.set_xlabel("iteration")
        ax.set_ylabel("incumbent fitness")
        ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig("benchmark_convergence.png", dpi=120)
    print("wrote benchmark_convergence.png")
