"""spark-submit entry point reproducing one or all of the paper's figures.

Usage::

    spark-submit jobs/run_figure.py <name>|all [store_root]

``<name>`` is a record of ``repro.experiments.FIGURES``, ``fig1_filter``
through ``fig11_parquet``; ``all`` runs every figure in paper order.
Tables land in ``store_root`` (default ``$REPRO_STORE``, else
``/tmp/pushdowndb-store``). Each figure runs at its module's default
scale and prints its table of numbers (measured scale + projected to the
paper's 10 GB) next to the paper's reference rows, then the headline
shape checks, then the figure's wall time and the driver's peak RSS so
far (``ru_maxrss``; Spark's JVM is another process and not counted).
"""
import os
import resource
import sys
import time

from repro.experiments import FIGURES


def run(spark, store_root: str, figures) -> None:
    from repro.experiments import common
    from repro.s3sim import ObjectStore

    store = ObjectStore(store_root)
    for fig in figures:
        exp = fig.module
        start = time.perf_counter()
        rows = exp.run(spark, store)
        wall_s = time.perf_counter() - start
        common.print_experiment(fig.title, rows, exp.PAPER)
        print("\nheadline:", exp.headline(rows))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"wall: {wall_s:.1f} s, driver peak RSS: {peak_mb:.0f} MB")


def main(argv: list[str]) -> None:
    by_name = {fig.name: fig for fig in FIGURES}
    if not argv or argv[0] not in (*by_name, "all"):
        sys.exit(
            "usage: run_figure.py <name>|all [store_root]\n"
            f"names: {', '.join(by_name)}"
        )
    figures = FIGURES if argv[0] == "all" else [by_name[argv[0]]]
    root = argv[1] if len(argv) > 1 else os.environ.get(
        "REPRO_STORE", "/tmp/pushdowndb-store"
    )

    import repro

    session = repro.session(argv[0])
    run(session, root, figures)
    session.stop()


if __name__ == "__main__":
    main(sys.argv[1:])
