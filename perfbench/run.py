"""Run the wall-clock benchmark.

    python3 perfbench/run.py --workload tpch-optimized --seed 1 --seconds 10 --trace 0

prints one line per metric (name, value, unit, sample count) and, last,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run. ``--workload all`` runs every workload,
each in its own process. Run it from the root of a checkout: it imports
the program from ``src/`` and writes only under ``.perfbench-work/``,
which it removes when done.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("tpch-optimized", "tpch-baseline", "operators")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _configure(work: Path) -> str:
    """Environment for Spark and its Python workers; returns the master.

    Must run before pyspark starts the JVM: workers inherit this
    environment, and need ``PYTHONPATH`` to import ``repro`` and the
    benchmark's tracing DataSource.
    """
    from perfbench.layers import TRACE_DIR_ENV

    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    n = min(4, len(os.sched_getaffinity(0)))
    master = f"local[{n}]"
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ.update({
        "PYTHONPATH": os.pathsep.join(paths),
        "PYSPARK_PYTHON": sys.executable,
        "TMPDIR": str(tmp),
        "SPARK_LOCAL_DIRS": str(work / "spark"),
        TRACE_DIR_ENV: str(work / "trace"),
        "PYSPARK_SUBMIT_ARGS": (
            f"--master {master} --driver-memory 2g "
            f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            f"--conf spark.local.dir={work / 'spark'} "
            "pyspark-shell"
        ),
    })
    return master


def _run_all(args) -> int:
    """Each workload in its own driver process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: r["metrics"] for k, r in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "core" / "tpch.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        master = _configure(work)
        from perfbench import bench

        report = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), work, master,
                           log=lambda m: print(m, file=sys.stderr, flush=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    bench.print_report(report)
    t = report.tally
    print(json.dumps({
        "correct": t.correct,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {
            k: {"value": v, "unit": unit} for k, (v, unit, _) in report.metrics.items()
        },
    }))
    return 0 if t.correct else 1


if __name__ == "__main__":
    sys.exit(main())
