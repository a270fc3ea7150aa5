"""Regenerate EXPERIMENTS.md from benchmarks/results/*.json.

Run after ``pytest benchmarks/ --benchmark-only``:

    python jobs/write_experiments_md.py

Each figure section records the paper's numbers (read off its plots,
so approximate) next to our measured rows projected to the paper's
10 GB scale, plus the headline shape checks computed from the measured
rows. Titles, columns and narrative come from the figure registry
(``repro.experiments.FIGURES``); numbers come from the result files.
"""
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

HEADER = """# EXPERIMENTS — paper vs measured

Generated by ``python jobs/write_experiments_md.py`` from
``benchmarks/results/*.json`` (produced by ``pytest benchmarks/
--benchmark-only`` at SF=0.1, i.e. ~1/100 of the paper's 10 GB TPC-H /
10 GB synthetic tables; 16 objects per table).

How to read the numbers:

* ``runtime_s_10gb`` / ``cost_usd_10gb`` are our *measured* byte, row,
  and request counts projected to the paper's 10 GB scale and run
  through the calibrated performance/pricing models of DESIGN.md S6.
  Per-object request counts stay fixed under projection; per-row GET
  storms scale.
* The paper reports figures, not tables; its numbers quoted here are
  read off the plots and therefore approximate. We reproduce *shapes*:
  which algorithm wins, by roughly what factor, and where crossovers
  fall. Absolute seconds are not comparable (our substrate is a
  simulator; theirs was AWS).
* ``headline`` rows are the machine-checked shape claims; the benchmark
  suite asserts them (see ``benchmarks/bench_*.py``).

Known deviations (and why they are acceptable):

* Fig 1: S3-side-vs-server speedup measures 11.6x vs the paper's ~10x
  and the S3-side cost premium +15% vs the paper's +24%; the indexing
  crossover selectivity shifts with absolute row count (request-storm
  effect), as expected at a different N; indexing's high-selectivity
  cost advantage measures 4.0x vs the paper's 2.7x.
* Fig 5: S3-side group-by beats filtered by 2.8x at 2 groups vs the
  paper's 4.1x -- our modeled S3 Select response-parsing penalty is
  milder than their measured Python event-stream parsing; the win,
  degradation with group count, and crossover all reproduce (and the
  filtered-vs-server ratio measures 1.60x vs the paper's 1.64x).
* Fig 7: hybrid's win over filtered at theta=1.3 measures 2.9x vs the
  paper's 1.31x -- our sweep's largest groups absorb more rows than
  theirs; direction and flat-baseline behavior match.
* Fig 10: geo-mean speedup 14.9x vs the paper's 6.7x; geo-mean cost
  ratio 0.676 vs the paper's 0.70 (30% cheaper). Both directions match
  (optimized faster *and* cheaper); the speedup factor is sensitive to
  baseline CPU-rate calibration.
* TPC-H subset: the paper does not enumerate its TPC-H queries; we use
  Q1, Q3, Q6, Q14, Q17, Q19 (the set expressible over TPC-H-lite, one
  per optimization pattern). Q1's optimized plan takes its 6 group
  values from catalog statistics (the paper assumes statistics are
  available) instead of a discovery scan.
"""


def fmt_table(rows, cols):
    cols = [c for c in cols if any(c in r for r in rows)]
    out = ["| " + " | ".join(cols) + " |",
           "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out)


def render() -> str:
    """EXPERIMENTS.md's text for the current registry and result files."""
    sys.path.insert(0, str(ROOT / "src"))  # the registry of this checkout
    from repro.experiments import FIGURES

    parts = [HEADER]
    for fig in FIGURES:
        path = RESULTS / f"{fig.name}.json"
        parts.append(f"\n## {fig.title}\n")
        parts.append(fig.narrative + "\n")
        if not path.exists():
            parts.append("*(no result file -- run the benchmarks first)*\n")
            continue
        data = json.loads(path.read_text())
        parts.append("Headline checks (measured):\n")
        parts.append(
            "```\n" + json.dumps(data["headline"], indent=1) + "\n```\n"
        )
        parts.append("Measured rows (projected to 10 GB):\n")
        parts.append(fmt_table(data["rows"], fig.columns) + "\n")
    return "\n".join(parts)


def main() -> None:
    (ROOT / "EXPERIMENTS.md").write_text(render())
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()
