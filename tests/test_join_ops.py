"""Join operator tests: oracle equality + Bloom-specific behavior."""
import pytest

from repro.core import join_ops
from repro.core import tpch as tpch_plans
from repro.core.runner import Runner
from repro.oracle import assert_equivalent

ALGOS = {
    "baseline": join_ops.baseline_join,
    "filtered": join_ops.filtered_join,
    "bloom": join_ops.bloom_join,
}


def _oracle_sql(acctbal, date):
    pred = f"AND o_orderdate < '{date}'" if date else ""
    return (
        "SELECT SUM(o_totalprice) AS total FROM customer, orders "
        f"WHERE o_custkey = c_custkey AND c_acctbal <= {acctbal} {pred}"
    )


@pytest.mark.parametrize("algo", list(ALGOS))
@pytest.mark.parametrize(
    "acctbal,date",
    [(-450, None), (-450, "1994-01-01"), (2000, "1993-01-01"), (9000, None)],
)
def test_join_matches_oracle(spark, store, tpch, algo, acctbal, date):
    r = ALGOS[algo](
        spark, Runner(store), tpch["customer"], tpch["orders"], acctbal, date
    )
    assert_equivalent(
        r.df,
        _oracle_sql(acctbal, date),
        customer=tpch["customer"].pdf,
        orders=tpch["orders"].pdf,
    )


def test_bloom_empty_build_side(spark, store, tpch):
    r = join_ops.bloom_join(
        spark, Runner(store), tpch["customer"], tpch["orders"], -10_000, None
    )
    assert r.df["total"].isna().all()


def test_bloom_returns_fewer_bytes_than_filtered(spark, store, tpch):
    f = join_ops.filtered_join(
        spark, Runner(store), tpch["customer"], tpch["orders"], -450, None
    )
    b = join_ops.bloom_join(
        spark, Runner(store), tpch["customer"], tpch["orders"], -450, None
    )
    assert b.usage.bytes_returned < f.usage.bytes_returned / 2


def test_bloom_has_two_serial_phases(spark, store, tpch):
    r = join_ops.bloom_join(
        spark, Runner(store), tpch["customer"], tpch["orders"], -450, None
    )
    assert [p.name for p in r.phases] == ["build", "probe"]


@pytest.mark.parametrize("plan", ["bloom_join", "q14"])
def test_bloom_degrades_when_sql_budget_tiny(spark, store, tpch, monkeypatch, plan):
    """An unsatisfiable 256KB budget forces the serial filtered fallback,
    in ``bloom_join`` and in the TPC-H plans alike."""
    monkeypatch.setattr(join_ops, "_SQL_BUDGET", 10)
    runner = Runner(store)
    if plan == "q14":
        r = tpch_plans.run_optimized(spark, runner, tpch, "q14")
        phases, names = ["lineitem", "part-degraded"], ("lineitem", "part")
        sql = tpch_plans.reference_sql("q14")
    else:
        r = join_ops.bloom_join(
            spark, runner, tpch["customer"], tpch["orders"], 9000, None
        )
        assert "degraded" in r.name
        phases, names = ["build", "probe-degraded"], ("customer", "orders")
        sql = _oracle_sql(9000, None)
    assert [p.name for p in r.phases] == phases
    assert r.phases[-1].case_columns == 0
    assert_equivalent(
        r.df, sql, **{n: tpch[n].pdf for n in names}
    )


def test_lower_fpr_larger_predicate(spark, store, tpch):
    tight = join_ops.bloom_join(
        spark, Runner(store), tpch["customer"], tpch["orders"], -450, None,
        fpr=0.001,
    )
    loose = join_ops.bloom_join(
        spark, Runner(store), tpch["customer"], tpch["orders"], -450, None,
        fpr=0.3,
    )
    # Larger bit string + more hash functions = more scanned-side work
    # modeled through case_columns; looser filter returns more rows.
    assert tight.phases[1].case_columns > loose.phases[1].case_columns
    assert loose.usage.bytes_returned >= tight.usage.bytes_returned


def test_fpr_sweep_matches_oracle(spark, store, tpch):
    for fpr in (0.0001, 0.1, 0.5):
        r = join_ops.bloom_join(
            spark, Runner(store), tpch["customer"], tpch["orders"],
            -450, "1994-06-01", fpr=fpr,
        )
        assert_equivalent(
            r.df,
            _oracle_sql(-450, "1994-06-01"),
            customer=tpch["customer"].pdf,
            orders=tpch["orders"].pdf,
        )


def test_projected_bloom_beats_baseline(spark, store, tpch):
    """Fig 2 shape at 10GB scale: bloom wins at a selective build side."""
    from repro.experiments import common

    f = common.tpch_factor(0.01)
    base = ALGOS["baseline"](
        spark, Runner(store), tpch["customer"], tpch["orders"], -900, None
    ).project(f)
    bloom = ALGOS["bloom"](
        spark, Runner(store), tpch["customer"], tpch["orders"], -900, None
    ).project(f)
    assert bloom.runtime_s < base.runtime_s
