"""Which phases run a Spark job, and which the driver serves itself.

A phase whose S3 Select rows end up on the driver (a Bloom build side,
a driver-side aggregate) calls ``select_all``; only a phase where Spark
computes something -- the probe side feeding a join -- goes through the
``s3select`` DataSource via ``read_table``. Each plan below must call
``read_table`` exactly once, for its probe side, or not at all.
"""
import pytest

from repro.core import join_ops, tpch
from repro.datasource import s3select
from tests.conftest import new_runner_for


@pytest.fixture()
def read_table_calls(monkeypatch) -> list:
    calls = []

    def spy(spark, root, table, **kwargs):
        calls.append(table)
        return s3select.read_table(spark, root, table, **kwargs)

    monkeypatch.setattr(tpch, "read_table", spy)
    monkeypatch.setattr(join_ops, "read_table", spy)
    return calls


@pytest.mark.parametrize(
    "q,probe",
    [("q1", None), ("q3", "lineitem"), ("q6", None), ("q14", "part"),
     ("q17", "lineitem"), ("q19", "part")],
)
def test_tpch_reads_through_spark_only_for_the_probe(
    spark, store, tpch_tables, read_table_calls, q, probe
):
    tpch.run_optimized(spark, new_runner_for(store), tpch_tables, q)
    assert read_table_calls == ([probe] if probe else [])


def test_bloom_join_reads_through_spark_only_for_the_probe(
    spark, store, tpch_tables, read_table_calls
):
    r = join_ops.bloom_join(
        spark, new_runner_for(store), tpch_tables["customer"],
        tpch_tables["orders"], -450, None,
    )
    assert r.phases[0].hash_rows > 0
    assert read_table_calls == ["orders"]
