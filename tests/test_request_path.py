"""Which phases run through the ``s3select`` DataSource, and which the driver sends.

The rule: if an operator writes the S3 Select text itself -- an
aggregate, a Bloom build or probe, a ``NOT IN`` tail, a filtered scan
whose row count it needs -- the driver sends it (``select_results``,
through ``select_table``) and finishes the plan on the frames it
receives, in pandas. Those plans get ``None`` for their ``spark``
argument here, so any call into Spark fails. Only Catalyst-planned scans
call ``read_table``: a filter pushed through ``pushFilters``, such as
``s3_side_filter``'s. A driver scan is a ``Runner.scan`` phase, whose
server rows are the rows it received.
"""
import ast
from pathlib import Path

import pytest

from repro.core import filter_ops, groupby_ops, join_ops, topk_ops, tpch
from repro.core.runner import Runner
from repro.datasource import s3select
from repro.s3sim import csvio


@pytest.fixture()
def read_table_calls(monkeypatch) -> list:
    calls = []

    def spy(spark, root, table, **kwargs):
        calls.append(table)
        return s3select.read_table(spark, root, table, **kwargs)

    for mod in (filter_ops, groupby_ops, join_ops, topk_ops, tpch):
        monkeypatch.setattr(mod, "read_table", spy)
    return calls


@pytest.mark.parametrize("q", tpch.QUERIES)
def test_tpch_optimized_never_reads_through_the_datasource(
    store, tpch_tables, read_table_calls, q
):
    tpch.run_optimized(None, Runner(store), tpch_tables, q)
    assert read_table_calls == []


def test_bloom_join_never_reads_through_the_datasource(
    store, tpch_tables, read_table_calls
):
    r = join_ops.bloom_join(
        None, Runner(store), tpch_tables["customer"],
        tpch_tables["orders"], -450, "1995-01-01",
    )
    assert [p.name for p in r.phases] == ["build", "probe"]
    assert r.phases[1].hash_rows > 0
    assert read_table_calls == []


def test_hybrid_groupby_never_reads_through_the_datasource(
    store, groups_zipf, read_table_calls
):
    groupby_ops.hybrid_groupby(
        None, Runner(store), groups_zipf, "g1", ["v1", "v2"]
    )
    assert read_table_calls == []


def test_sampling_topk_and_filtered_join_never_read_through_the_datasource(
    store, tpch_tables, read_table_calls
):
    """Both count their server rows from the frames their phases received."""
    topk = topk_ops.sampling_topk(
        None, Runner(store), tpch_tables["lineitem"], "l_extendedprice", 10
    )
    join = join_ops.filtered_join(
        None, Runner(store), tpch_tables["customer"],
        tpch_tables["orders"], -450, "1995-01-01",
    )
    assert read_table_calls == []
    assert topk.phases[-1].heap_rows >= 10
    assert join.phases[0].hash_rows > 0


def test_s3_side_filter_reads_through_the_datasource(
    spark, store, filter_table, read_table_calls
):
    filter_ops.s3_side_filter(spark, Runner(store), filter_table, "u < 0.01")
    assert read_table_calls == [filter_table.name]


def _core_sources() -> dict:
    core = Path(tpch.__file__).parent
    return {p.name: ast.parse(p.read_text()) for p in sorted(core.glob("*.py"))}


def _calls(node, name: str) -> bool:
    return any(
        isinstance(n, ast.Call)
        and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
        for n in ast.walk(node)
    )


def test_select_table_runs_in_a_hand_written_phase_only_in_runner_and_filtered_join():
    """``Runner.scan`` owns phase accounting; ``filtered_join``'s two scans
    share one phase, so it keeps its own."""
    found = [
        f"{module}:{fn.name}"
        for module, tree in _core_sources().items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(w, ast.With)
            and any(_calls(item.context_expr, "phase") for item in w.items)
            and _calls(w, "select_table")
            for w in ast.walk(fn)
        )
    ]
    assert found == ["join_ops.py:filtered_join", "runner.py:scan"]


def test_only_tables_writes_a_limit_into_s3_select_text():
    found = [
        module
        for module, tree in _core_sources().items()
        if module != "tables.py"
        and any(
            isinstance(n, ast.Constant) and isinstance(n.value, str)
            and "S3Object" in n.value and "LIMIT" in n.value
            for n in ast.walk(tree)
        )
    ]
    assert found == []


def test_only_csvio_renders_csv_text_in_s3sim():
    """``bytes_returned`` is counted from result columns (``csvio.csv_size``);
    ``to_csv_bytes`` is left only as the tests' reference."""
    found = sorted(
        p.name for p in Path(csvio.__file__).parent.glob("*.py")
        if p.name != "csvio.py" and _calls(ast.parse(p.read_text()), "to_csv_bytes")
    )
    assert found == []


def test_tables_land_through_the_one_encoder():
    """Landing renders each object's cells once (``csvio.render``/``encode``),
    never through pandas' ``to_csv``."""
    tree = _core_sources()["tables.py"]
    assert not _calls(tree, "to_csv") and not _calls(tree, "to_csv_bytes")
    assert _calls(tree, "encode")


def test_index_filter_sends_no_get_per_row():
    """Its row fetch sends an object's ranged GETs together (``get_ranges``)."""
    tree = _core_sources()["filter_ops.py"]
    loops = [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.For, ast.While, ast.ListComp, ast.GeneratorExp,
                          ast.SetComp, ast.DictComp))
    ]
    per_row = [
        ast.unparse(call) for loop in loops for call in ast.walk(loop)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "get" and ast.unparse(call.func.value).endswith("store")
    ]
    assert per_row == []
    assert _calls(tree, "get_ranges")


def test_datasource_reads_through_select_results_without_pandas():
    """Spark's workers send the driver's request function and hand Spark
    the Arrow columns it returns: no pandas frame on the way."""
    tree = ast.parse(Path(s3select.__file__).read_text())
    [reader] = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.ClassDef) and n.name == "S3SelectReader"
    ]
    [read] = [n for n in reader.body if isinstance(n, ast.FunctionDef) and n.name == "read"]
    assert _calls(read, "select_results")
    assert not _calls(read, "s3_select") and not _calls(read, "to_pandas")
