"""Shared fixtures for the test suite.

The session-scoped ``spark`` fixture comes from the repo-root
conftest.py. Here we add a session-scoped object store and small
(SF=0.01-ish) tables reused across operator tests -- regenerating them
per test would dominate runtime. The store's usage log is shared, which
is safe because Runner attributes usage by log-position diffs and
pytest runs tests sequentially.
"""
import pytest

from repro import synth_data
from repro.core.tables import get_or_create, load_tpch
from repro.experiments import fig1_filter
from repro.s3sim import ObjectStore

TEST_SF = 0.01
TEST_PARTITIONS = 4


@pytest.fixture(scope="session")
def store(tmp_path_factory) -> ObjectStore:
    return ObjectStore(tmp_path_factory.mktemp("s3store"))


@pytest.fixture()
def fresh_store(tmp_path) -> ObjectStore:
    """An isolated store for tests that assert on global usage totals."""
    return ObjectStore(tmp_path / "store")


@pytest.fixture(scope="session")
def tpch(store) -> dict:
    """TPC-H-lite at SF=0.01 (lineitem 60k rows), 4 objects per table."""
    return load_tpch(store, sf=TEST_SF, n_partitions=TEST_PARTITIONS)


@pytest.fixture(scope="session")
def tpch_tables(tpch) -> dict:
    """Alias for tests that import ``repro.core.tpch`` under that name."""
    return tpch


@pytest.fixture(scope="session")
def filter_table(store):
    """Fig 1's table at 20k rows: 16 objects and an index on ``u``."""
    return fig1_filter.table(store, 20_000)


@pytest.fixture(scope="session")
def groups_zipf(store):
    return get_or_create(
        store,
        "test_groups_zipf",
        lambda: synth_data.groups_table_frame(n=20_000, kind="zipf", theta=1.1),
        n_partitions=TEST_PARTITIONS,
    )


@pytest.fixture(scope="session")
def groups_uniform(store):
    return get_or_create(
        store,
        "test_groups_uniform",
        lambda: synth_data.groups_table_frame(n=20_000, kind="uniform"),
        n_partitions=TEST_PARTITIONS,
    )
