"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.

Each table is a pandas core, ``<name>_frame(**kw)``, which ``core.tables``
lands without Spark; ``<name>(spark, **kw)`` is the same rows as a Spark
DataFrame. This module does not import pyspark.
"""
import numpy as np
import pandas as pd

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _pick(g: np.random.Generator, options: list, n: int) -> np.ndarray:
    """``g.choice(options, n)``, draw for draw, as an object array of ``options``.

    ``choice`` draws ``g.integers(0, len(options), n)`` and copies each
    pick into a fixed-width string; indexing one object array with those
    draws instead makes every row of an option share its one string.
    """
    return np.array(options, dtype=object)[g.integers(0, len(options), n)]


def lineitem_frame(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": _pick(g, list("NRA"), n),
            "l_linestatus": _pick(g, list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
            # Extensions for TPC-H Q17/Q19 (drawn after the original
            # columns so their values are unchanged for a given seed).
            "l_shipinstruct": _pick(
                g, ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"], n
            ),
            "l_shipmode": _pick(
                g, ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"], n
            ),
        }
    )


def orders_frame(*, sf: float = 0.01, seed: int = 1) -> pd.DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": _pick(g, list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": _pick(
                g, ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
            # Extension for TPC-H Q3 (constant 0 in TPC-H data).
            "o_shippriority": np.zeros(n, dtype="int64"),
        }
    )


def part_frame(*, sf: float = 0.01, seed: int = 5) -> pd.DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": _pick(
                g, ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": _pick(g, [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
            # Extension for TPC-H Q17/Q19.
            "p_container": _pick(
                g,
                [
                    f"{sz} {kind}"
                    for sz in ("SM", "MED", "LG", "JUMBO", "WRAP")
                    for kind in ("CASE", "BOX", "PACK", "PKG", "BAG", "JAR", "DRUM", "CAN")
                ],
                n,
            ),
        }
    )


def customer_frame(*, sf: float = 0.01, seed: int = 2) -> pd.DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": _pick(
                g, ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )


# -- PushdownDB reproduction extensions -----------------------------------


def _zipf_weights(n_keys: int, theta: float) -> np.ndarray:
    """Zipfian pmf over ranks 1..n_keys (Gray et al.); theta=0 is uniform."""
    w = 1.0 / np.arange(1, n_keys + 1) ** theta
    return w / w.sum()


def filter_table_frame(*, n: int, seed: int = 10) -> pd.DataFrame:
    """Table for the Fig 1 filter sweeps.

    ``u`` is uniform on [0, 1), so the predicate ``u < s`` selects an
    expected fraction ``s`` of rows. ``filler`` pads rows to a realistic
    width (~100 bytes) so byte-level accounting is meaningful.
    """
    g = _rng(seed)
    return pd.DataFrame(
        {
            "id": np.arange(1, n + 1),
            "u": g.random(n).round(7),
            "filler": pd.Series(["x" * 80] * n, dtype=str),
        }
    )


def groups_table_frame(
    *,
    n: int,
    kind: str = "uniform",
    theta: float = 0.0,
    n_groups: int = 100,
    seed: int = 11,
) -> pd.DataFrame:
    """The paper's SVI-C group-by tables: 10 group cols + 10 value cols.

    ``kind='uniform'``: group column ``g{i}`` has ``2**i`` uniformly
    sized groups (i = 1..10), matching "each column contains different
    numbers of unique groups (from 2 to 2^10)".

    ``kind='zipf'``: every group column has ``n_groups`` groups whose
    sizes follow a Zipfian distribution with parameter ``theta``
    (theta=0 uniform; theta=1.3 puts 59% of rows in the 4 largest
    groups, as in Fig 7).
    """
    g = _rng(seed)
    cols: dict = {}
    for i in range(1, 11):
        if kind == "uniform":
            cols[f"g{i}"] = g.integers(0, 2 ** i, n)
        elif kind == "zipf":
            ranks = np.arange(n_groups)
            cols[f"g{i}"] = g.choice(ranks, size=n, p=_zipf_weights(n_groups, theta))
        else:
            raise ValueError(f"unknown kind {kind!r}")
    for i in range(1, 11):
        cols[f"v{i}"] = g.random(n).round(6)
    return pd.DataFrame(cols)


def wide_table_frame(*, n: int, n_cols: int, seed: int = 12) -> pd.DataFrame:
    """Fig 11 tables: ``n_cols`` float columns of limited precision.

    The paper used 1/10/20-column tables, each column 100 MB of floats
    rounded to four decimals; ``c1`` doubles as the filter column.
    """
    g = _rng(seed)
    return pd.DataFrame(
        {f"c{i}": g.random(n).round(4) for i in range(1, n_cols + 1)}
    )


# -- Spark DataFrames of the same rows ------------------------------------


def lineitem(spark, **kw):
    return spark.createDataFrame(lineitem_frame(**kw))


def orders(spark, **kw):
    return spark.createDataFrame(orders_frame(**kw))


def part(spark, **kw):
    return spark.createDataFrame(part_frame(**kw))


def customer(spark, **kw):
    return spark.createDataFrame(customer_frame(**kw))


def filter_table(spark, **kw):
    return spark.createDataFrame(filter_table_frame(**kw))


def groups_table(spark, **kw):
    return spark.createDataFrame(groups_table_frame(**kw))


def wide_table(spark, **kw):
    return spark.createDataFrame(wide_table_frame(**kw))
