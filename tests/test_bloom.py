"""Unit tests for the Bloom filter and its S3 Select rendering."""
import math

import numpy as np
import pandas as pd
from hypothesis import given, settings, strategies as hst

from repro.core import bloom
from repro.s3sim.sql_parser import parse
from tests.reference import eval_frame


def test_next_prime_small():
    assert bloom.next_prime(1) == 2
    assert bloom.next_prime(2) == 2
    assert bloom.next_prime(3) == 3
    assert bloom.next_prime(4) == 5
    assert bloom.next_prime(90) == 97


def test_next_prime_is_geq_and_prime():
    for n in (100, 1234, 99991):
        p = bloom.next_prime(n)
        assert p >= n
        assert all(p % d for d in range(2, int(math.isqrt(p)) + 1))


def test_optimal_k_formula():
    # k_p = log2(1/p)
    assert bloom.optimal_k(0.01) == 7
    assert bloom.optimal_k(0.001) == 10
    assert bloom.optimal_k(0.5) == 1


def test_optimal_m_formula():
    # m_p = s * |ln p| / (ln 2)^2
    m = bloom.optimal_m(1000, 0.01)
    expected = 1000 * abs(math.log(0.01)) / math.log(2) ** 2
    assert m == math.ceil(expected)


def test_no_false_negatives():
    keys = np.arange(0, 5000, 7)
    bf = bloom.build_from_keys(keys, 0.01)
    assert bf.might_contain(keys).all()


def test_false_positive_rate_near_target():
    rng = np.random.default_rng(1)
    keys = rng.choice(10_000_000, size=2000, replace=False)
    bf = bloom.build_from_keys(keys, 0.01)
    probes = rng.choice(10_000_000, size=20_000, replace=False)
    probes = np.setdiff1d(probes, keys)
    fpr = bf.might_contain(probes).mean()
    assert fpr < 0.05  # target 0.01 with slack for universal-hash variance


def test_higher_fpr_smaller_filter():
    keys = np.arange(1000)
    tight = bloom.build_from_keys(keys, 0.001)
    loose = bloom.build_from_keys(keys, 0.3)
    assert loose.m < tight.m
    assert loose.k < tight.k


def test_bit_string_matches_bits():
    bf = bloom.build_from_keys([1, 2, 3], 0.1)
    s = bf.bit_string()
    assert len(s) == bf.m
    assert all(c in "01" for c in s)
    assert [c == "1" for c in s] == bf.bits.tolist()


def test_predicate_is_k_substring_conjuncts():
    bf = bloom.build_from_keys(np.arange(50), 0.01)
    pred = bf.to_predicate("k")
    assert pred.count("SUBSTRING") == bf.k
    assert pred.count(" AND ") == bf.k - 1


def test_predicate_evaluates_like_might_contain():
    """The rendered SQL agrees with the in-memory filter, row by row."""
    rng = np.random.default_rng(2)
    keys = rng.choice(5000, size=200, replace=False)
    bf = bloom.build_from_keys(keys, 0.01)
    probes = np.arange(1500)
    df = pd.DataFrame({"k": probes.astype(str)})
    sql = f"SELECT k FROM S3Object WHERE {bf.to_predicate('k')}"
    out = eval_frame(sql, df)
    sql_hits = set(out["k"].astype(int))
    mem_hits = set(probes[bf.might_contain(probes)])
    assert sql_hits == mem_hits


def test_predicate_parses_within_dialect():
    bf = bloom.build_from_keys(np.arange(100), 0.01)
    parse(f"SELECT a FROM S3Object WHERE {bf.to_predicate('a')}")


def test_fit_fpr_returns_filter_when_it_fits():
    bf = bloom.fit_fpr_to_limit(np.arange(100), 0.01, "k", 256 * 1024)
    assert bf is not None
    assert bf.fpr == 0.01


def test_fit_fpr_degrades_under_budget():
    keys = np.arange(20_000)
    bf = bloom.fit_fpr_to_limit(keys, 0.0001, "k", 60_000)
    assert bf is not None
    assert bf.fpr > 0.0001  # had to degrade
    assert len(bf.to_predicate("k").encode()) <= 60_000


def test_fit_fpr_gives_up_when_nothing_fits():
    keys = np.arange(200_000)
    assert bloom.fit_fpr_to_limit(keys, 0.01, "k", 10_000) is None


def test_build_dedupes_keys():
    a = bloom.build_from_keys([5, 5, 5, 7], 0.01)
    b = bloom.build_from_keys([5, 7], 0.01)
    assert a.m == b.m  # sized on distinct keys


@settings(max_examples=25, deadline=None)
@given(
    keys=hst.lists(hst.integers(min_value=0, max_value=10**6), min_size=1, max_size=300),
    fpr=hst.sampled_from([0.001, 0.01, 0.1, 0.5]),
)
def test_property_no_false_negatives(keys, fpr):
    bf = bloom.build_from_keys(keys, fpr)
    assert bf.might_contain(np.array(keys)).all()


def test_bit_string_of_a_large_filter():
    bf = bloom.build_from_keys(np.arange(0, 60_000, 7), fpr=0.01)
    bits = bf.bit_string()
    assert len(bits) == bf.m > 50_000
    assert bits == "".join("1" if b else "0" for b in bf.bits)
