"""``tools/check_oracle.py`` bounds each oracle's time: one that runs past
the limit is interrupted, reported as ``[TIME]`` and counted as a
failure, and the sweep goes on."""

import os
import sys
import time

import duckdb
import pandas as pd
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
)

import check_oracle  # noqa: E402

SLOW = "SELECT sum(a.range * b.range) AS s FROM range(1000000) a, range(1000000) b"


def test_slow_oracle_is_interrupted():
    con = duckdb.connect()
    t0 = time.perf_counter()
    with pytest.raises(check_oracle.OracleTimeout):
        check_oracle.run_oracle(con, SLOW, limit=0.5)
    assert time.perf_counter() - t0 < 5
    # the connection still answers the next oracle
    assert check_oracle.run_oracle(con, "SELECT 42 AS x", limit=5)["x"].tolist() == [42]


def test_timed_out_oracle_fails_with_marker(capsys):
    con = duckdb.connect()
    t0 = time.perf_counter()
    ok = check_oracle.check_query(
        "slow", lambda _: pd.DataFrame({"s": [1]}), SLOW, con, "", limit=0.5
    )
    assert time.perf_counter() - t0 < 5
    assert not ok
    assert capsys.readouterr().out.startswith("[TIME] slow:")


def test_matching_oracle_passes(capsys):
    con = duckdb.connect()
    ok = check_oracle.check_query(
        "q", lambda _: pd.DataFrame({"x": [2, 1]}), "SELECT * FROM (VALUES (1), (2)) t(x)", con, ""
    )
    assert ok
    assert capsys.readouterr().out.startswith("[ OK ] q:")
