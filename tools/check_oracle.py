"""Local mimic of the driver's correctness gate.

Runs each queries()[name](sf_dir) and the matching oracle_sql()[name] in
DuckDB over the same parquet dir; compares row count, column names, and
order-insensitive values (sorted by all columns, float-rounded).

Each oracle runs under ORACLE_TIME_LIMIT_S: one that runs past it prints
[TIME], counts as a failure, and the sweep goes on to the next query.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import threading
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Above the slowest oracle that finishes (doc_near_dedup, 584-740 s at
# sf0.1 on a 4-vCPU host), below part_triple_copurchase (over 14 min).
ORACLE_TIME_LIMIT_S = 900

TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == np.float64 or df[c].dtype == np.float32:
            df[c] = df[c].astype(np.float64).round(9)
    df = df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)
    return df


class OracleTimeout(Exception):
    """An oracle query ran past its time limit and was interrupted."""


def run_oracle(
    con: duckdb.DuckDBPyConnection, sql: str, limit: float = ORACLE_TIME_LIMIT_S
) -> pd.DataFrame:
    """``sql`` on ``con`` as a DataFrame; a ``threading.Timer`` interrupts
    the connection after ``limit`` seconds, and that raises
    ``OracleTimeout``."""
    timer = threading.Timer(limit, con.interrupt)
    timer.start()
    try:
        return con.sql(sql).df()
    except duckdb.InterruptException as e:
        raise OracleTimeout(f"oracle ran past {limit:g} s") from e
    finally:
        timer.cancel()


def check_query(
    name: str,
    fn,
    oracle: str | None,
    con: duckdb.DuckDBPyConnection,
    sf_dir: str,
    limit: float = ORACLE_TIME_LIMIT_S,
) -> bool:
    """Run query ``name`` and its oracle, print one status line (and a
    value diff on a mismatch), and say whether it passed."""
    t_ray = time.perf_counter()
    try:
        got = canon(to_pandas(fn(sf_dir)))
    except Exception as e:
        print(f"[ERR ] {name}: query raised {type(e).__name__}: {e}")
        return False
    t_ray = time.perf_counter() - t_ray
    if oracle is None:
        print(f"[rows] {name}: {len(got)} rows (rows-only check)"
              f"  [ray {t_ray:.1f}s]")
        return True
    t_sql = time.perf_counter()
    try:
        want = canon(run_oracle(con, oracle, limit))
    except OracleTimeout as e:
        print(f"[TIME] {name}: {e}  [ray {t_ray:.1f}s]")
        return False
    except Exception as e:
        print(f"[ERR ] {name}: oracle raised {type(e).__name__}: {e}")
        return False
    t_sql = time.perf_counter() - t_sql
    ok_rows = len(got) == len(want)
    ok_cols = list(got.columns) == list(want.columns)
    ok_vals = False
    if ok_rows and ok_cols:
        try:
            pd.testing.assert_frame_equal(
                got, want, check_dtype=False, check_exact=False, rtol=0, atol=1e-9
            )
            ok_vals = True
        except AssertionError as e:
            msg = str(e).splitlines()[0]
    if ok_rows and ok_cols and ok_vals:
        print(
            f"[ OK ] {name}: {len(got)} rows"
            f"  [ray {t_ray:.1f}s sql {t_sql:.1f}s]"
        )
        return True
    print(
        f"[FAIL] {name}: rows {len(got)} vs {len(want)}, "
        f"cols {list(got.columns)} vs {list(want.columns)}"
    )
    if ok_rows and ok_cols:
        print("   value diff:", msg)
        diff_mask = ~(got.eq(want) | (got.isna() & want.isna()))
        rows_bad = diff_mask.any(axis=1)
        print("   got :", got[rows_bad].head(3).to_dict("records"))
        print("   want:", want[rows_bad].head(3).to_dict("records"))
    return False


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray

    ray.init(
        address="local",
        num_cpus=8,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        if not check_query(name, fn, oracles.get(name), con, sf_dir):
            failures.append(name)
    ray.shutdown()
    print("FAILURES:", failures if failures else "none")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
