"""Windowed / per-group ranking operators (SURVEY §2.10 extensions).

Every operator follows the bucket-group pattern (``stages/exchange.py``):
one ``keyed_exchange`` on the group key — bounded reducer count at any
group cardinality — and each reducer runs ONE vectorized pass over its
bucket, never one Python call per group.

- ``grouped_top_k``: top-k rows per group by an order column with a
  deterministic tie-break — the distributed form of
  ``row_number() OVER (PARTITION BY g ORDER BY v DESC, tie) <= k``.
- ``sliding_window_counts``: per-key event counts over a sliding window of
  ``n_units`` time buckets (e.g. a 3-hour window sliding by 1 hour) — the
  distributed form of ``sum(n) OVER (PARTITION BY key ORDER BY bucket
  RANGE BETWEEN n-1 PRECEDING AND CURRENT ROW)``.  Implemented as a
  shifted self-merge per bucket: each (key, hour) row sums the counts of
  its ``n_units`` trailing hour slots; rows exist only for hours where the
  key has events (matching the SQL windowed-CTE shape).
- ``funnel_counts``: ordered-step conversion funnel (view → click →
  purchase) with earliest-qualifying-chain semantics — one bucketed
  exchange, per-step partial counts out of each bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .exchange import keyed_exchange


def grouped_top_k(
    ds: ray.data.Dataset,
    group_cols: list[str] | str,
    order_col: str,
    k: int,
    descending: bool = True,
    tie_cols: list[str] | None = None,
    rank_col: str = "rank",
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Top-k rows per group, ranked by ``order_col`` (ties by ``tie_cols``).

    Every row of a group hashes to the same bucket, so the per-bucket
    sort + ``groupby.head(k)`` is exact; output carries ``rank_col``
    (1-based within group).
    """
    group_cols = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    tie_cols = tie_cols or []

    sort_cols = group_cols + [order_col] + tie_cols
    ascending = [True] * len(group_cols) + [not descending] + [True] * len(tie_cols)

    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, ascending=ascending, kind="mergesort")
        g = g.groupby(group_cols, sort=False).head(k).copy()
        g[rank_col] = g.groupby(group_cols, sort=False).cumcount() + 1
        return g

    return keyed_exchange(
        ds, group_cols, topk_bucket, n_buckets, batch_format="pandas"
    )


def sessionize(
    ds: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    gap_minutes: float = 30,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Full sessionization: one output row per (key, session) span.

    Output: (key, session_idx 1-based, start_ts, end_ts, n_events).  The
    distributed form of the gap-break window idiom
    (``sum(gap_flag) OVER (PARTITION BY key ORDER BY ts)`` then group by
    session id): bucket-group by key hash, one vectorized pandas pass per
    bucket — sort, flag breaks, cumulative session ids, groupby-agg spans.
    """
    gap64 = np.timedelta64(int(gap_minutes * 60_000_000), "us")

    def spans(g: pa.Table) -> pa.Table:
        # Arrow/numpy-native per-bucket pass (no pandas round-trip): sort,
        # boundary flags, then every span statistic is a slice of the
        # session-start positions — start_ts/end_ts by take, n_events by
        # diff, per-key 1-based session_idx by a segmented arange
        import pyarrow.compute as pc

        if g.num_rows == 0:
            return pa.table(
                {
                    key_col: pa.array([], g[key_col].type),
                    "session_idx": pa.array([], pa.int64()),
                    "start_ts": pa.array([], g[ts_col].type),
                    "end_ts": pa.array([], g[ts_col].type),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        g = g.take(
            pc.sort_indices(
                g, sort_keys=[(key_col, "ascending"), (ts_col, "ascending")]
            )
        )
        key = g[key_col].to_numpy(zero_copy_only=False)
        ts = g[ts_col].to_numpy(zero_copy_only=False)
        n = len(key)
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = key[1:] != key[:-1]
        starts = new_key.copy()
        starts[1:] |= (ts[1:] - ts[:-1]) > gap64
        sess = np.flatnonzero(starts)  # first row of each session
        ends = np.append(sess[1:], n) - 1  # last row of each session
        # per-key 1-based counter: subtract each key's first session pos
        new_key_sess = new_key[sess]
        seg_first = np.maximum.accumulate(
            np.where(new_key_sess, np.arange(len(sess)), 0)
        )
        sess_arr = pa.array(sess)
        return pa.table(
            {
                key_col: g[key_col].take(sess_arr),
                "session_idx": pa.array(
                    np.arange(len(sess)) - seg_first + 1, type=pa.int64()
                ),
                "start_ts": g[ts_col].take(sess_arr),
                "end_ts": g[ts_col].take(pa.array(ends)),
                "n_events": pa.array(
                    np.append(sess[1:], n) - sess, type=pa.int64()
                ),
            }
        )

    return keyed_exchange(ds, [key_col], spans, n_buckets)


def sliding_window_counts(
    ds: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    n_units: int = 3,
    unit: str = "hour",
    out_col: str | None = None,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-key sliding-window event counts over ``n_units`` time buckets.

    Output rows: (key, bucket_ts, n, ``out_col``) — one per (key, bucket)
    that has ≥1 event; ``out_col`` sums the trailing ``n_units`` buckets.
    Partial counts combine inside the map stage (per-batch pre-aggregation)
    before the single hash shuffle.
    """
    import pyarrow.compute as pc

    out_col = out_col or f"n_{n_units}{unit[0]}"
    delta = pd.Timedelta(**{unit + "s": 1})

    def pre_agg(batch: pa.Table) -> pa.Table:
        # combiner: collapse to per-(key, bucket) partial counts early
        t = pa.table(
            {
                key_col: batch[key_col],
                "bucket_ts": pc.floor_temporal(batch[ts_col], unit=unit),
            }
        )
        g = t.group_by([key_col, "bucket_ts"]).aggregate([([], "count_all")])
        return g.rename_columns([key_col, "bucket_ts", "n"])

    def window_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # merge duplicate partials from different input blocks, then the
        # shifted self-merge: trailing-window sum without materializing a
        # dense time axis
        g = g.groupby([key_col, "bucket_ts"], as_index=False)["n"].sum()
        acc = g.copy()
        acc[out_col] = acc["n"]
        for off in range(1, n_units):
            shifted = g.copy()
            shifted["bucket_ts"] = shifted["bucket_ts"] + off * delta
            acc = acc.merge(
                shifted,
                on=[key_col, "bucket_ts"],
                how="left",
                suffixes=("", f"_o{off}"),
            )
            acc[out_col] = acc[out_col] + acc[f"n_o{off}"].fillna(0)
            acc = acc.drop(columns=[f"n_o{off}"])
        acc[out_col] = acc[out_col].astype("int64")
        return acc[[key_col, "bucket_ts", "n", out_col]]

    return keyed_exchange(
        ds.map_batches(pre_agg, batch_format="pyarrow"),
        [key_col],
        window_bucket,
        n_buckets,
        batch_format="pandas",
    )


def funnel_counts(
    ds: ray.data.Dataset,
    steps: list[str],
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    n_buckets: int = 32,
) -> pd.DataFrame:
    """Ordered-step conversion funnel: how many users reach each step.

    Semantics (earliest-qualifying chain): a user reaches step k when an
    event of type ``steps[k]`` exists STRICTLY AFTER the user's step-(k-1)
    conversion time, where the conversion time is the earliest such event;
    step 0's time is the user's first ``steps[0]`` event.

    Shape: rows filter to the step types at the scan (everything else never
    enters the exchange), bucket once by ``hash(user) % n_buckets``, and
    each bucket runs one vectorized pandas chain (per-step ``groupby.min``
    + merge, len(steps) passes over the bucket, zero per-user calls).
    Buckets emit per-step partial counts; the driver sums
    ``n_buckets × len(steps)`` rows.
    """
    step_set = list(steps)

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(batch[type_col], value_set=pa.array(step_set))
        return batch.filter(keep).select([user_col, ts_col, type_col])

    def funnel_bucket(group: pd.DataFrame) -> pd.DataFrame:
        counts = []
        prev = None  # DataFrame[user_col, "__t_prev"]
        for k, step in enumerate(step_set):
            ev = group[group[type_col] == step][[user_col, ts_col]]
            if prev is not None:
                ev = ev.merge(prev, on=user_col)
                ev = ev[ev[ts_col] > ev["__t_prev"]]
            cur = (
                ev.groupby(user_col, as_index=False)[ts_col]
                .min()
                .rename(columns={ts_col: "__t_prev"})
            )
            counts.append(len(cur))
            prev = cur
        return pd.DataFrame(
            {
                "step": pd.Series(range(1, len(step_set) + 1), dtype="int64"),
                "event_type": step_set,
                "n_users": pd.Series(counts, dtype="int64"),
            }
        )

    partials = keyed_exchange(
        ds.map_batches(prep, batch_format="pyarrow"),
        [user_col],
        funnel_bucket,
        n_buckets,
        batch_format="pandas",
    ).to_pandas()
    out = partials.groupby(["step", "event_type"], as_index=False).agg(
        n_users=("n_users", "sum")
    )
    return out.sort_values("step").reset_index(drop=True)


def grouped_ranks(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    tiebreak: list[str] | None = None,
    descending: bool = True,
    n_buckets: int = 32,
    out_prefix: str = "",
) -> ray.data.Dataset:
    """Per-partition ranking windows: ``row_number`` / ``rank`` /
    ``dense_rank`` OVER (PARTITION BY group ORDER BY order) — the
    PARTITION BY counterpart of `scan.global_order_ranks` (which ranks over
    ONE global order and therefore needs range partitioning; here every
    partition is independent, so plain hash bucketing suffices).

    One ``hash(group) % n_buckets`` exchange; each bucket runs a single
    vectorized pandas pass: sort by (group, order, *tiebreak), positional
    numbers per group via ``groupby.cumcount``, ``rank`` / ``dense_rank``
    from the SQL ``rank(method='min'/'dense')`` kernels on the order column
    alone (ties share ranks exactly as in SQL; ``tiebreak`` pins
    ``row_number`` deterministically).
    """
    tiebreak = list(tiebreak or [])
    rn, rk, dr = (
        out_prefix + "row_number",
        out_prefix + "rank",
        out_prefix + "dense_rank",
    )

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        asc = [True] + [not descending] + [True] * len(tiebreak)
        g = g.sort_values(
            [group_col, order_col] + tiebreak,
            ascending=asc,
            kind="mergesort",
        )
        grp = g.groupby(group_col, sort=False)
        g[rn] = (grp.cumcount() + 1).astype("int64")
        g[rk] = (
            grp[order_col]
            .rank(method="min", ascending=not descending)
            .astype("int64")
        )
        g[dr] = (
            grp[order_col]
            .rank(method="dense", ascending=not descending)
            .astype("int64")
        )
        return g

    return keyed_exchange(
        ds, [group_col], rank_bucket, n_buckets, batch_format="pandas"
    )
