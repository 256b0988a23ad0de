"""Mergeable sketches for wide aggregations (training-data extensions).

- ``approx_distinct``: HyperLogLog distinct count.  Each batch emits one
  register-array partial (a 2^p-byte row); partials merge by elementwise
  max — associative/commutative, so the reduction is shuffle-free and the
  driver merge is O(n_batches × 2^p) bytes regardless of data size.
  Standard bias-corrected estimator (Flajolet et al. 2007 / the HLL
  corrections popularized by Heule et al. 2013, public formulas).
- ``exact_quantiles_discrete``: exact distributed quantiles for columns of
  bounded distinct cardinality (dates, quantities, categorical codes):
  value→count aggregate (small), then the discrete quantile read off the
  cumulative distribution — matching SQL ``quantile_disc`` semantics
  (value at 1-indexed position ``ceil(q·N)`` of the sorted multiset).
- ``grouped_quantiles_discrete``: the per-group form — (group, value)
  count partials, one bucketed exchange by group, vectorized cumulative
  read-off per bucket.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..functions.hashing import stable_hash_u64
from .exchange import keyed_exchange


def _hll_partial(values, p: int) -> np.ndarray:
    """Register array (2^p uint8) for one batch of values."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    h = stable_hash_u64([str(v) for v in values])
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    # rank = leading zeros of the remaining bits + 1; the ORed-in low guard
    # bits cap it at 64-p+1 (standard HLL).  Vectorized leading-zero count
    # via a 6-step binary reduction (float log2 loses precision at 64 bits).
    cur = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
    counts = np.zeros(len(h), dtype=np.uint8)
    shift = 32
    while shift:
        top_zero = (cur >> np.uint64(64 - shift)) == 0
        counts[top_zero] += shift
        cur[top_zero] = cur[top_zero] << np.uint64(shift)
        shift //= 2
    rank = (counts + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    m = float(len(regs))
    inv = np.ldexp(1.0, -regs.astype(np.int64))  # 2^-reg
    alpha = 0.7213 / (1.0 + 1.079 / m)
    raw = alpha * m * m / inv.sum()
    zeros = int((regs == 0).sum())
    if raw <= 2.5 * m and zeros:
        return m * np.log(m / zeros)  # linear counting for small cardinality
    return raw


def approx_distinct(
    ds: ray.data.Dataset, col: str, p: int = 14
) -> dict:
    """HLL distinct-count estimate of a column.

    Returns {"estimate": float, "registers": ndarray} — the registers are
    the mergeable state (union more datasets by elementwise max).
    Standard error ≈ 1.04/√(2^p) (~0.8% at p=14).
    """

    def partial(batch: pa.Table) -> pa.Table:
        regs = _hll_partial(batch[col].to_pylist(), p)
        return pa.table({"regs": pa.array([regs.tobytes()], type=pa.binary())})

    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        merged = np.maximum(merged, np.frombuffer(row["regs"], dtype=np.uint8))
    return {"estimate": float(_hll_estimate(merged)), "registers": merged}


def _values_at_ranks(
    counts_ds: ray.data.Dataset,
    col: str,
    ranks: list[int],
    total: int,
    n_bins: int = 65_536,
) -> dict[int, float]:
    """Distributed order-statistic read-off over a (value, count) Dataset:
    the value at each 1-indexed ``rank`` of the sorted multiset, WITHOUT
    materializing the count table on the driver.

    Two-phase distributed selection: (1) one streaming pass folds exact
    per-range-bin count partials (fixed-width bins over [min, max] —
    ``n_bins`` int64s to the driver, independent of cardinality); the
    cumulative bin counts locate each rank's bin.  (2) a filter pass
    collects ONLY the probed bins' (value, count) rows (~distinct/n_bins
    each) for the exact within-bin read-off.  The driver never holds more
    than ``n_bins + probed-bin rows``."""
    import pyarrow.compute as pc

    def mm_partial(batch: pa.Table) -> pa.Table:
        mm = pc.min_max(batch[col])
        return pa.table(
            {
                "lo": pa.array([mm["min"].as_py()], type=pa.float64()),
                "hi": pa.array([mm["max"].as_py()], type=pa.float64()),
            }
        )

    lo = hi = None
    for row in counts_ds.map_batches(
        mm_partial, batch_format="pyarrow"
    ).take_all():
        if row["lo"] is not None and (lo is None or row["lo"] < lo):
            lo = float(row["lo"])
        if row["hi"] is not None and (hi is None or row["hi"] > hi):
            hi = float(row["hi"])
    if lo is None:
        return {}
    width = (hi - lo) / n_bins if hi > lo else 1.0

    def bin_of(vals: np.ndarray) -> np.ndarray:
        b = np.floor((vals - lo) / width).astype(np.int64)
        return np.clip(b, 0, n_bins - 1)

    def bin_partial(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        acc = np.bincount(bin_of(v), weights=n, minlength=n_bins)
        # int64-valued float weights < 2^53: exact
        return pa.table({"bins": pa.array([acc.astype(np.int64).tolist()])})

    bins = np.zeros(n_bins, dtype=np.int64)
    for row in counts_ds.map_batches(
        bin_partial, batch_format="pyarrow"
    ).take_all():
        bins += np.asarray(row["bins"], dtype=np.int64)
    cumbin = bins.cumsum()
    assert int(cumbin[-1]) == total

    need_bins = sorted(
        {int(np.searchsorted(cumbin, r)) for r in ranks if 1 <= r <= total}
    )
    need_arr = np.asarray(need_bins, dtype=np.int64)

    def probe(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = np.isin(bin_of(v), need_arr)
        return pa.table(
            {
                "v": pa.array(v[keep], type=pa.float64()),
                "n": pc.cast(batch["n"], pa.int64()).filter(pa.array(keep)),
            }
        )

    rows = counts_ds.map_batches(probe, batch_format="pyarrow").to_pandas()
    rows = rows.sort_values("v", kind="mergesort").reset_index(drop=True)
    rv = rows["v"].to_numpy(dtype=np.float64)
    rb = bin_of(rv)
    rn = rows["n"].to_numpy(dtype=np.int64)
    out: dict[int, float] = {}
    for r in ranks:
        if not (1 <= r <= total):
            continue
        b = int(np.searchsorted(cumbin, r))
        before = int(cumbin[b - 1]) if b > 0 else 0
        mask = rb == b
        local_cum = rn[mask].cumsum()
        out[r] = float(rv[mask][int(np.searchsorted(local_cum, r - before))])
    return out


def exact_quantiles_discrete(
    ds: ray.data.Dataset,
    col: str,
    quantiles: list[float],
    max_driver_rows: int = 262_144,
) -> dict[float, float]:
    """Exact quantiles via a value→count aggregate (bounded-cardinality cols).

    One hash shuffle keyed by the value (cardinality = distinct values, NOT
    row count).  The cumulative read-off runs on the driver while the count
    table fits (``<= max_driver_rows`` distinct values); above the bound it
    switches to the distributed two-phase selection (``_values_at_ranks``)
    so unbounded domains never materialize.  Matches ``quantile_disc``: the
    element at 1-indexed position ``ceil(q·N)`` of the sorted multiset.
    """
    from ray.data.aggregate import Count

    counts_ds = ds.groupby(col).aggregate(Count(alias_name="n")).materialize()
    if counts_ds.count() > max_driver_rows:
        from ray.data.aggregate import Sum

        total = int(counts_ds.aggregate(Sum("n", alias_name="t"))["t"])
        ranks = {
            q: max(1, int(np.ceil(q * total))) if total else None
            for q in quantiles
        }
        vals = _values_at_ranks(
            counts_ds, col, [r for r in ranks.values() if r], total
        )
        return {
            q: (float("nan") if r is None else vals[r])
            for q, r in ranks.items()
        }
    counts = counts_ds.to_pandas().sort_values(col)
    values = counts[col].to_numpy()
    cum = counts["n"].to_numpy().cumsum()
    total = int(cum[-1]) if len(cum) else 0
    out = {}
    for q in quantiles:
        if total == 0:
            out[q] = float("nan")
            continue
        pos = max(1, int(np.ceil(q * total)))
        out[q] = float(values[int(np.searchsorted(cum, pos))])
    return out


def exact_quantiles_cont(
    ds: ray.data.Dataset,
    col: str,
    quantiles: list[float],
    n_buckets: int = 64,
    max_driver_rows: int = 262_144,
) -> dict[float, float]:
    """Exact INTERPOLATED quantiles (SQL ``quantile_cont`` /
    ``percentile_cont``): linear interpolation between the values at
    0-indexed positions ``floor(p)`` and ``floor(p)+1`` where
    ``p = q·(N−1)`` over the sorted multiset.

    Same value→count shape as ``exact_quantiles_discrete``, but the count
    aggregate runs through the combiner (`rollup.grouped_agg`) because a
    continuous column's distinct cardinality approaches the row count —
    exactly the regime where the native sort-based groupby path collapses
    (measured 10–20× in this repo; see `rollup.py`).  The (value, count)
    table reaches the driver only while it fits (``<= max_driver_rows``
    distinct values); above the bound the read-off switches to the
    distributed two-phase selection (``_values_at_ranks``) — exact range
    bin counts locate each rank's bin, then only the probed bins'
    rows are collected — so truly continuous domains never materialize
    on the driver.  Interpolation mirrors the SQL engine's
    ``v_lo + frac·(v_hi − v_lo)`` double expression term-for-term."""
    from .rollup import grouped_agg

    counts_ds = grouped_agg(
        ds.select_columns([col]),
        keys=[col],
        aggs={"n": (col, "count")},
        n_buckets=n_buckets,
        partial=True,
    ).materialize()
    if counts_ds.count() > max_driver_rows:
        from ray.data.aggregate import Sum

        total = int(counts_ds.aggregate(Sum("n", alias_name="t"))["t"])
        if total == 0:
            return {q: float("nan") for q in quantiles}
        wanted: dict[float, tuple] = {}
        ranks: set[int] = set()
        for q in quantiles:
            p = q * (total - 1)
            lo = int(np.floor(p))
            frac = p - lo
            need_hi = frac != 0.0 and lo + 1 < total
            wanted[q] = (lo, frac, need_hi)
            ranks.add(lo + 1)
            if need_hi:
                ranks.add(lo + 2)
        vals = _values_at_ranks(counts_ds, col, sorted(ranks), total)
        out = {}
        for q, (lo, frac, need_hi) in wanted.items():
            v_lo = vals[lo + 1]
            out[q] = (
                v_lo + frac * (vals[lo + 2] - v_lo) if need_hi else v_lo
            )
        return out
    counts = counts_ds.to_pandas().sort_values(col)
    values = counts[col].to_numpy(dtype=np.float64)
    cum = counts["n"].to_numpy().cumsum()
    total = int(cum[-1]) if len(cum) else 0
    out: dict[float, float] = {}
    for q in quantiles:
        if total == 0:
            out[q] = float("nan")
            continue
        p = q * (total - 1)
        lo = int(np.floor(p))
        frac = p - lo
        v_lo = float(values[int(np.searchsorted(cum, lo + 1))])
        if frac == 0.0 or lo + 1 >= total:
            out[q] = v_lo
        else:
            v_hi = float(values[int(np.searchsorted(cum, lo + 2))])
            out[q] = v_lo + frac * (v_hi - v_lo)
    return out


def approx_quantiles_hist(
    ds: ray.data.Dataset,
    col: str,
    quantiles: list[float],
    n_bins: int = 4096,
) -> dict[float, float]:
    """Mergeable histogram quantiles for continuous columns.

    ``exact_quantiles_discrete`` needs bounded distinct cardinality; this
    is the unbounded-column member of the sketch family.  Two streaming
    passes: (1) global min/max (order-independent fold), (2) fixed-width
    bin counts — one int64[n_bins] partial per batch, summed on the driver
    (mergeable, commutative: the result is a pure function of the data, so
    it hash-matches a SQL reimplementation exactly, unlike floating sums).

    The reported quantile is the UPPER EDGE of the bin holding the
    1-indexed position ``ceil(q·N)`` of the sorted multiset — error ≤ one
    bin width = (max−min)/n_bins.  Bin indexing clamps into
    [0, n_bins−1] so v == max lands in the last bin under either IEEE
    rounding of (v−min)/w.
    """
    import pyarrow.compute as pc

    def mm_partial(batch: pa.Table) -> pa.Table:
        mm = pc.min_max(batch[col])
        return pa.table(
            {
                "lo": pa.array([mm["min"].as_py()], type=pa.float64()),
                "hi": pa.array([mm["max"].as_py()], type=pa.float64()),
            }
        )

    lo = hi = None
    for row in ds.map_batches(mm_partial, batch_format="pyarrow").take_all():
        if row["lo"] is not None and (lo is None or row["lo"] < lo):
            lo = row["lo"]
        if row["hi"] is not None and (hi is None or row["hi"] > hi):
            hi = row["hi"]
    if lo is None:
        return {q: float("nan") for q in quantiles}
    if lo == hi:
        return {q: float(lo) for q in quantiles}
    w = (hi - lo) / n_bins

    def hist_partial(batch: pa.Table) -> pa.Table:
        v = batch[col].drop_null().to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        idx = np.clip(
            np.floor((v - lo) / w).astype(np.int64), 0, n_bins - 1
        )
        counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
        return pa.table({"counts": pa.array([counts.tolist()])})

    total = np.zeros(n_bins, dtype=np.int64)
    for row in ds.map_batches(hist_partial, batch_format="pyarrow").take_all():
        total += np.asarray(row["counts"], dtype=np.int64)
    cum = total.cumsum()
    n = int(cum[-1])
    out = {}
    for q in quantiles:
        pos = max(1, int(np.ceil(q * n)))
        b = int(np.searchsorted(cum, pos))
        out[q] = float(lo + (b + 1) * w)
    return out


def heavy_hitters(
    ds: ray.data.Dataset,
    col: str,
    theta: float = 0.001,
) -> "list[tuple]":
    """EXACT frequent items: every value with frequency ≥ theta·N, with its
    exact count — two passes, no shuffle, provably complete.

    Pass 1 is a per-batch Misra-Gries summary with capacity ceil(2/theta),
    merged on the driver (summaries are mergeable: add counters, then
    subtract the (cap+1)-th largest — Agarwal et al., "Mergeable
    Summaries", PODS 2012).  MG guarantees every item with true frequency
    > N/cap survives; cap = 2/theta leaves safety margin.  Pass 2 re-counts
    ONLY the surviving candidates exactly (broadcast set, per-batch
    vectorized count, driver sum of int partials) and filters to
    ≥ ceil(theta·N) — so the output equals the exact GROUP-BY answer for
    the threshold, at O(1/theta) driver memory instead of a full
    distinct-value shuffle.

    Returns [(value, count)] sorted by (-count, value).
    """
    import collections
    import math

    cap = int(math.ceil(2.0 / theta))

    def mg_partial(batch: pa.Table) -> pa.Table:
        vals = batch[col].drop_null().to_pylist()
        counts = collections.Counter(vals)
        if len(counts) > cap:
            # keep top-cap by (count, value) — deterministic truncation;
            # subtracting the (cap+1)-th count preserves the MG guarantee
            items = sorted(
                counts.items(), key=lambda kv: (-kv[1], str(kv[0]))
            )
            cut = items[cap][1]
            items = [(k, c - cut) for k, c in items[:cap] if c > cut]
            if not items:
                # every count hit the cut (all-distinct batch): still emit
                # one zero-count row so the batch's N reaches the driver
                items = [(vals[0], 0)]
        else:
            items = list(counts.items())
        return pa.table(
            {
                "v": pa.array([str(k) for k, _ in items], type=pa.string()),
                "c": pa.array([c for _, c in items], type=pa.int64()),
                "n": pa.array(
                    [len(vals)] + [0] * (len(items) - 1) if items else [],
                    type=pa.int64(),
                ),
            }
        )

    merged: collections.Counter = collections.Counter()
    total = 0
    for row in ds.map_batches(mg_partial, batch_format="pyarrow").take_all():
        merged[row["v"]] += row["c"]
        total += row["n"]
        if len(merged) > cap:
            items = sorted(
                merged.items(), key=lambda kv: (-kv[1], kv[0])
            )
            cut = items[cap][1]
            merged = collections.Counter(
                {k: c - cut for k, c in items[:cap] if c > cut}
            )

    candidates = set(merged)
    if not candidates:
        return []
    cand_ref = ray.put(candidates)

    def count_partial(batch: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        counts = collections.Counter(
            s
            for s in (str(x) for x in batch[col].drop_null().to_pylist())
            if s in cs
        )
        return pa.table(
            {
                "v": pa.array(list(counts), type=pa.string()),
                "c": pa.array(list(counts.values()), type=pa.int64()),
            }
        )

    exact: collections.Counter = collections.Counter()
    for row in ds.map_batches(count_partial, batch_format="pyarrow").take_all():
        exact[row["v"]] += row["c"]
    import math as _m

    thresh = int(_m.ceil(theta * total))
    out = [(v, c) for v, c in exact.items() if c >= thresh]
    out.sort(key=lambda kv: (-kv[1], kv[0]))
    return out


def _grouped_read_off(
    ds: "ray.data.Dataset", group_col: str, col: str, read_off, n_buckets: int
) -> "pd.DataFrame":
    """``read_off`` over (group, value, ``__n``) count partials, one keyed
    exchange by group; its rows sorted by group."""

    def local(batch: pa.Table) -> pa.Table:
        g = (
            batch.select([group_col, col])
            .group_by([group_col, col])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns([group_col, col, "__n"])

    parts = keyed_exchange(
        ds.map_batches(local, batch_format="pyarrow"),
        [group_col],
        read_off,
        n_buckets,
        batch_format="pandas",
    ).to_pandas()
    return parts.sort_values(group_col).reset_index(drop=True)


def grouped_quantiles_discrete(
    ds: "ray.data.Dataset",
    group_col: str,
    col: str,
    quantiles: list[float],
    n_buckets: int = 32,
) -> "pd.DataFrame":
    """Exact per-group quantiles (the grouped form of
    ``exact_quantiles_discrete``; same ``quantile_disc`` semantics: the
    element at 1-indexed position ``ceil(q·N_g)`` of each group's sorted
    multiset).

    Shape: per-batch (group, value) count partials — the exchange carries
    the distinct-pair set, not the rows — then one bucketed shuffle by
    group and a vectorized cumulative read-off per bucket (sort + grouped
    cumsum + one searchsorted-style mask per q; never a Python call per
    group).  Wide output: one ``p{q}`` column per requested quantile.
    """
    import pandas as pd

    qnames = [f"p{int(round(q * 100))}" for q in quantiles]

    def read_off(group: pd.DataFrame) -> pd.DataFrame:
        df = (
            group.groupby([group_col, col], as_index=False)["__n"]
            .sum()  # merge partials from different input blocks
            .sort_values([group_col, col], kind="stable")
        )
        cum = df.groupby(group_col)["__n"].cumsum()
        total = df.groupby(group_col)["__n"].transform("sum")
        out = df[[group_col]].drop_duplicates().reset_index(drop=True)
        for q, name in zip(quantiles, qnames):
            target = np.maximum(1, np.ceil(q * total).astype("int64"))
            hit = df[cum >= target].groupby(group_col, as_index=False)[col].first()
            out = out.merge(hit.rename(columns={col: name}), on=group_col)
        return out

    return _grouped_read_off(ds, group_col, col, read_off, n_buckets)


def grouped_quantiles_cont(
    ds: "ray.data.Dataset",
    group_col: str,
    col: str,
    quantiles: list[float],
    n_buckets: int = 32,
) -> "pd.DataFrame":
    """Exact per-group INTERPOLATED quantiles (``quantile_cont`` /
    ``percentile_cont`` per group) — the grouped form of
    ``exact_quantiles_cont``, same shuffle shape as
    ``grouped_quantiles_discrete``: the exchange carries the distinct
    (group, value) count pairs, the per-bucket read-off is vectorized
    (grouped cumsum + per-group target mapping), and interpolation mirrors
    SQL's ``v_lo + frac·(v_hi − v_lo)`` with per-group ``frac =
    q·(N_g−1) − floor``."""
    import pandas as pd

    qnames = [f"p{int(round(q * 100))}" for q in quantiles]

    def read_off(group: pd.DataFrame) -> pd.DataFrame:
        df = (
            group.groupby([group_col, col], as_index=False)["__n"]
            .sum()
            .sort_values([group_col, col], kind="stable")
        )
        cum = df.groupby(group_col)["__n"].cumsum()
        totals = df.groupby(group_col)["__n"].sum()  # per-group N
        out = pd.DataFrame({group_col: totals.index})
        for q, name in zip(quantiles, qnames):
            p = q * (totals - 1)
            lo_t = np.floor(p).astype("int64") + 1  # 1-based rank of v_lo
            frac = (p - np.floor(p)).rename("f")
            hi_t = np.minimum(lo_t + 1, totals)
            row_lo = df[group_col].map(lo_t)
            row_hi = df[group_col].map(hi_t)
            v_lo = (
                df[cum >= row_lo]
                .groupby(group_col)[col]
                .first()
                .astype("float64")
            )
            v_hi = (
                df[cum >= row_hi]
                .groupby(group_col)[col]
                .first()
                .astype("float64")
            )
            res = v_lo + frac * (v_hi - v_lo)
            res = res.where(frac > 0, v_lo)  # frac == 0: exact element
            out[name] = out[group_col].map(res)
        return out

    return _grouped_read_off(ds, group_col, col, read_off, n_buckets)


def approx_distinct_grouped(
    ds: ray.data.Dataset, col: str, group_col: str, p: int = 14
) -> ray.data.Dataset:
    """Per-group HLL distinct estimate: (group, estimate) rows.

    Each batch emits ONE (group, 2^p-byte register array) partial per
    group present in the batch; the only exchange is keyed by the group
    and moves register blobs (batches × groups × 2^p bytes), never value
    rows.  Group-keyed ``map_groups`` is fine here because the operator
    targets LOW-cardinality group columns (the registers themselves are
    2^p bytes per group — per-user HLLs would be the wrong tool); the
    per-group merge is an elementwise ``np.maximum`` reduce."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, col]).to_pandas()
        groups, blobs = [], []
        for g, sub in df.groupby(group_col, sort=False):
            groups.append(g)
            blobs.append(_hll_partial(sub[col].tolist(), p).tobytes())
        return pa.table(
            {
                group_col: pa.array(groups),
                "regs": pa.array(blobs, type=pa.binary()),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out_g, out_e = [], []
        for key, sub in g.groupby(group_col, sort=False):
            m = np.zeros(1 << p, dtype=np.uint8)
            for blob in sub["regs"]:
                m = np.maximum(m, np.frombuffer(blob, dtype=np.uint8))
            out_g.append(key)
            out_e.append(float(_hll_estimate(m)))
        return pd.DataFrame({group_col: out_g, "estimate": out_e})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(merge, batch_format="pandas")
    )


# odd 64-bit golden-ratio constant; row r's hash = splitmix64(u + r*GOLD)
_CM_GOLD = 0x9E3779B97F4A7C15


def count_min(
    ds: ray.data.Dataset,
    col: str,
    d: int = 4,
    w: int = 256,
    n_buckets: int = 8,
) -> np.ndarray:
    """Mergeable Count-Min sketch (Cormode & Muthukrishnan 2005) over a
    value stream: a ``d × w`` int64 count matrix; the estimate of any
    value's frequency is the MIN over its ``d`` cells — always an
    OVER-estimate, with error ≤ 2N/w at probability 1−(1/2)^d.

    Row hashes derive from one md5-based 64-bit value hash ``u``:
    ``h_r = splitmix64((u + r·GOLD) mod 2^64) mod w`` — deterministic, so
    the sketch (and every estimate) is a pure function of the data and the
    DuckDB oracle rebuilds it bit-equal.  Shuffle shape: per-batch
    vectorized partials (≤ d·w nonzero ``(r, b, n)`` triples per batch),
    one combiner-aggregate exchange keyed by the (r, b) cell, and only the
    d·w matrix reaches the driver — never value rows.
    """
    import pyarrow.compute as pc

    from ..functions.hashing import _splitmix64, stable_hash_u64
    from .rollup import grouped_agg

    salts = np.array(
        [(r * _CM_GOLD) % (1 << 64) for r in range(d)], dtype=np.uint64
    )

    def partial(batch: pa.Table) -> pa.Table:
        vals = pc.cast(batch[col], pa.string()).to_pylist()
        u = stable_hash_u64(vals)
        rows_out, cols_out, n_out = [], [], []
        for r in range(d):
            idx = (_splitmix64(u + salts[r]) % np.uint64(w)).astype(np.int64)
            counts = np.bincount(idx, minlength=w)
            nz = np.flatnonzero(counts)
            rows_out.append(np.full(len(nz), r, dtype=np.int64))
            cols_out.append(nz.astype(np.int64))
            n_out.append(counts[nz].astype(np.int64))
        return pa.table(
            {
                "r": pa.array(np.concatenate(rows_out)),
                "b": pa.array(np.concatenate(cols_out)),
                "n": pa.array(np.concatenate(n_out)),
            }
        )

    cells = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["r", "b"],
        aggs={"n": ("n", "sum")},
        n_buckets=n_buckets,
        partial=True,
    )
    sketch = np.zeros((d, w), dtype=np.int64)
    for row in cells.take_all():
        sketch[int(row["r"]), int(row["b"])] += int(row["n"])
    return sketch


def count_min_estimate(sketch: np.ndarray, values: list[str]) -> np.ndarray:
    """Point-frequency estimates for ``values`` from a ``count_min`` sketch
    (min over the d per-row cells)."""
    from ..functions.hashing import _splitmix64, stable_hash_u64

    d, w = sketch.shape
    u = stable_hash_u64([str(v) for v in values])
    est = np.full(len(values), np.iinfo(np.int64).max, dtype=np.int64)
    for r in range(d):
        salt = np.uint64((r * _CM_GOLD) % (1 << 64))
        idx = (_splitmix64(u + salt) % np.uint64(w)).astype(np.int64)
        est = np.minimum(est, sketch[r, idx])
    return est


def heavy_hitters_grouped(
    ds: ray.data.Dataset,
    group_col: str,
    col: str,
    theta: float = 0.01,
) -> "list[tuple]":
    """EXACT per-group frequent items: within every group, each value with
    frequency ≥ theta·N_group and its exact count — the grouped form of
    ``heavy_hitters`` (same two passes, same Misra-Gries completeness
    guarantee applied per group).

    Pass 1 keeps one capacity-``ceil(2/theta)`` MG summary PER GROUP per
    batch (driver memory O(groups/theta) — for unbounded group domains
    shard the fold by hash(group) first, the same move as the grouped-HLL
    exchange); pass 2 broadcasts the surviving (group, value) candidate
    set and re-counts exactly.  Returns [(group, value, count)] sorted by
    (group, value).
    """
    import collections
    import math

    cap = int(math.ceil(2.0 / theta))

    def shrink(counter: "collections.Counter") -> "collections.Counter":
        if len(counter) <= cap:
            return counter
        items = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        cut = items[cap][1]
        return collections.Counter(
            {k: c - cut for k, c in items[:cap] if c > cut}
        )

    def mg_partial(batch: pa.Table) -> pa.Table:
        gs = [str(x) for x in batch[group_col].to_pylist()]
        vs = [str(x) for x in batch[col].to_pylist()]
        per: dict[str, collections.Counter] = {}
        n_per: collections.Counter = collections.Counter()
        for g, v in zip(gs, vs):
            per.setdefault(g, collections.Counter())[v] += 1
            n_per[g] += 1
        g_out, v_out, c_out, n_out = [], [], [], []
        for g, counter in per.items():
            kept = shrink(counter)
            if not kept:
                # every count hit the cut (all-distinct group-batch): one
                # zero-count row still carries the group's N to the driver
                kept = collections.Counter({next(iter(counter)): 0})
            first = True
            for v, c in kept.items():
                g_out.append(g)
                v_out.append(v)
                c_out.append(c)
                n_out.append(n_per[g] if first else 0)
                first = False
        return pa.table(
            {
                "g": pa.array(g_out, type=pa.string()),
                "v": pa.array(v_out, type=pa.string()),
                "c": pa.array(c_out, type=pa.int64()),
                "n": pa.array(n_out, type=pa.int64()),
            }
        )

    merged: dict[str, collections.Counter] = {}
    totals: collections.Counter = collections.Counter()
    for row in ds.map_batches(mg_partial, batch_format="pyarrow").take_all():
        g = row["g"]
        merged.setdefault(g, collections.Counter())[row["v"]] += row["c"]
        totals[g] += row["n"]
        if len(merged[g]) > cap:
            merged[g] = shrink(merged[g])

    candidates = {(g, v) for g, counter in merged.items() for v in counter}
    if not candidates:
        return []
    cand_ref = ray.put(candidates)

    def count_partial(batch: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        counts: collections.Counter = collections.Counter()
        for g, v in zip(
            (str(x) for x in batch[group_col].to_pylist()),
            (str(x) for x in batch[col].to_pylist()),
        ):
            if (g, v) in cs:
                counts[(g, v)] += 1
        return pa.table(
            {
                "g": pa.array([k[0] for k in counts], type=pa.string()),
                "v": pa.array([k[1] for k in counts], type=pa.string()),
                "c": pa.array(list(counts.values()), type=pa.int64()),
            }
        )

    exact: collections.Counter = collections.Counter()
    for row in ds.map_batches(count_partial, batch_format="pyarrow").take_all():
        exact[(row["g"], row["v"])] += row["c"]
    out = [
        (g, v, c)
        for (g, v), c in exact.items()
        if c >= int(math.ceil(theta * totals[g]))
    ]
    out.sort(key=lambda t: (t[0], t[1]))
    return out
