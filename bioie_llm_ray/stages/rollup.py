"""Reshaping aggregates: rollup / grouping sets, pivot, unpivot.

- ``rollup_aggregate``: multi-level GROUP BY in one pass tree.
- ``pivot_counts``: long → wide per-key category counts.
- ``unpivot``: wide → long melt (zero shuffle).

``GROUP BY ROLLUP (a, b)`` computes the aggregate at levels (a, b), (a,) and
() — the reference's evaluator reports exactly this shape (per-class metrics
plus micro totals, evaluator.py:10-31).  A naive engine runs one full-input
shuffle per level; this operator pays the input-sized exchange ONCE, for the
finest level, and derives every coarser level by re-aggregating the finest
RESULT — at 100 TB the finest group table is orders of magnitude smaller
than the input, and each coarser level shrinks again.

Only re-aggregable functions are exposed (sum / count / min / max — count
re-aggregates as sum); averages are derived from sum+count columns by the
caller.  Rolled-up key columns are NULL, as in SQL ROLLUP.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.arrowio import from_pandas_clean
import pyarrow.compute as pc
import ray

from .exchange import keyed_exchange, one_task

# partial-fn, final-fn (applied to partial outputs) per public agg name
_REAGG = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _agg_pairs(aggs: dict, partial: bool) -> tuple[list, list]:
    """[(col, arrow_fn)] + output names for one aggregate pass.

    ``partial=True`` runs the public fn on raw columns; ``partial=False``
    re-aggregates prior partial outputs (count → sum) keyed by out name.
    """
    pairs, names = [], []
    for out, (col, fn) in aggs.items():
        if fn not in _REAGG:
            raise ValueError(f"non-re-aggregable fn {fn!r} (use sum/count/min/max)")
        pairs.append((col if partial else out, fn if partial else _REAGG[fn]))
        names.append(out)
    return pairs, names


def _agg_passes(keys: list[str], aggs: dict, partial: bool):
    """(local, combine): ``grouped_agg``'s per-batch partial pass and its
    final pass over the partials."""
    pairs, names = _agg_pairs(aggs, partial)
    final_pairs = [(n, _REAGG[fn]) for n, (_, fn) in zip(names, aggs.values())]

    def scalar_agg(batch: pa.Table, ps) -> pa.Table:
        # global (no-key) aggregate: one row per batch via compute kernels
        cols = {}
        for (col, fn), out in zip(ps, names):
            arr = batch[col]
            if fn == "sum":
                v = pc.sum(arr)
            elif fn == "count":
                v = pa.scalar(len(arr) - arr.null_count, type=pa.int64())
            elif fn == "min":
                v = pc.min(arr)
            else:
                v = pc.max(arr)
            cols[out] = pa.array([v.as_py()], type=v.type)
        return pa.table(cols)

    def local(batch: pa.Table) -> pa.Table:
        if not keys:
            return scalar_agg(batch, pairs)
        return batch.group_by(keys).aggregate(pairs).rename_columns(keys + names)

    def combine(group: pa.Table) -> pa.Table:
        if not keys:
            return scalar_agg(group, final_pairs)
        out = group.group_by(keys).aggregate(final_pairs)
        return out.rename_columns(keys + names)

    return local, combine


def grouped_agg_table(
    table: pa.Table, keys: list[str], aggs: dict, partial: bool
) -> pa.Table:
    """``grouped_agg`` over one in-memory table: its local pass, then its
    combine.  Typed also on zero rows.  The kernel of ``grouped_agg`` at
    B = 1."""
    local, combine = _agg_passes(keys, aggs, partial)
    return combine(local(table))


def grouped_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict,
    n_buckets: int,
    partial: bool,
) -> ray.data.Dataset:
    """One distributed grouped aggregate: per-batch combiner partials, one
    bucketed exchange, per-bucket final combine.  With ``n_buckets == 1``
    the input fits one bucket, and ``grouped_agg_table`` runs in one task
    over all rows.  Global (no-key) aggregates skip the exchange whatever
    their size: every batch folds to one row and a single task finishes
    it."""
    if keys and n_buckets == 1:

        def agg(table: pa.Table) -> pa.Table:
            return grouped_agg_table(table, keys, aggs, partial)

        return one_task(ds, agg)
    local, combine = _agg_passes(keys, aggs, partial)
    return keyed_exchange(
        ds.map_batches(local, batch_format="pyarrow"),
        keys,
        combine,
        n_buckets if keys else 1,
    )


def grouping_sets_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    subsets: list[tuple],
    aggs: dict[str, tuple[str, str]],
    n_buckets: int = 32,
    key_types: dict | None = None,
) -> ray.data.Dataset:
    """GROUPING SETS core: aggregate at the finest key set plus every
    listed ``subsets`` entry, absent key columns NULL.

    ``aggs``: {out_name: (source_col, fn)} with fn ∈ sum/count/min/max.
    The input shuffles ONCE (the finest set, all ``keys``); every subset
    re-aggregates the finest RESULT with count→sum semantics, so extra
    sets cost small exchanges over group-count-sized data, never a second
    input pass.  ``rollup_aggregate`` passes the key prefixes,
    ``cube_aggregate`` every combination; pass your own list for ad-hoc
    GROUPING SETS.

    ``key_types`` ({key: pyarrow type}) skips the ``Dataset.schema()``
    probe when the caller statically knows key dtypes (used for the NULL
    columns of coarser sets)."""
    keys = list(keys)
    if key_types is None:
        s = ds.schema()
        key_types = {n: t for n, t in zip(s.names, s.types) if n in keys}

    finest = grouped_agg(ds, keys, aggs, n_buckets, partial=True)
    reagg = {out: (out, fn) for out, (_, fn) in aggs.items()}

    levels = [finest]
    for subset in subsets:
        lvl = grouped_agg(finest, list(subset), reagg, n_buckets, partial=False)

        def widen(
            batch: pa.Table,
            missing=tuple(k for k in keys if k not in subset),
        ) -> pa.Table:
            for k in missing:
                batch = batch.append_column(
                    k, pa.nulls(len(batch), type=key_types[k])
                )
            return batch.select(list(keys) + list(reagg))

        levels.append(lvl.map_batches(widen, batch_format="pyarrow"))

    ordered = [
        lvl.map_batches(
            lambda b: b.select(keys + list(aggs)), batch_format="pyarrow"
        )
        for lvl in levels
    ]
    out = ordered[0]
    for lvl in ordered[1:]:
        out = out.union(lvl)
    return out


def rollup_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    n_buckets: int = 32,
    key_types: dict | None = None,
) -> ray.data.Dataset:
    """ROLLUP(keys): every prefix level of ``keys`` plus the grand total
    (see ``grouping_sets_aggregate`` for the dataflow)."""
    keys = list(keys)
    return grouping_sets_aggregate(
        ds,
        keys,
        [tuple(keys[:i]) for i in range(len(keys) - 1, -1, -1)],
        aggs,
        n_buckets=n_buckets,
        key_types=key_types,
    )


def pivot_counts(
    ds: ray.data.Dataset,
    key_col: str,
    pivot_col: str,
    values: list | None = None,
    prefix: str = "n_",
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Long → wide pivot: one row per key, one count column per pivot value.

    Classic pivot precondition: the pivot domain must be small (it becomes
    the schema).  ``values`` pins it; when omitted, a distinct pass
    discovers it (tiny result, but one extra job — pass ``values`` when the
    domain is known).  Shape: per-batch partial (key, value) counts — the
    combiner — then one bucketed exchange by key and a vectorized
    ``pivot_table`` per bucket.  Keys never split across buckets, so the
    per-bucket pivot is exact; missing cells are 0, not NULL.
    """
    if values is None:
        values = sorted(ds.unique(pivot_col))
    val_list = [str(v) for v in values]

    def local(batch: pa.Table) -> pa.Table:
        g = (
            batch.select([key_col, pivot_col])
            .group_by([key_col, pivot_col])
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns([key_col, pivot_col, "__n"])
        # drop pivot values outside the declared domain
        return g.filter(pc.is_in(g[pivot_col], value_set=pa.array(values)))

    def widen(df) -> "pa.Table":
        wide = df.pivot_table(
            index=key_col,
            columns=pivot_col,
            values="__n",
            aggfunc="sum",
            fill_value=0,
        )
        wide = wide.reindex(columns=values, fill_value=0).astype("int64")
        wide.columns = [prefix + v for v in val_list]
        return from_pandas_clean(wide.reset_index(), preserve_index=False)

    return keyed_exchange(
        ds.map_batches(local, batch_format="pyarrow"),
        [key_col],
        widen,
        n_buckets,
        batch_format="pandas",
    )


def unpivot(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "variable",
    value_name: str = "value",
    value_type: pa.DataType | None = None,
) -> ray.data.Dataset:
    """Wide → long melt: one output row per (input row × value column).

    The inverse of ``pivot_counts`` — pure per-batch reshape, zero shuffle,
    zero-copy id columns (each value column contributes one slice that
    reuses the id arrays).  ``value_type`` pins the common type when the
    value columns differ (they are concatenated into ONE column).
    """
    value_cols = list(value_cols)

    def melt(batch: pa.Table) -> pa.Table:
        pieces = []
        for c in value_cols:
            vals = batch[c]
            if value_type is not None:
                vals = pc.cast(vals, value_type)
            cols = {k: batch[k] for k in id_cols}
            cols[var_name] = pa.array([c] * len(batch), type=pa.string())
            cols[value_name] = vals
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces)

    return ds.map_batches(melt, batch_format="pyarrow")


def cube_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    n_buckets: int = 32,
    key_types: dict | None = None,
) -> ray.data.Dataset:
    """CUBE(keys): EVERY subset of ``keys`` (all 2^n grouping sets); ``n``
    is bounded by the caller — CUBE over many keys explodes by definition
    (see ``grouping_sets_aggregate`` for the dataflow)."""
    from itertools import combinations

    keys = list(keys)
    subsets = [
        sub
        for r in range(len(keys) - 1, -1, -1)
        for sub in combinations(keys, r)
    ]
    return grouping_sets_aggregate(
        ds, keys, subsets, aggs, n_buckets=n_buckets, key_types=key_types
    )


def skyline_2d(
    ds: ray.data.Dataset, x_col: str, y_col: str
) -> ray.data.Dataset:
    """2-D skyline (Pareto frontier): rows not dominated by any other —
    minimize ``x_col``, maximize ``y_col``.

    The classic distributed plan: each block computes its LOCAL frontier
    (the global skyline is a subset of the union of local skylines — a
    dominating point survives its own block's filter), then one final
    single-task pass filters the candidate union.  No shuffle; the
    exchanged data is the per-block frontiers.  The final task assumes
    the candidate union fits one block — true unless the data is
    pathologically anti-correlated (frontier ~ O(n)), in which case a
    recursive second level of the same plan applies.

    Per-block kernel is fully vectorized: reduce to per-x max y, sort by
    x, keep rows whose y strictly exceeds the running max of all smaller
    x.  Output columns: (x_col, y_col).
    """
    import numpy as np
    import pandas as pd

    def local_skyline(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "x": batch[x_col].to_numpy(zero_copy_only=False),
                "y": batch[y_col].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("x", as_index=False)["y"].max()
        g = g.sort_values("x", kind="mergesort").reset_index(drop=True)
        y = g["y"].to_numpy(np.float64)
        prevmax = np.maximum.accumulate(
            np.concatenate(([-np.inf], y[:-1]))
        )
        keep = y > prevmax
        return pa.table(
            {
                x_col: pa.array(g["x"][keep].to_numpy()),
                y_col: pa.array(y[keep]),
            }
        )

    cand = ds.map_batches(local_skyline, batch_format="pyarrow")
    return cand.repartition(1).map_batches(
        local_skyline, batch_format="pyarrow", batch_size=None
    )
