"""Exact dedup / canonicalization shuffles with hot-key salting (SURVEY §2.8 E3).

The reference dedups triples via Python ``set`` inserts in driver memory
(string_processor.py:173, G8).  At scale that is a shuffle keyed by the
triple — and two things matter:

1. **Never one Python call per distinct key.**  ``groupby(key).map_groups``
   invokes the UDF once per group; at 10^9 distinct triples that is 10^9
   Python calls.  All dedups here group by ``stable_hash(key) % n_buckets``
   instead and run ONE vectorized Arrow ``group_by`` per bucket — per-key
   work stays in C.
2. **Hot keys (TP53-style hubs) skew the shuffle.**  With B > 1 buckets
   ``salted_dedup`` runs a two-phase combine: phase 1 spreads duplicates of
   a key over ``n_salt`` sub-buckets (each keeps one row), phase 2 dedups
   the ≤n_salt survivors per key.  Because phase 1 already buckets by
   (key, salt), no single reducer sees a hub's full duplicate stream.

With B = 1 (an input that fits one bucket, see
``exchange.n_buckets_for_bytes``) there is no reducer to skew: every dedup
here, ``salted_dedup`` included, is a single first-per-key pass in one
task over all rows, with no exchange.

``batch_local_dedup`` is the shuffle-free combiner: duplicates co-occurring
in a batch collapse before anything moves.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash_bucket
from .exchange import keyed_exchange

_KEY_SEP = "\x1f"
_KEY_COL = "__dk"


def _add_key_column(batch: pa.Table, key_cols: list[str], out: str) -> pa.Table:
    if len(key_cols) == 1:
        col = batch[key_cols[0]]
        if pa.types.is_string(col.type):
            # single string key: zero-copy reuse, no per-row join loop
            return batch.append_column(out, col)
        if pa.types.is_integer(col.type):
            return batch.append_column(out, pc.cast(col, pa.string()))
    if all(pa.types.is_string(batch[c].type) for c in key_cols):
        # the per-row join below in one Arrow kernel: a null joins as "None"
        keys = pc.binary_join_element_wise(
            *(batch[c] for c in key_cols), _KEY_SEP,
            null_handling="replace", null_replacement="None",
        )
        return batch.append_column(out, keys)
    cols = [batch[c].to_pylist() for c in key_cols]
    keys = (
        [_KEY_SEP.join(map(str, vals)) for vals in zip(*cols)] if cols else []
    )
    return batch.append_column(out, pa.array(keys, type=pa.string()))


def _add_dedup_key(
    batch: pa.Table, key_cols: list[str], salt_col: str | None = None, n_salt: int = 0
) -> pa.Table:
    batch = _add_key_column(batch, key_cols, _KEY_COL)
    if salt_col is None:
        return batch
    # fold a salt into the key so phase-1 groups are (key, salt)
    salt = pa.array(hash_bucket(batch[salt_col].to_pylist(), n_salt))
    # a null key joins as "None", as str(None) did in the per-row build
    keys = pc.binary_join_element_wise(
        batch[_KEY_COL].combine_chunks(), pc.cast(salt, pa.string()), _KEY_SEP,
        null_handling="replace", null_replacement="None",
    )
    return batch.set_column(batch.column_names.index(_KEY_COL), _KEY_COL, keys)


def _dedup_exchange(ds, key_cols: list[str], kernel, n_buckets: int, **salt):
    """Key every row, run ``kernel`` per key bucket, drop the key."""
    keyed = ds.map_batches(
        lambda b: _add_dedup_key(b, key_cols, **salt), batch_format="pyarrow"
    )
    return keyed_exchange(keyed, [_KEY_COL], kernel, n_buckets).drop_columns(
        [_KEY_COL]
    )


def _first_per_key_in_bucket(group: pa.Table) -> pa.Table:
    """One vectorized dedup per bucket: keep the first row of each key."""
    # group_by preserves no row payload — use first-occurrence indices instead
    keys = group[_KEY_COL]
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    # dictionary-encode → codes; first occurrence of each code wins
    codes_np = pc.dictionary_encode(keys).indices.to_numpy(
        zero_copy_only=False
    )
    _, first_idx = np.unique(codes_np, return_index=True)
    return group.take(pa.array(np.sort(first_idx)))


def first_per_key(table: pa.Table, key_cols: list[str]) -> pa.Table:
    """The first row of each distinct ``key_cols`` tuple of one in-memory
    table, in input order."""
    keyed = _add_key_column(table, key_cols, _KEY_COL)
    return _first_per_key_in_bucket(keyed).drop_columns([_KEY_COL])


def exact_dedup(ds, key_cols: list[str], n_buckets: int = 64):
    """Keep one row per distinct key tuple.

    Shuffle keyed by ``hash(key) % n_buckets`` (bounded reducer count); the
    per-bucket dedup is one numpy/Arrow pass, not one call per key.
    ``n_buckets=1`` runs that pass once over all rows, with no exchange.
    """
    return _dedup_exchange(ds, key_cols, _first_per_key_in_bucket, n_buckets)


def salted_dedup(
    ds,
    key_cols: list[str],
    salt_col: str,
    n_salt: int = 16,
    n_buckets: int = 64,
):
    """Exact dedup for skewed keys: two phases at B > 1, one pass at B = 1.

    ``salt_col`` is any column whose value varies across duplicates of the
    same key (e.g. the source-document sha) — with ``n_buckets > 1`` its
    hash spreads a hot key over ``n_salt`` phase-1 reducers before the
    unsalted phase-2 dedup.  Salting applies only at B > 1: with one bucket
    it spreads nothing, so ``n_buckets == 1`` is a single
    ``exact_dedup(..., n_buckets=1)`` — one first-per-key pass over all rows
    in one task, with no exchange.
    """
    if n_buckets == 1:
        return exact_dedup(ds, key_cols, n_buckets=1)
    phase1 = _dedup_exchange(
        ds, key_cols, _first_per_key_in_bucket, n_buckets,
        salt_col=salt_col, n_salt=n_salt,
    )
    # phase 2: ≤ n_salt rows per key remain — plain bucketed dedup
    return exact_dedup(phase1, key_cols, n_buckets=n_buckets)


def batch_local_dedup(ds, key_cols: list[str]):
    """Combiner-style pre-dedup inside each batch (no shuffle).

    Run before a global dedup to shrink the shuffle: duplicates that co-occur
    in a batch collapse early — the same partial-aggregation idea as
    pre-summing before a groupby.
    """
    return ds.map_batches(
        first_per_key, fn_kwargs={"key_cols": key_cols}, batch_format="pyarrow"
    )


def argmax_dedup(
    ds,
    key_cols: list[str],
    order_col: str | list[str],
    n_buckets: int = 64,
    descending: bool = True,
):
    """Keep the row with the max (default) / min ``order_col`` per key —
    last-writer-wins semantics (snapshot of a versioned table, CDC compaction,
    "latest commit per file path").

    Same shuffle shape as ``exact_dedup`` (hash(key) % n_buckets, one
    vectorized pass per bucket, never one Python call per key); the
    per-bucket kernel sorts (key, order desc) and keeps each key's first
    row.  ``order_col`` may be a list (lexicographic, e.g. ``(ts,
    event_id)``); ties on the full order break by first-seen after a
    stable sort — make the order unique for fully deterministic output.
    """
    order_cols = [order_col] if isinstance(order_col, str) else list(order_col)

    def best_per_key(group: pa.Table) -> pa.Table:
        direction = "descending" if descending else "ascending"
        order = pc.sort_indices(
            group,
            sort_keys=[(_KEY_COL, "ascending")]
            + [(c, direction) for c in order_cols],
        )
        return _first_per_key_in_bucket(group.take(order))

    return _dedup_exchange(ds, key_cols, best_per_key, n_buckets)


def cdc_apply(
    ds,
    key_cols: list[str],
    order_cols: list[str],
    op_col: str,
    delete_ops: set[str],
    n_buckets: int = 64,
):
    """Apply a change-data-capture log: last-writer-wins per key with
    tombstones — the MERGE/compaction primitive of log-structured tables
    (Hudi/Delta-style upsert streams, Kafka compacted topics).

    Each key's surviving state is its row with the lexicographically
    greatest ``order_cols``; if that row's ``op_col`` is a delete marker the
    key is dropped entirely.  One ``argmax_dedup`` exchange (hash(key) %
    n_buckets, vectorized per-bucket sort) followed by a streaming
    vectorized tombstone filter — deletes must be resolved AFTER the
    arg-max, never by pre-filtering (a delete followed by a re-insert must
    resurrect the key, and an insert followed by a delete must not).
    """
    latest = argmax_dedup(ds, key_cols, order_cols, n_buckets=n_buckets)

    def drop_tombstones(batch: pa.Table) -> pa.Table:
        keep = pc.invert(
            pc.is_in(batch[op_col], value_set=pa.array(sorted(delete_ops)))
        )
        return batch.filter(keep)

    return latest.map_batches(drop_tombstones, batch_format="pyarrow")
