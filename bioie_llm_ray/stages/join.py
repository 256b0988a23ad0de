"""Join operators (SURVEY §2.5).

Ray Data (2.49) has no general hash join; the engine provides the two shapes
that matter at scale:

- ``broadcast_join``: small build side (dimension table, vocabulary,
  blocklist) shipped once via ``ray.put``, probed per batch with
  ``pyarrow.Table.join`` — zero shuffle.  This is the right join for every
  dimension lookup in a star schema and for entity linking.
- ``shuffle_join``: both sides large — tag each side, add a stable hash
  bucket on the key, union, group by bucket, join the two sides of each
  bucket with Arrow inside ``map_groups``.  An explicit partitioned hash
  join; bucket count B and hot-key salting are the caller's scale knobs.
- ``anti_semi_filter``: semi/anti join against a broadcast key set.
- ``shuffle_semi_join``: semi/anti join when the right side is itself a
  large table (EXISTS / NOT EXISTS against another fact table) — right
  keys dedup per batch before one bucketed exchange.
- ``auto_join``: the planner rule — build side under a size threshold
  broadcasts, anything larger (or unknown, or carrying a bucket_post
  rollup) takes the shuffle plan.

Ray 2.49 does ship a native ``Dataset.join`` (hash-shuffle via aggregator
actors); measured on the q3 fact-fact shape (600k lineitem ⋈ 150k orders,
16 partitions, 32 CPUs) it runs 2.6 s vs 1.15 s for ``shuffle_join`` here,
and it cannot fold a post-join rollup into the join bucket
(``bucket_post``), which the q3/q5 pipelines rely on to skip a second
global shuffle — so the explicit join stays the engine default.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.arrowio import from_pandas_clean
import pyarrow.compute as pc
import ray

from ..functions.hashing import bucket_ids_for_column, hash_bucket
from .exchange import keyed_exchange

_TAG = "__side"
_BUCKET = "__bucket"
_CHUNK = "__chunk"


def broadcast_join(
    ds: ray.data.Dataset,
    small: pa.Table,
    keys: list[str] | str,
    join_type: str = "inner",
    right_keys: list[str] | str | None = None,
) -> ray.data.Dataset:
    """Probe-side Dataset ⋈ broadcast build-side Arrow table.

    ``small`` is put in the object store once; each task joins its batch
    against it with the Arrow hash-join kernel (vectorized, zero-copy probe).
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    right_keys = (
        keys
        if right_keys is None
        else ([right_keys] if isinstance(right_keys, str) else list(right_keys))
    )
    small_ref = ray.put(small)

    def probe(batch: pa.Table) -> pa.Table:
        build = ray.get(small_ref)
        return batch.join(
            build, keys=keys, right_keys=right_keys, join_type=join_type
        )

    return ds.map_batches(probe, batch_format="pyarrow")


def shuffle_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    keys: list[str] | str,
    n_buckets: int = 32,
    join_type: str = "inner",
    left_schema: dict | None = None,
    right_schema: dict | None = None,
    bucket_post=None,
) -> ray.data.Dataset:
    """Partitioned hash join of two large Datasets on equal column names.

    Both sides are tagged and bucketed by ``stable_hash(key) % n_buckets``;
    the union shuffles once on the bucket column; each group joins its two
    sides with Arrow.  Size ``n_buckets`` ≥ cluster parallelism; salt hot
    keys upstream if one key dominates.

    ``left_schema``/``right_schema`` ({name: pyarrow type}) skip the
    ``Dataset.schema()`` probes — those execute one upstream block each, a
    wasted partial run when the caller statically knows the shape.

    ``bucket_post(joined: pa.Table) -> pa.Table`` runs on each joined bucket.
    Because every occurrence of a key lands in exactly one bucket, a
    key-grouped rollup inside ``bucket_post`` is exact — use it to fold the
    post-join aggregate into the join and skip a second global shuffle.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            if len(keys) == 1:
                # single-column key: vectorized bucket ids (no per-row md5)
                ids = bucket_ids_for_column(batch[keys[0]], n_buckets)
            else:
                key_strs = [
                    "\x1f".join(map(str, vals))
                    for vals in zip(*(batch[k].to_pylist() for k in keys))
                ]
                ids = hash_bucket(key_strs, n_buckets)
            batch = batch.append_column(_BUCKET, pa.array(ids))
            return batch.append_column(
                _TAG, pa.array([side] * len(batch), type=pa.string())
            )

        return fn

    # align schemas for union: left columns ∪ right columns, null-filled
    left_t = left.map_batches(tag("l"), batch_format="pyarrow")
    right_t = right.map_batches(tag("r"), batch_format="pyarrow")

    if left_schema is None:
        left_schema = _schema_types(left)
    if right_schema is None:
        right_schema = _schema_types(right)
    left_names = list(left_schema)
    right_names = list(right_schema)
    l_only = [c for c in left_names if c not in right_names]
    r_only = [c for c in right_names if c not in left_names]

    def widen(missing_from: list[str], schema_src: dict):
        def fn(batch: pa.Table) -> pa.Table:
            for c in missing_from:
                batch = batch.append_column(
                    c, pa.nulls(len(batch), type=schema_src[c])
                )
            return batch

        return fn

    left_t = left_t.map_batches(widen(r_only, right_schema), batch_format="pyarrow")
    right_t = right_t.map_batches(widen(l_only, left_schema), batch_format="pyarrow")
    # column order must match for union
    order = keys + sorted(
        c for c in set(left_names + right_names) if c not in keys
    ) + [_BUCKET, _TAG]
    left_t = left_t.map_batches(lambda b: b.select(order), batch_format="pyarrow")
    right_t = right_t.map_batches(lambda b: b.select(order), batch_format="pyarrow")
    union = left_t.union(right_t)

    lcols = [c for c in left_names if c not in keys]
    rcols = [c for c in right_names if c not in keys]
    # The bucket exchange may unify blocks through pandas: a null-widened
    # int64 column comes back as double (silent precision loss above 2^53)
    # and an all-null column in a one-sided bucket comes back null-typed
    # (which the Arrow join kernel rejects outright).  Cast each side back
    # to its DECLARED schema before joining — the selected columns are the
    # side's own, so the cast is exact (integral doubles -> int64, null ->
    # typed-null), and every bucket emits one consistent schema.
    l_decl = pa.schema([(c, left_schema[c]) for c in keys + lcols])
    r_decl = pa.schema([(c, right_schema[c]) for c in keys + rcols])

    def join_bucket(group: pa.Table) -> pa.Table:
        mask = pc.equal(group[_TAG], "l")
        l = group.filter(mask).select(keys + lcols)
        r = group.filter(pc.invert(mask)).select(keys + rcols)
        if l.schema != l_decl:
            l = l.cast(l_decl)
        if r.schema != r_decl:
            r = r.cast(r_decl)
        joined = l.join(r, keys=keys, join_type=join_type)
        return bucket_post(joined) if bucket_post is not None else joined

    return union.groupby(_BUCKET).map_groups(join_bucket, batch_format="pyarrow")


def salted_shuffle_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    keys: list[str] | str,
    hot_keys,
    n_salt: int = 8,
    n_buckets: int = 32,
    join_type: str = "inner",
    left_schema: dict | None = None,
    right_schema: dict | None = None,
) -> ray.data.Dataset:
    """``shuffle_join`` with hot-key salting — the skew defuser.

    A hub key (TP53-style) sends every one of its rows to one reducer in a
    plain hash join; here each LEFT (probe/fact) row of a hot key scatters
    over ``n_salt`` sub-buckets while the RIGHT side's rows for that key
    replicate to all of them, so every (l, r) pair still meets exactly once
    and no reducer sees more than ~1/n_salt of the hub's stream.  Cold keys
    pay nothing (salt 0 on both sides).

    ``hot_keys``: iterable of key strings ("\\x1f"-joined for composite
    keys) — produce it with ``stages.sketch.heavy_hitters`` (exact frequent
    items, two streaming passes, O(1/theta) driver memory).  Assumes the
    skew is on the left side; swap the arguments for right-skew.  Salt
    assignment uses a per-batch round-robin, so row→reducer placement is
    partition-dependent — the OUTPUT is partition-invariant regardless
    (pair-meet-once is structural).  No ``bucket_post``: a hot key spans
    buckets, so per-bucket rollups would be partial; aggregate downstream.
    """
    import numpy as np

    keys = [keys] if isinstance(keys, str) else list(keys)
    hot_ref = ray.put(set(hot_keys))

    def key_strs_of(batch: pa.Table) -> list[str]:
        if len(keys) == 1:
            col = batch[keys[0]]
            return [str(v) for v in col.to_pylist()]
        return [
            "\x1f".join(map(str, vals))
            for vals in zip(*(batch[k].to_pylist() for k in keys))
        ]

    def salt_left(batch: pa.Table) -> pa.Table:
        hs = ray.get(hot_ref)
        ks = key_strs_of(batch)
        salts = np.zeros(len(ks), dtype=np.int64)
        hot_idx = [i for i, k in enumerate(ks) if k in hs]
        salts[hot_idx] = np.arange(len(hot_idx)) % n_salt
        return batch.append_column("__salt", pa.array(salts))

    def salt_right(batch: pa.Table) -> pa.Table:
        hs = ray.get(hot_ref)
        ks = key_strs_of(batch)
        idx, salts = [], []
        for i, k in enumerate(ks):
            if k in hs:
                for s in range(n_salt):
                    idx.append(i)
                    salts.append(s)
            else:
                idx.append(i)
                salts.append(0)
        rep = batch.take(pa.array(idx, type=pa.int64()))
        return rep.append_column(
            "__salt", pa.array(salts, type=pa.int64())
        )

    left_s = left.map_batches(salt_left, batch_format="pyarrow")
    right_s = right.map_batches(salt_right, batch_format="pyarrow")
    if left_schema is not None:
        left_schema = dict(left_schema, __salt=pa.int64())
    if right_schema is not None:
        right_schema = dict(right_schema, __salt=pa.int64())
    joined = shuffle_join(
        left_s,
        right_s,
        keys=keys + ["__salt"],
        n_buckets=n_buckets,
        join_type=join_type,
        left_schema=left_schema,
        right_schema=right_schema,
    )
    return joined.map_batches(
        lambda b: b.drop_columns(["__salt"]), batch_format="pyarrow"
    )


def shuffle_join_packed(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    keys: list[str] | str,
    n_buckets: int = 32,
    join_type: str = "inner",
    bucket_post=None,
) -> ray.data.Dataset:
    """Partitioned hash join that ships Arrow-IPC blobs, not widened rows.

    ``shuffle_join`` unions the two sides into one schema, null-filling each
    side's missing columns — roughly 2× the necessary shuffle payload on
    wide tables.  Here each map task pre-partitions its batch by bucket and
    emits ONE row per (batch, bucket): ``(bucket, side, blob)`` where blob
    is the Arrow IPC serialization of that sub-batch.  The groupby then
    moves exactly the bytes each side owns; the reducer deserializes,
    concatenates per side, and runs the same Arrow join (+ optional
    ``bucket_post`` rollup).  No ``Dataset.schema()`` probes needed — the
    blob carries its own schema.

    Trade-off, measured (600k rows × 12 float payload cols ⋈ 100k dim, 32
    local CPUs): widened union 1.7 s vs packed 3.9 s — on a SINGLE node the
    "network" is shared memory, so the IPC CPU cost buys nothing.  On a
    multi-node cluster the exchange crosses real NICs and the ~2× byte
    reduction is the win; pick per deployment.  ``shuffle_join`` remains
    the single-node default.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def pack(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            import io

            if len(keys) == 1:
                ids = bucket_ids_for_column(batch[keys[0]], n_buckets)
            else:
                key_strs = [
                    "\x1f".join(map(str, vals))
                    for vals in zip(*(batch[k].to_pylist() for k in keys))
                ]
                ids = hash_bucket(key_strs, n_buckets)
            import numpy as np

            order = np.argsort(ids, kind="stable")
            sorted_batch = batch.take(pa.array(order))
            sorted_ids = ids[order]
            bounds = np.searchsorted(sorted_ids, np.arange(n_buckets + 1))
            out_bucket, out_blob = [], []
            for b in range(n_buckets):
                lo, hi = bounds[b], bounds[b + 1]
                # empty buckets still emit a schema-only blob (~100 bytes):
                # every reducer then sees both sides and knows both schemas,
                # so one-sided buckets join correctly without schema probes
                sink = io.BytesIO()
                piece = sorted_batch.slice(lo, hi - lo)
                with pa.ipc.new_stream(sink, piece.schema) as w:
                    w.write_table(piece)
                out_bucket.append(b)
                out_blob.append(sink.getvalue())
            return pa.table(
                {
                    _BUCKET: pa.array(out_bucket, type=pa.int64()),
                    _TAG: pa.array([side] * len(out_bucket), type=pa.string()),
                    "blob": pa.array(out_blob, type=pa.large_binary()),
                }
            )

        return fn

    union = left.map_batches(pack("l"), batch_format="pyarrow").union(
        right.map_batches(pack("r"), batch_format="pyarrow")
    )

    def join_bucket(group: pa.Table) -> pa.Table:
        def side_table(tag: str) -> pa.Table | None:
            mask = pc.equal(group[_TAG], tag)
            blobs = group.filter(mask)["blob"].to_pylist()
            if not blobs:
                return None
            parts = [pa.ipc.open_stream(b).read_all() for b in blobs]
            return pa.concat_tables(parts, promote_options="default")

        l, r = side_table("l"), side_table("r")
        joined = l.join(r, keys=keys, join_type=join_type)
        return bucket_post(joined) if bucket_post is not None else joined

    return (
        union.groupby(_BUCKET)
        .map_groups(join_bucket, batch_format="pyarrow")
    )


def anti_semi_filter(
    ds: ray.data.Dataset,
    key_set,
    keys: list[str] | str,
    anti: bool = False,
) -> ray.data.Dataset:
    """Semi (keep matching) or anti (drop matching) join vs a broadcast set.

    ``key_set``: set of key strings ("\\x1f"-joined for composite keys), or an
    ObjectRef to one.  The reference's shot-exclusion filters (J3) and
    negative-pair anti-join (J4) are this operator.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    ref = key_set if isinstance(key_set, ray.ObjectRef) else ray.put(key_set)

    def fn(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        key_strs = [
            "\x1f".join(map(str, vals))
            for vals in zip(*(batch[k].to_pylist() for k in keys))
        ]
        mask = [((k in ks) != anti) for k in key_strs]
        return batch.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow")


def shuffle_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    keys: list[str] | str,
    anti: bool = False,
    n_buckets: int = 32,
    left_schema: dict | None = None,
    bucket_post=None,
) -> ray.data.Dataset:
    """Semi (EXISTS) / anti (NOT EXISTS) join when BOTH sides are large.

    ``anti_semi_filter`` broadcasts the key set — right for a shot list or a
    blocklist, wrong when the right side is another fact table (at 100 TB
    the distinct-key set itself exceeds driver memory).  This operator keeps
    everything distributed:

    - the right side is projected to its key columns and deduped per batch
      (combiner) so only distinct keys enter the exchange — for a fact table
      with many rows per key this shrinks the shuffled payload by the key
      multiplicity before any network hop;
    - both sides bucket by ``stable_hash(key) % n_buckets`` and union;
    - each bucket runs the Arrow ``left semi`` / ``left anti`` join kernel —
      left payload columns never widen onto right rows (right rows carry
      nulls), and the output is exactly the surviving left rows.

    ``bucket_post(kept: pa.Table) -> pa.Table`` folds a per-key rollup into
    the join bucket (every key lands in one bucket, so it is exact), same
    contract as ``shuffle_join``.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def bucket_ids(batch: pa.Table):
        if len(keys) == 1:
            return bucket_ids_for_column(batch[keys[0]], n_buckets)
        key_strs = [
            "\x1f".join(map(str, vals))
            for vals in zip(*(batch[k].to_pylist() for k in keys))
        ]
        return hash_bucket(key_strs, n_buckets)

    if left_schema is None:
        left_schema = _schema_types(left)
    payload = [c for c in left_schema if c not in keys]

    def tag_left(batch: pa.Table) -> pa.Table:
        batch = batch.select(keys + payload)
        batch = batch.append_column(_BUCKET, pa.array(bucket_ids(batch)))
        return batch.append_column(
            _TAG, pa.array([False] * len(batch), type=pa.bool_())
        )

    def tag_right(batch: pa.Table) -> pa.Table:
        # combiner: distinct keys only — the semi join needs existence, not rows
        batch = batch.select(keys).group_by(keys).aggregate([])
        for c in payload:
            batch = batch.append_column(
                c, pa.nulls(len(batch), type=left_schema[c])
            )
        batch = batch.select(keys + payload)
        batch = batch.append_column(_BUCKET, pa.array(bucket_ids(batch)))
        return batch.append_column(
            _TAG, pa.array([True] * len(batch), type=pa.bool_())
        )

    left_t = left.map_batches(tag_left, batch_format="pyarrow")
    right_t = right.map_batches(tag_right, batch_format="pyarrow")
    union = left_t.union(right_t)
    how = "left anti" if anti else "left semi"

    def join_bucket(group: pa.Table) -> pa.Table:
        mask = group[_TAG]
        l = group.filter(pc.invert(mask)).select(keys + payload)
        r = (
            group.filter(mask)
            .select(keys)
            .group_by(keys)
            .aggregate([])  # dedup across right batches within the bucket
        )
        kept = l.join(r, keys=keys, join_type=how)
        return bucket_post(kept) if bucket_post is not None else kept

    return union.groupby(_BUCKET).map_groups(join_bucket, batch_format="pyarrow")


def bloom_prefilter(
    ds: ray.data.Dataset,
    key_values,
    key: str,
    fpp: float = 0.01,
) -> ray.data.Dataset:
    """Bloom-filter pre-filter before a shuffle join (scale optimization).

    ``key_values``: the build side's join keys (any iterable / numpy array /
    Arrow column), or a prebuilt ``BloomFilter``, or an ObjectRef to one.
    Rows of ``ds`` whose ``key`` cannot be on the build side are dropped
    BEFORE the exchange — at cluster scale this is the difference between
    shuffling the whole fact table and shuffling only the ~selectivity
    fraction that can match.  False positives pass through (rate ``fpp``)
    and are eliminated by the join itself; no false negatives, so the
    composed result is exact — ``q3_bloom`` proves it against the plain-q3
    oracle.
    """
    from ..functions.hashing import BloomFilter

    if isinstance(key_values, ray.ObjectRef):
        ref = key_values
    elif isinstance(key_values, BloomFilter):
        ref = ray.put(key_values)
    else:
        import pyarrow as _pa

        if isinstance(key_values, (_pa.Array, _pa.ChunkedArray)):
            key_values = key_values.to_numpy(zero_copy_only=False)
        ref = ray.put(BloomFilter.build(key_values, fpp=fpp))

    def fn(batch: pa.Table) -> pa.Table:
        bf = ray.get(ref)
        mask = bf.contains_many(
            batch[key].to_numpy(zero_copy_only=False)
            if pa.types.is_integer(batch[key].type)
            else batch[key].to_pylist()
        )
        return batch.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow")


def build_bloom_distributed(
    ds: ray.data.Dataset, key: str, m_bits: int = 1 << 20, k: int = 7
):
    """Build one Bloom filter over a DISTRIBUTED key column.

    Each block folds its keys into a pinned-shape partial filter
    (``m_bits``/``k`` fixed → identical bit positions everywhere); only the
    m_bits/8 bytes of words return per block, OR-merged on the driver.
    The build side streams — nothing key-shaped materializes driver-side.
    """
    import numpy as np

    from ..functions.hashing import BloomFilter

    def partial(batch: pa.Table):
        bf = BloomFilter.build(
            batch[key].to_numpy(zero_copy_only=False)
            if pa.types.is_integer(batch[key].type)
            else batch[key].to_pylist(),
            m_bits=m_bits,
            k=k,
        )
        return pa.table({"words": pa.array([bf.words.tobytes()], type=pa.large_binary())})

    words = np.zeros(m_bits // 64, dtype=np.uint64)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        words |= np.frombuffer(row["words"], dtype=np.uint64)
    return BloomFilter(words, m_bits, k)


def _schema_types(ds: ray.data.Dataset) -> dict:
    """{name: pyarrow type} from ``Dataset.schema()``.

    Pandas-backed blocks report object-dtype columns as the Python class
    ``object`` instead of a pyarrow DataType — normalize those to
    ``pa.string()`` (the only object payload these operators emit) and
    numpy dtypes via ``pa.from_numpy_dtype``.
    """
    s = ds.schema()
    out = {}
    for name, t in zip(s.names, s.types):
        if isinstance(t, pa.DataType):
            out[name] = t
        else:
            try:
                out[name] = pa.from_numpy_dtype(t)
            except (TypeError, pa.ArrowNotImplementedError):
                out[name] = pa.string()
    return out


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    by: str,
    on: str,
    n_buckets: int = 32,
    suffix: str = "_right",
) -> ray.data.Dataset:
    """As-of join: for each left row, the latest right row with
    ``right.on <= left.on`` within the same ``by`` key (backward search).

    Composition per the Ray Data guide: tag + bucket by the ``by`` key (all
    rows of a key land in one bucket), then ``pd.merge_asof`` over the
    sorted sides of each bucket — one vectorized pass per bucket.  Inner
    semantics (left rows with no earlier right row are dropped), matching
    DuckDB's ``ASOF JOIN``.  Right's ``on`` value is surfaced as
    ``{on}{suffix}``; colliding right payload columns are suffixed too.
    """
    import pandas as pd

    l_schema = _schema_types(left)
    r_schema = _schema_types(right)
    l_payload = [c for c in l_schema if c not in (by, on)]
    r_payload_src = [c for c in r_schema if c not in (by, on)]
    # right payload names after collision-suffixing (+ the right timestamp)
    r_renamed = {
        c: (c + suffix if c in l_schema else c) for c in r_payload_src
    }
    r_payload = [r_renamed[c] for c in r_payload_src] + [on + suffix]

    def tag_left(batch: pa.Table) -> pa.Table:
        for c in r_payload:
            batch = batch.append_column(
                c,
                pa.nulls(
                    len(batch),
                    type=r_schema.get(
                        c[: -len(suffix)] if c.endswith(suffix) else c,
                        r_schema.get(on),
                    ),
                ),
            )
        batch = batch.append_column(
            _BUCKET, pa.array(bucket_ids_for_column(batch[by], n_buckets))
        )
        return batch.append_column(
            _TAG, pa.array(["l"] * len(batch), type=pa.string())
        )

    def tag_right(batch: pa.Table) -> pa.Table:
        for old, new in r_renamed.items():
            if new != old:
                batch = batch.rename_columns(
                    [new if n == old else n for n in batch.column_names]
                )
        batch = batch.append_column(on + suffix, batch[on])
        for c in l_payload:
            batch = batch.append_column(
                c, pa.nulls(len(batch), type=l_schema[c])
            )
        batch = batch.append_column(
            _BUCKET, pa.array(bucket_ids_for_column(batch[by], n_buckets))
        )
        return batch.append_column(
            _TAG, pa.array(["r"] * len(batch), type=pa.string())
        )

    order = [by, on] + sorted(set(l_payload) | set(r_payload)) + [_BUCKET, _TAG]
    left_t = left.map_batches(tag_left, batch_format="pyarrow").map_batches(
        lambda b: b.select(order), batch_format="pyarrow"
    )
    right_t = right.map_batches(tag_right, batch_format="pyarrow").map_batches(
        lambda b: b.select(order), batch_format="pyarrow"
    )
    union = left_t.union(right_t)

    # Declared output schema — every bucket (including empty / one-sided ones)
    # returns exactly this, so Ray block unification never sees mixed dtypes
    # and int64 ids survive the pandas round-trip (pandas promotes
    # int64-with-null to float64; we split sides BEFORE to_pandas so each
    # side's own columns are null-free, and cast the merged frame back).
    out_schema = pa.schema(
        [(by, l_schema[by]), (on, l_schema[on])]
        + [(c, l_schema[c]) for c in l_payload]
        + [(r_renamed[c], r_schema[c]) for c in r_payload_src]
        + [(on + suffix, r_schema[on])]
    )

    def join_bucket(group: pa.Table) -> pa.Table:
        mask = pc.equal(group[_TAG], "l")
        l_t = group.filter(mask).select([by, on] + l_payload)
        r_t = group.filter(pc.invert(mask)).select([by, on] + r_payload)
        if len(l_t) == 0 or len(r_t) == 0:
            return out_schema.empty_table()
        l = l_t.to_pandas().sort_values(on, kind="mergesort")
        r = r_t.to_pandas().sort_values(on, kind="mergesort")
        merged = pd.merge_asof(l, r, on=on, by=by, direction="backward")
        merged = merged[merged[on + suffix].notna()]
        # merge_asof left-joins, so unmatched-left NaNs promoted right int
        # columns to float64; the notna filter removed those rows — cast back.
        return from_pandas_clean(
            merged[out_schema.names], schema=out_schema, preserve_index=False
        )

    return union.groupby(_BUCKET).map_groups(join_bucket, batch_format="pyarrow")


def interval_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    by: str,
    on: str,
    start: str,
    end: str,
    n_buckets: int = 32,
    suffix: str = "_right",
    time_chunk: "str | None" = None,
) -> ray.data.Dataset:
    """Range/interval join: every (left, right) pair with the same ``by``
    key and ``right.start <= left.on <= right.end`` (inner semantics).

    The sibling of ``asof_join`` for window containment — e.g. assigning
    events to the session span that contains them.  Tag + bucket by the
    ``by`` key, then one vectorized pandas pass per bucket: equi-merge on
    the key and filter BETWEEN — the per-key cross size is the same work a
    SQL BETWEEN join does, and the output bound is inherent.

    ``time_chunk`` (a pandas offset alias like ``"1D"``) adds time to the
    shuffle key for hot ``by`` keys: left rows route by ``(by,
    floor(on))``, right intervals replicate to every chunk they overlap,
    and each matched pair still surfaces exactly once (the chunk of
    ``left.on`` is unique and always among the right row's chunks).  Use
    it when one key's rows outgrow a bucket — the normal salting story,
    kept exact.
    """
    import pandas as pd

    l_schema = _schema_types(left)
    r_schema = _schema_types(right)
    l_payload = [c for c in l_schema if c not in (by, on)]
    r_payload_src = [c for c in r_schema if c not in (by,)]
    r_renamed = {c: (c + suffix if c in l_schema else c) for c in r_payload_src}
    r_payload = [r_renamed[c] for c in r_payload_src]
    start_o, end_o = r_renamed[start], r_renamed[end]

    out_schema = pa.schema(
        [(by, l_schema[by]), (on, l_schema[on])]
        + [(c, l_schema[c]) for c in l_payload]
        + [(r_renamed[c], r_schema[c]) for c in r_payload_src]
    )

    def tag_left(batch: pa.Table) -> pa.Table:
        for c in r_payload:
            src = c[: -len(suffix)] if c.endswith(suffix) and c[: -len(suffix)] in r_schema else c
            batch = batch.append_column(
                c, pa.nulls(len(batch), type=r_schema[src])
            )
        if time_chunk is None:
            ids = bucket_ids_for_column(batch[by], n_buckets)
            chunks = [""] * len(batch)
        else:
            floored = pd.Series(batch[on].to_pandas()).dt.floor(time_chunk)
            chunks = [t.isoformat() for t in floored]
            keys = [
                f"{k}|{c}" for k, c in zip(batch[by].to_pylist(), chunks)
            ]
            ids = hash_bucket(keys, n_buckets)
        batch = batch.append_column(
            _CHUNK, pa.array(chunks, type=pa.string())
        )
        batch = batch.append_column(_BUCKET, pa.array(ids))
        return batch.append_column(
            _TAG, pa.array(["l"] * len(batch), type=pa.string())
        )

    def tag_right(batch: pa.Table) -> pa.Table:
        for old, new in r_renamed.items():
            if new != old:
                batch = batch.rename_columns(
                    [new if n == old else n for n in batch.column_names]
                )
        for c in [on] + l_payload:
            batch = batch.append_column(
                c, pa.nulls(len(batch), type=l_schema[c])
            )
        if time_chunk is None:
            batch = batch.append_column(
                _CHUNK, pa.array([""] * len(batch), type=pa.string())
            )
            ids = pa.array(bucket_ids_for_column(batch[by], n_buckets))
            batch = batch.append_column(_BUCKET, ids)
            return batch.append_column(
                _TAG, pa.array(["r"] * len(batch), type=pa.string())
            )
        # replicate each interval to every chunk it overlaps; the replica
        # carries its chunk so the per-bucket merge keys on (by, chunk) and
        # a pair never matches twice even when several chunks share a bucket
        starts = pd.Series(batch[start_o].to_pandas()).dt.floor(time_chunk)
        ends = pd.Series(batch[end_o].to_pandas()).dt.floor(time_chunk)
        step = pd.Timedelta(time_chunk)
        idx, keys, chunks = [], [], []
        bys = batch[by].to_pylist()
        for i, (s0, e0) in enumerate(zip(starts, ends)):
            c = s0
            while c <= e0:
                idx.append(i)
                chunks.append(c.isoformat())
                keys.append(f"{bys[i]}|{chunks[-1]}")
                c = c + step
        rep = batch.take(pa.array(idx, type=pa.int64()))
        rep = rep.append_column(_CHUNK, pa.array(chunks, type=pa.string()))
        rep = rep.append_column(
            _BUCKET, pa.array(hash_bucket(keys, n_buckets))
        )
        return rep.append_column(
            _TAG, pa.array(["r"] * len(rep), type=pa.string())
        )

    order = (
        [by, on]
        + sorted(set(l_payload) | set(r_payload))
        + [_CHUNK, _BUCKET, _TAG]
    )
    left_t = left.map_batches(tag_left, batch_format="pyarrow").map_batches(
        lambda b: b.select(order), batch_format="pyarrow"
    )
    right_t = right.map_batches(tag_right, batch_format="pyarrow").map_batches(
        lambda b: b.select(order), batch_format="pyarrow"
    )
    union = left_t.union(right_t)

    def join_bucket(group: pa.Table) -> pa.Table:
        mask = pc.equal(group[_TAG], "l")
        l_t = group.filter(mask).select([by, _CHUNK, on] + l_payload)
        r_t = group.filter(pc.invert(mask)).select([by, _CHUNK] + r_payload)
        if len(l_t) == 0 or len(r_t) == 0:
            return out_schema.empty_table()
        l = l_t.to_pandas()
        r = r_t.to_pandas()
        m = l.merge(r, on=[by, _CHUNK], how="inner")
        m = m[(m[start_o] <= m[on]) & (m[on] <= m[end_o])]
        return from_pandas_clean(
            m[out_schema.names], schema=out_schema, preserve_index=False
        )

    return union.groupby(_BUCKET).map_groups(join_bucket, batch_format="pyarrow")


def auto_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    keys: list[str] | str,
    join_type: str = "inner",
    broadcast_bytes: int = 64 * 1024 * 1024,
    n_buckets: int = 32,
    left_schema: dict | None = None,
    right_schema: dict | None = None,
    bucket_post=None,
):
    """Pick the join physical plan from the build side's estimated size.

    The planner rule every engine ships: a build side under
    ``broadcast_bytes`` (64 MB default — roughly one object-store copy per
    node) materializes once and probes per batch with zero shuffle
    (``broadcast_join``); anything larger goes through the bucketed
    ``shuffle_join``.  ``Dataset.size_bytes()`` is metadata for Parquet
    reads and a cheap partial execution otherwise; ``None`` (unknown)
    falls back to the shuffle plan — the safe direction, since a broadcast
    of an unexpectedly-large side OOMs while a shuffle of a small side
    merely wastes an exchange.  A non-None ``bucket_post`` also forces the
    shuffle plan: its contract (each key complete within one call) only
    holds for key-bucketed groups, never for arbitrary probe batches.

    Returns ``(joined, plan)`` where plan ∈ {"broadcast", "shuffle"} so
    callers/tests can assert the decision.
    """
    est = right.size_bytes() if bucket_post is None else None
    if est is not None and est <= broadcast_bytes:
        refs = right.to_arrow_refs()
        if refs:
            small = pa.concat_tables(
                [ray.get(r) for r in refs], promote_options="default"
            )
            out = broadcast_join(left, small, keys, join_type=join_type)
            return out, "broadcast"
    return (
        shuffle_join(
            left,
            right,
            keys,
            n_buckets=n_buckets,
            join_type=join_type,
            left_schema=left_schema or _schema_types(left),
            right_schema=right_schema or _schema_types(right),
            bucket_post=bucket_post,
        ),
        "shuffle",
    )


def band_self_pairs(
    ds: ray.data.Dataset,
    id_col: str,
    value_col: str,
    width: int,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Numeric band self-join: every unordered pair of rows with
    ``|v_a − v_b| ≤ width`` over an INTEGER value column → (id_a, id_b,
    diff) with ``id_a < id_b`` — the numeric sibling of the text
    similarity joins (price-collision audits, near-identical metric
    detection), with no equi key for ``interval_join`` to lean on.

    Cell partitioning keeps it one exchange with zero misses and zero
    duplicates: cell = v // width, every row replicates to cells (c,
    c + 1); any qualifying pair spans at most adjacent cells, so it
    co-occurs in exactly the cell ``max(c_a, c_b)`` — the per-cell pass
    emits a pair iff that cell is the one being processed.  Within a
    cell the candidates are found by ONE vectorized ``searchsorted``
    over the sorted values (no per-row Python); cells regroup through one
    keyed exchange of ``n_buckets`` buckets.

    Scale: the output is Θ(#qualifying pairs) — inherent to the
    predicate, same caveat as every similarity join; pick ``width`` so
    the densest cell fits one task.
    """
    import numpy as np
    import pandas as pd

    def replicate(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        cell = v // width
        out_ids = np.concatenate([ids, ids])
        out_v = np.concatenate([v, v])
        out_oc = np.concatenate([cell, cell])
        out_cell = np.concatenate([cell, cell + 1])
        return pa.table(
            {
                "id": pa.array(out_ids),
                "v": pa.array(out_v, type=pa.int64()),
                "oc": pa.array(out_oc, type=pa.int64()),
                "cell": pa.array(out_cell, type=pa.int64()),
            }
        )

    def pairs_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for cell_id, g in group.groupby("cell", sort=False):
            g = g.sort_values("v", kind="mergesort")
            v = g["v"].to_numpy()
            ids = g["id"].to_numpy()
            oc = g["oc"].to_numpy()
            n = len(g)
            if n < 2:
                continue
            hi = np.searchsorted(v, v + width, side="right")
            starts = np.arange(n) + 1
            counts = np.maximum(hi - starts, 0)
            total = int(counts.sum())
            if total == 0:
                continue
            offsets = np.cumsum(counts) - counts
            ii = np.repeat(np.arange(n), counts)
            jj = np.arange(total) - np.repeat(offsets, counts) + np.repeat(
                starts, counts
            )
            # exactly-once rule: this cell owns the pair iff it is
            # max(original cells)
            keep = np.maximum(oc[ii], oc[jj]) == cell_id
            ii, jj = ii[keep], jj[keep]
            a, b = ids[ii], ids[jj]
            lo = np.minimum(a, b)
            hi_id = np.maximum(a, b)
            outs.append(
                pd.DataFrame(
                    {
                        "id_a": lo,
                        "id_b": hi_id,
                        "diff": np.abs(v[ii] - v[jj]),
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "id_a": pd.array([], dtype="int64"),
                    "id_b": pd.array([], dtype="int64"),
                    "diff": pd.array([], dtype="int64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    return keyed_exchange(
        ds.map_batches(replicate, batch_format="pyarrow"),
        ["cell"],
        pairs_in_bucket,
        n_buckets,
        batch_format="pandas",
    )
