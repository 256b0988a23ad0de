"""The keyed exchanges every hash-bucketed stage shares.

A bucket kernel takes a table of rows and regroups them by its real key
itself (a sort, an Arrow ``group_by``, a pandas ``groupby`` or a
``np.unique``), so it never needs one Python call per key.  The exchange
only has to bring rows that share a key into one call: ``keyed_exchange``
routes each row by a hash of its key columns and runs the kernel once per
bucket, on a pyarrow table or a pandas frame (``batch_format``).

Because the kernel regroups inside the table, one call over all rows gives
the same rows as one call per bucket.  So when the input fits one bucket
(B == 1) there is no exchange at all: ``repartition(1)`` concatenates the
blocks without a shuffle and a single map task runs the kernel.  On a
warm local session that costs 10-30 ms more than a plain map, where a
``groupby`` exchange costs about 85 ms.  An input that is still one
parquet file need not become a Dataset at all: ``file_task`` reads it
and runs the kernel in one plain Ray task.  On a warm 4-CPU session a
no-op task costs about 2 ms, where an identity read → map →
``repartition(1)`` → map → ``to_pandas`` plan costs about 100 ms.

``cogroup`` is the same exchange over several inputs (the two sides of a
join, a state table and its round's updates): each input is tagged with
its index and widened to one union schema, the widened inputs go through
one ``keyed_exchange``, and the kernel gets one table per input, cast
back to that input's declared schema.

``n_buckets_for_bytes`` sizes B from the input's bytes, so B = 1 whenever
the input fits one bucket.

Not built on them: range-bucketed scans whose bucket is an ordered range
of a value rather than a hash (``scan.py`` and the time or id ranges some
queries tag), and kernels that read their own bucket id.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.hashing import bucket_ids_for_column, bucket_ids_for_columns

# not "__bucket": callers may carry a bucket column of their own
_BUCKET = "__kx_bucket"
# cogroup's input index, and the prefix of an input's own columns in the
# union (so two inputs may carry one column name with different types)
_SIDE = "__cg_side"
_OWN = "__cg{}:{}"

# Target in-memory bytes of keyed payload per map_groups bucket.  Each
# bucket is ~1/B of the keyed table inside ONE task's heap, so B must grow
# with the input: fixed constants that are fine at sf0.1 overflow a task at
# 100×.  The floor keeps the tuned small-scale plans unchanged (more
# buckets than data only adds empty-group scheduling overhead).
_BYTES_PER_BUCKET = 64 * 1024 * 1024
_PARQUET_EXPANSION = 4  # compressed parquet → Arrow heap, conservative


def n_buckets_for_bytes(nbytes: int, floor: int = 16, cap: int = 1 << 16) -> int:
    """Bucket count for one keyed exchange over ``nbytes`` of input:
    ceil(in-memory bytes / _BYTES_PER_BUCKET), floored at the tuned
    small-scale constant, capped at 65536 (beyond that, split the job).

    With ``floor=1`` an input whose in-memory estimate fits one bucket (a
    parquet file of at most 16 MiB) gets B = 1, which ``keyed_exchange``
    runs as one task with no exchange; one task then holds no more input
    than one bucket already may."""
    need = -(-int(nbytes) * _PARQUET_EXPANSION // _BYTES_PER_BUCKET)
    return int(min(cap, max(floor, need)))


def one_task(
    ds: ray.data.Dataset, kernel: Callable, batch_format: str = "pyarrow"
) -> ray.data.Dataset:
    """``kernel`` once over all rows of ``ds``, in one map task, on a
    ``batch_format`` batch.

    ``repartition(1)`` concatenates the blocks without a shuffle.  Ray
    Data passes a zero-row block through a map without calling it, so over
    an empty input the kernel never runs and the result keeps the input's
    columns; callers that need typed-empty output pin it themselves."""
    return ds.repartition(1).map_batches(
        kernel, batch_format=batch_format, batch_size=None
    )


@ray.remote
def _file_task(path: str, columns: list[str], kernel: Callable) -> pa.Table:
    return kernel(pq.read_table(path, columns=columns).replace_schema_metadata())


def file_task(path: str, columns: list[str], kernel: Callable) -> pa.Table:
    """``kernel`` over the ``columns`` of the parquet file at ``path``, in
    one plain Ray task: ``one_task`` for an input that is still a file,
    with no Dataset and no streaming executor.

    The table reaches the kernel without schema metadata, as
    ``analytics._read``'s blocks do.  The kernel is called on zero rows
    too, so it must return its declared schema then."""
    return ray.get(_file_task.remote(os.path.abspath(path), columns, kernel))


def keyed_exchange(
    ds: "ray.data.Dataset | list[ray.data.Dataset]",
    keys: list[str],
    kernel: Callable,
    n_buckets: int,
    batch_format: str = "pyarrow",
) -> ray.data.Dataset:
    """``kernel`` over each group of rows that share a bucket of ``keys``.

    A row's bucket is a hash of its ``keys`` columns: one column through
    ``bucket_ids_for_column``, several through ``bucket_ids_for_columns``
    (vectorized for integer keys, md5 of the string form otherwise), so
    rows with the same key always meet in one kernel call.  The kernel gets
    a ``batch_format`` batch ("pyarrow" or "pandas") of the input columns
    only, never the bucket id.  With ``n_buckets == 1`` the kernel runs
    once over all rows and nothing is hashed.

    ``ds`` may be a list of Datasets of one schema, exchanged as their
    union.  Each is routed in its own map before the union, so the routing
    fuses with the map that made it: Ray Data fuses no map across a union.
    """
    parts = ds if isinstance(ds, list) else [ds]
    if n_buckets == 1:
        return one_task(_union(parts), kernel, batch_format)

    def add_bucket(batch: pa.Table) -> pa.Table:
        if len(keys) == 1:
            ids = bucket_ids_for_column(batch[keys[0]], n_buckets)
        else:
            ids = bucket_ids_for_columns([batch[k] for k in keys], n_buckets)
        return batch.append_column(_BUCKET, pa.array(ids, type=pa.int64()))

    def per_bucket(group):
        if batch_format == "pandas":
            return kernel(group.drop(columns=[_BUCKET]))
        return kernel(group.drop_columns([_BUCKET]))

    per_bucket.__name__ = getattr(kernel, "__name__", "per_bucket")
    return (
        _union([p.map_batches(add_bucket, batch_format="pyarrow") for p in parts])
        .groupby(_BUCKET)
        .map_groups(per_bucket, batch_format=batch_format)
    )


def _union(parts: list[ray.data.Dataset]) -> ray.data.Dataset:
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


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


def cogroup(
    inputs: list[ray.data.Dataset],
    keys: list[str],
    kernel: Callable,
    n_buckets: int,
    batch_format: str = "pyarrow",
    schemas: list[dict] | None = None,
) -> ray.data.Dataset:
    """``kernel([t0, t1, ...])`` over each bucket of ``keys`` shared by
    several inputs: ``t_i`` holds the bucket's rows of ``inputs[i]``.

    ``schemas[i]`` ({name: pyarrow type}) declares input i's columns; where
    it is None (or ``schemas`` is), the input's ``Dataset.schema()`` is
    probed, which executes one upstream block, so callers that know the
    shape pass it.  Every input must declare the ``keys`` columns; they
    route through one ``keyed_exchange`` (the same hash as every
    single-input stage, and one task with no exchange at B = 1) in the
    first input's key types.  Each ``t_i`` holds exactly input i's
    declared columns, keys first, in its declared types: the exchange may
    hand back a null-widened int64 as double or an all-null column as
    null-typed, and the cast undoes that, so every bucket sees one schema
    per input.  ``batch_format="pandas"`` converts each ``t_i`` after that
    cast.
    """
    schemas = [
        s if s is not None else _schema_types(ds)
        for ds, s in zip(inputs, schemas or [None] * len(inputs))
    ]
    decl = [
        pa.schema([(k, s[k]) for k in keys] + [(c, t) for c, t in s.items() if c not in keys])
        for s in schemas
    ]
    own = [[c for c in s if c not in keys] for s in schemas]
    key_fields = [decl[0].field(k) for k in keys]
    union = pa.schema(
        key_fields
        + [(_OWN.format(i, c), s[c]) for i, s in enumerate(schemas) for c in own[i]]
        + [(_SIDE, pa.int8())]
    )

    def widen(i: int):
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            cols = [batch[f.name] for f in key_fields]
            for j, names in enumerate(own):
                for c in names:
                    if j == i:
                        cols.append(batch[c])
                    else:
                        cols.append(pa.nulls(n, type=schemas[j][c]))
            cols.append(pa.array(np.full(n, i, dtype=np.int8)))
            cols = [
                c if c.type == f.type else pc.cast(c, f.type)
                for c, f in zip(cols, union)
            ]
            return pa.Table.from_arrays(cols, schema=union)

        return fn

    def split(group: pa.Table):
        sides = []
        for i in range(len(decl)):
            part = group.filter(pc.equal(group[_SIDE], i))
            t = pa.Table.from_arrays(
                [part[k] for k in keys] + [part[_OWN.format(i, c)] for c in own[i]],
                names=decl[i].names,
            )
            if t.schema != decl[i]:
                t = t.cast(decl[i])
            sides.append(t.to_pandas() if batch_format == "pandas" else t)
        return kernel(sides)

    split.__name__ = getattr(kernel, "__name__", "cogroup")
    tagged = [
        ds.map_batches(widen(i), batch_format="pyarrow") for i, ds in enumerate(inputs)
    ]
    return keyed_exchange(tagged, keys, split, n_buckets)
