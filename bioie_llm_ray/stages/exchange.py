"""The keyed exchange every hash-bucketed stage shares.

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
``groupby`` exchange costs about 85 ms.

``n_buckets_for_bytes`` sizes B from the input's bytes, so B = 1 whenever
the input fits one bucket.

Not built on it: exchanges of two inputs (``graph.py``, ``join.py``),
range-bucketed scans whose bucket is an ordered range of a value rather
than a hash (``scan.py`` and the time or id ranges some queries tag),
and kernels that read their own bucket id.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa
import ray

from ..functions.hashing import bucket_ids_for_column, bucket_ids_for_columns

# not "__bucket": callers may carry a bucket column of their own
_BUCKET = "__kx_bucket"

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
    ds: ray.data.Dataset, kernel: Callable[[pa.Table], pa.Table]
) -> ray.data.Dataset:
    """``kernel`` once over all rows of ``ds``, in one map task.

    ``repartition(1)`` concatenates the blocks without a shuffle.  Ray
    Data passes a zero-row block through a map without calling it, so over
    an empty input the kernel never runs and the result keeps the input's
    columns; callers that need typed-empty output pin it themselves."""
    return ds.repartition(1).map_batches(
        kernel, batch_format="pyarrow", batch_size=None
    )


def keyed_exchange(
    ds: ray.data.Dataset,
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
    """
    if n_buckets == 1:
        if batch_format == "pyarrow":
            return one_task(ds, kernel)
        return ds.repartition(1).map_batches(
            kernel, batch_format=batch_format, batch_size=None
        )

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
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby(_BUCKET)
        .map_groups(per_bucket, batch_format=batch_format)
    )
