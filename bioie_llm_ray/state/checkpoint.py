"""Partitioned, resumable Parquet checkpoints with lineage manifests.

North-rule requirements (BASELINE.json): triple shards checkpoint to Parquet
per partition; a failed run resumes by skipping completed partitions; every
partition records lineage (source repo/path/commit, model id, prompt-template
hash) and per-stage metrics (row counts, wall time).

Layout:

    root/
      part=<part_id>/            completed partition (atomic rename)
        *.parquet
        MANIFEST.json            lineage + metrics; existence == completion
      _tmp_<part_id>/            in-flight write (removed or renamed)

A partition is the unit of resume — one input shard / file / key range.  The
write is atomic on POSIX: data + manifest land in a temp dir which is renamed
into place, so a crash mid-write leaves no half-complete partition.

The reference's input-side convert-and-cache (string_reader.py:69-75) and
pickled test-set cache (string_processor.py:236-243) are the ad-hoc versions
of this; here it is one mechanism for every stage boundary.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections.abc import Callable, Iterable

import ray


def _part_dir(root: str, part_id: str) -> str:
    return os.path.join(root, f"part={part_id}")


def _manifest_path(root: str, part_id: str) -> str:
    return os.path.join(_part_dir(root, part_id), "MANIFEST.json")


def is_complete(root: str, part_id: str) -> bool:
    return os.path.exists(_manifest_path(root, part_id))


def completed_partitions(root: str) -> list[str]:
    if not os.path.isdir(root):
        return []
    out = []
    for name in sorted(os.listdir(root)):
        if name.startswith("part=") and os.path.exists(
            os.path.join(root, name, "MANIFEST.json")
        ):
            out.append(name[len("part=") :])
    return out


def write_partition(
    root: str,
    part_id: str,
    ds: "ray.data.Dataset",
    lineage: dict | None = None,
) -> dict:
    """Write one partition atomically; returns its manifest dict.

    ``lineage`` carries caller-supplied provenance (source repo/path/commit,
    model id, prompt-template hash, …); row count and wall time are measured
    here.
    """
    os.makedirs(root, exist_ok=True)
    tmp = os.path.join(root, f"_tmp_{part_id}")
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    final = _part_dir(root, part_id)
    if os.path.exists(final):
        shutil.rmtree(final)

    t0 = time.perf_counter()
    ds.write_parquet(tmp)
    wall = time.perf_counter() - t0
    # a zero-row Dataset writes no directory; the partition is still done
    os.makedirs(tmp, exist_ok=True)
    n_rows = sum(
        _count_parquet_rows(os.path.join(tmp, f))
        for f in os.listdir(tmp)
        if f.endswith(".parquet")
    )
    n_bytes = sum(
        os.path.getsize(os.path.join(tmp, f))
        for f in os.listdir(tmp)
        if f.endswith(".parquet")
    )
    manifest = {
        "part_id": part_id,
        "n_rows": n_rows,
        "n_bytes": n_bytes,
        "write_wall_sec": round(wall, 3),
        "rows_per_sec": round(n_rows / wall, 1) if wall > 0 else None,
        "lineage": lineage or {},
    }
    with open(os.path.join(tmp, "MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    os.rename(tmp, final)
    return manifest


def _count_parquet_rows(path: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(path).num_rows


def read_checkpoint(
    root: str, columns=None, evolve_schema: "pa.Schema | None" = None
) -> "ray.data.Dataset":
    """Read every completed partition back as one Dataset.

    ``evolve_schema``: schema-evolution-tolerant read for long-lived
    checkpoints — partitions written BEFORE a column was added come back
    with that column null-filled (and cast to the declared type), so a
    backfill job can union old and new partitions without a rewrite.
    Columns present on disk but absent from the schema are dropped.
    The conform step is a per-batch Arrow projection — zero shuffle.
    """
    import pyarrow as pa
    import ray.data

    paths = [
        os.path.join(_part_dir(root, p))
        for p in completed_partitions(root)
    ]
    files = [
        os.path.join(d, f)
        for d in paths
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    ds = ray.data.read_parquet(files, columns=columns)
    if evolve_schema is None:
        return ds

    target = evolve_schema

    def conform(batch: pa.Table) -> pa.Table:
        cols = []
        for field in target:
            if field.name in batch.column_names:
                cols.append(batch[field.name].cast(field.type))
            else:
                cols.append(pa.nulls(len(batch), type=field.type))
        return pa.Table.from_arrays(cols, schema=target)

    return ds.map_batches(conform, batch_format="pyarrow")


def read_manifest(root: str, part_id: str) -> dict:
    with open(_manifest_path(root, part_id)) as f:
        return json.load(f)


class LineageMismatch(RuntimeError):
    """A completed partition's stored lineage differs from the current run's."""


def run_resumable(
    root: str,
    partitions: Iterable[tuple[str, Callable[[], "ray.data.Dataset"]]],
    lineage_fn: Callable[[str], dict] | None = None,
    on_lineage_mismatch: str = "error",
) -> dict:
    """Run (part_id, make_dataset) pairs, skipping completed partitions.

    Returns {"completed": [...], "skipped": [...], "manifests": {...}}.
    A crash between partitions loses nothing; a crash inside a partition
    loses only that partition's temp dir.

    A partition is only skipped when its stored lineage equals the current
    run's ``lineage_fn(part_id)`` — rerunning against the same output dir
    with a different vocab / model / relation must not silently mix
    configurations.  ``on_lineage_mismatch``: ``"error"`` raises
    ``LineageMismatch``; ``"recompute"`` overwrites the stale partition.
    """
    if on_lineage_mismatch not in ("error", "recompute"):
        raise ValueError(f"on_lineage_mismatch: {on_lineage_mismatch!r}")
    done, skipped, manifests = [], [], {}
    for part_id, make_ds in partitions:
        lineage = lineage_fn(part_id) if lineage_fn else {}
        if is_complete(root, part_id):
            stored = read_manifest(root, part_id).get("lineage", {})
            if stored == lineage:
                skipped.append(part_id)
                continue
            if on_lineage_mismatch == "error":
                raise LineageMismatch(
                    f"partition {part_id!r} in {root} was written with lineage "
                    f"{stored!r} but this run declares {lineage!r}; pass "
                    "on_lineage_mismatch='recompute' to overwrite, or use a "
                    "fresh output dir"
                )
            # fall through: recompute the stale partition
        manifests[part_id] = write_partition(root, part_id, make_ds(), lineage)
        done.append(part_id)
    return {"completed": done, "skipped": skipped, "manifests": manifests}


def compact_partition(
    root: str,
    part_id: str,
    target_bytes_per_file: int = 128 * 1024 * 1024,
) -> dict:
    """Rewrite a completed partition into fewer, larger Parquet files —
    the small-files compaction every long-running checkpointed pipeline
    needs (many incremental appends / tiny input shards accumulate files
    far below the efficient scan size; object stores and the parquet
    footer overhead both punish that).

    The rewrite is atomic exactly like ``write_partition``: data lands in
    a temp dir that is renamed over the old partition, so a crash
    mid-compaction leaves the original intact.  The manifest is preserved
    (lineage untouched — compaction changes layout, never content) and
    gains a ``compaction`` record: files before/after and a row-count
    equality assertion — compaction that changes the row count is a bug,
    and it refuses to swap.
    """
    import numpy as np
    import pyarrow.parquet as pq

    import ray.data

    final = _part_dir(root, part_id)
    manifest = read_manifest(root, part_id)
    files = sorted(
        os.path.join(final, f)
        for f in os.listdir(final)
        if f.endswith(".parquet")
    )
    n_before = len(files)
    total_bytes = sum(os.path.getsize(f) for f in files)
    n_target = max(1, int(np.ceil(total_bytes / target_bytes_per_file)))
    if n_target >= n_before:
        return manifest  # nothing to gain; leave the partition untouched

    ds = ray.data.read_parquet(files).repartition(n_target)
    tmp = os.path.join(root, f"_tmp_compact_{part_id}")
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    ds.write_parquet(tmp)

    new_files = [f for f in os.listdir(tmp) if f.endswith(".parquet")]
    n_rows = sum(
        _count_parquet_rows(os.path.join(tmp, f)) for f in new_files
    )
    if n_rows != manifest["n_rows"]:
        shutil.rmtree(tmp)
        raise RuntimeError(
            f"compaction of {part_id!r} changed the row count "
            f"({manifest['n_rows']} -> {n_rows}); original left in place"
        )
    manifest = dict(
        manifest,
        n_bytes=sum(
            os.path.getsize(os.path.join(tmp, f)) for f in new_files
        ),
        compaction={
            "files_before": n_before,
            "files_after": len(new_files),
            "target_bytes_per_file": target_bytes_per_file,
        },
    )
    with open(os.path.join(tmp, "MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    old = os.path.join(root, f"_old_{part_id}")
    if os.path.exists(old):
        shutil.rmtree(old)
    os.rename(final, old)
    os.rename(tmp, final)
    shutil.rmtree(old)
    return manifest


def compact_all(root: str, target_bytes_per_file: int = 128 * 1024 * 1024) -> dict:
    """Compact every completed partition; returns {part_id: manifest}."""
    return {
        p: compact_partition(root, p, target_bytes_per_file)
        for p in completed_partitions(root)
    }
