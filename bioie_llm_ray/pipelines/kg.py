"""Flagship KG-construction pipeline over the docs table (SURVEY §7.1).

    read_parquet(docs) → sha256 → extract + link (one task-pool stage:
    boundary-checked vocabulary scan, alias index applied in the same
    call) → canonical dedup → triples

The triple-emission convention mirrors the reference's STRING entity task: a
document stating "Q interacts with A, B" yields (Q, rel, A), (Q, rel, B) —
the first detected mention is the subject, subsequent mentions objects.
Subject/object pairing happens inside the extraction call (one pass per
document), so no per-document shuffle is needed; the only wide operation is
the final dedup.  Its bucket count B is sized from the input's bytes
(``dedup_buckets``).  A shard that fits one bucket (up to 16 MiB of parquet)
gets B = 1: one first-per-key pass, with no exchange.  Salting on the
source sha, which defuses hub-entity keys, applies only at B > 1, where the
dedup is the two-phase salted exchange.

The checkpointed job (``run_flagship_resumable``) runs each B = 1 shard as
one plain Ray task, read → extract + link → first-per-key → write, with no
Dataset, and submits every such shard at once, so the shards run
concurrently and each partition commits as its task finishes.  A larger
shard streams through a Dataset, one partition after another.

Extraction runs as stateless tasks, not as an actor pool.  The lexicon
state (vocabulary and linked-id arrays) is built once per worker process
and cached under a content digest of (vocab, relation, alias index), so it
is reused across batches, partitions and runs: no actor pool starts or
stops per Dataset, and a task gives its CPU back after each batch, so the
downstream shuffle schedules even on a one-CPU session.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections import OrderedDict

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..functions.hashing import add_sha256_column
from ..sources.readers import read_docs
from ..stages.dedup import batch_local_dedup, first_per_key, salted_dedup
from ..stages.exchange import n_buckets_for_bytes
from ..stages.linker import EntityLinker
from ..stages.mention import (
    MentionDetector,
    ParquetState,
    _resolve_state,
    vocab_is_tokenizable,
    vocab_token_hits,
)


class TripleExtractor(MentionDetector):
    """Mention detection + per-document triple emission + entity linking in
    one pass.

    Emitting triples inside the same stage as detection keeps all mentions of
    a document on one worker without any co-location shuffle — the
    partitioning assumption is simply "a document is one row".

    When every vocabulary term is boundary-class-only (the common case —
    gene/protein symbols are ``[a-zA-Z0-9\\-_]``), the scan runs as one
    vectorized Arrow pass (``stages.mention.vocab_token_hits``); vocabularies
    with terms the tokenizer can't express (embedded spaces/punctuation)
    fall back to the per-row regex loop with identical semantics.

    With an ``alias_index``, ``subj``/``obj`` carry canonical ids exactly as
    two ``EntityLinker(add_linked_flag=False)`` passes over the output would
    set them.  The vectorized path links the sorted vocabulary once and
    takes from the linked array; the subj != obj filter still compares
    surface forms, as it does before a separate linking pass.
    """

    def __init__(
        self,
        vocab,
        relation: str = "interacts_with",
        alias_index=None,
        **kwargs,
    ):
        super().__init__(vocab, **kwargs)  # resolves vocab → self.vocab
        self.relation = relation
        self.linker = (
            None
            if alias_index is None
            else EntityLinker(alias_index, add_linked_flag=False)
        )
        self.vocab_arr = None
        if vocab_is_tokenizable(self.vocab):
            self.vocab_arr = pa.array(sorted(set(self.vocab)), type=pa.string())
            self.linked_arr = self._link(self.vocab_arr.to_pylist())

    def _link(self, surfaces: list[str]) -> pa.Array:
        if self.linker is not None:
            surfaces, _ = self.linker.link(surfaces)
        return pa.array(surfaces, type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.vocab_arr is None:
            return self._call_regex(batch)
        import numpy as np

        row, vi = vocab_token_hits(batch[self.text_col], self.vocab_arr)
        # subj = first mention per doc; objs = every later mention != subj
        udocs, first_idx = np.unique(row, return_index=True)
        subj_per_row = vi[first_idx][np.searchsorted(udocs, row)]
        is_first = np.zeros(len(row), dtype=bool)
        is_first[first_idx] = True
        keep = ~is_first & (vi != subj_per_row)
        rows = pa.array(row[keep])
        n = len(rows)
        return pa.table(
            {
                **{c: batch[c].take(rows) for c in self.id_cols},
                "subj": self.linked_arr.take(pa.array(subj_per_row[keep])),
                "pred": pa.array([self.relation] * n, type=pa.string()),
                "obj": self.linked_arr.take(pa.array(vi[keep])),
            }
        )

    def _call_regex(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        ids = {c: batch[c].to_pylist() for c in self.id_cols}
        out: dict[str, list] = {c: [] for c in self.id_cols}
        out.update({"subj": [], "pred": [], "obj": []})
        for i, text in enumerate(texts):
            mentions = [m.group(0) for m in self.pattern.finditer(text)]
            if len(mentions) < 2:
                continue
            subj, objs = mentions[0], mentions[1:]
            for obj in objs:
                if obj == subj:
                    continue
                for c in self.id_cols:
                    out[c].append(ids[c][i])
                out["subj"].append(subj)
                out["pred"].append(self.relation)
                out["obj"].append(obj)
        return pa.table(
            {
                **{c: pa.array(out[c]) for c in self.id_cols},
                "subj": self._link(out["subj"]),
                "pred": pa.array(out["pred"], type=pa.string()),
                "obj": self._link(out["obj"]),
            }
        )


# Per-worker-process extractors, most recently used last, keyed by
# ``_state_digest``.  A few entries cover the (vocab, relation, alias
# index) combinations one job alternates between.
_EXTRACTORS: OrderedDict[str, TripleExtractor] = OrderedDict()
_EXTRACTORS_MAX = 4


def _extract_batch(batch: pa.Table, *, key: str, **ctor) -> pa.Table:
    """Task body: this process's cached ``TripleExtractor(**ctor)``, built
    on first use of ``key``, applied to one batch."""
    tx = _EXTRACTORS.pop(key, None) or TripleExtractor(**ctor)
    _EXTRACTORS[key] = tx
    if len(_EXTRACTORS) > _EXTRACTORS_MAX:
        _EXTRACTORS.popitem(last=False)
    return tx(batch)


def _state_digest(**ctor) -> str:
    """Content digest of the extractor's constructor arguments.  A
    ``ParquetState`` contributes its path, columns and each file's size and
    mtime; object identity never enters the key."""
    h = hashlib.sha256()
    for name, value in sorted(ctor.items()):
        value = _resolve_state(value)
        if isinstance(value, ParquetState):
            value = {"parquet_state": value.fingerprint()}
        h.update(json.dumps([name, value], sort_keys=True, default=list).encode())
    return h.hexdigest()


def extract_triples(
    docs: ray.data.Dataset,
    vocab: list[str],
    alias_index: dict[str, str] | None = None,
    relation: str = "interacts_with",
    dedup: bool = True,
    batch_size: int = 1024,
    n_salt: int = 16,
    n_buckets: int = 64,
    text_col: str = "content",
) -> ray.data.Dataset:
    """docs (with content_sha256) → canonical (subj, pred, obj, src_sha).

    Extraction and linking are one task-pool ``map_batches`` stage.  Its
    function takes this worker process's cached ``TripleExtractor`` for the
    digest of (vocab, relation, alias_index), computed here once, so the
    lexicon state is built once per process and reused across batches,
    partitions and runs.

    ``vocab`` and ``alias_index`` travel BY VALUE in ``fn_kwargs`` (or as a
    ``ParquetState`` pointer for big lexicons), never as ``ray.put`` refs:
    a retried task must not depend on a user object that may be lost
    (ray#53727).

    ``dedup`` runs ``salted_dedup`` with ``n_buckets`` buckets (size it
    with ``dedup_buckets``).  Salting applies only at B > 1, where a
    batch-local combiner dedup runs first to shrink the exchange.  At
    B = 1 the dedup is one first-per-key pass that already sees every
    row, so there is no combiner and no exchange.
    """
    ctor = {
        "vocab": vocab, "relation": relation, "alias_index": alias_index,
        "text_col": text_col,
    }
    triples = docs.map_batches(
        _extract_batch,
        fn_kwargs={"key": _state_digest(**ctor), **ctor},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    # TripleExtractor carries content_sha256 (its default id col); avoid
    # ds.schema() here — it would trigger partial execution of the pipeline.
    triples = triples.rename_columns({"content_sha256": "src_sha"})
    if dedup:
        keys = ["subj", "pred", "obj"]
        if n_buckets > 1:
            # combiner-style local dedup first, then the salted exchange
            triples = batch_local_dedup(triples, keys)
        triples = salted_dedup(
            triples, keys, salt_col="src_sha", n_salt=n_salt, n_buckets=n_buckets
        )
    return triples


def dedup_buckets(docs_path) -> int:
    """Dedup bucket count for the docs at ``docs_path``, sized from the
    file's bytes on disk: B = 1 up to 16 MiB (``n_buckets_for_bytes`` with
    floor 1).  A path that is not one local file (a directory, a list, a
    remote URI) keeps 64 buckets, since its size is not one ``getsize``."""
    if not (isinstance(docs_path, (str, os.PathLike)) and os.path.isfile(docs_path)):
        return 64
    return n_buckets_for_bytes(os.path.getsize(docs_path), floor=1)


def run_flagship(
    docs_path,
    vocab: list[str],
    alias_index: dict[str, str] | None = None,
    out_path: str | None = None,
    **kwargs,
) -> ray.data.Dataset:
    docs = read_docs(docs_path)
    kwargs.setdefault("n_buckets", dedup_buckets(docs_path))
    triples = extract_triples(docs, vocab, alias_index=alias_index, **kwargs)
    if out_path is not None:
        triples.write_parquet(out_path)
    return triples


@ray.remote
def _build_partition(path: str, tmp: str, *, dedup: bool, key: str, **ctor) -> float:
    """One shard that fits one bucket, in one task: read, sha256, extract +
    link, first-per-key dedup on (subj, pred, obj) in file order, and write
    into ``tmp``, cleared first so a retried task starts over.  A shard
    with no triples writes no file.  Returns the task's wall seconds."""
    t0 = time.perf_counter()
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    docs = add_sha256_column(pq.read_table(path), column=ctor["text_col"])
    triples = _extract_batch(docs, key=key, **ctor)
    triples = triples.rename_columns(
        ["src_sha" if c == "content_sha256" else c for c in triples.column_names]
    )
    if dedup:
        triples = first_per_key(triples, ["subj", "pred", "obj"])
    if triples.num_rows:
        pq.write_table(triples, os.path.join(tmp, "part-0.parquet"))
    return time.perf_counter() - t0


def run_flagship_resumable(
    docs_paths: list[str],
    vocab: list[str],
    out_root: str,
    alias_index: dict[str, str] | None = None,
    model_id: str = "mock-vocab-scorer",
    text_col: str = "content",
    **kwargs,
) -> dict:
    """Checkpointed flagship: one partition per input file, resume-safe.

    Each partition's manifest records the north-rule lineage fields: source
    path, vocabulary hash, model id, and per-partition metrics.  Rerunning
    after a crash skips partitions whose MANIFEST.json exists with the same
    lineage.  ``text_col`` names the docs' text column.

    Each shard's dedup is sized from that shard's bytes (``dedup_buckets``).
    A shard that fits one bucket is one ``_build_partition`` task; all such
    tasks are submitted at once and each partition is committed as its
    task finishes.  Larger shards, and every shard when the caller passes
    ``n_buckets``, run the streaming Dataset path, one after another.
    """
    from ..state import checkpoint

    vocab_hash = hashlib.sha256(
        "\x1f".join(sorted(vocab)).encode()
    ).hexdigest()[:16]
    relation = kwargs.get("relation", "interacts_with")

    def make(path: str):
        def build() -> ray.data.Dataset:
            docs = read_docs(path, text_col=text_col)
            kw = {"n_buckets": dedup_buckets(path), **kwargs}
            return extract_triples(
                docs, vocab, alias_index=alias_index, text_col=text_col, **kw
            )

        return build

    def lineage(part_id: str) -> dict:
        return {
            "source_path": part_map[part_id],
            "vocab_sha256": vocab_hash,
            "model_id": model_id,
            "relation": relation,
        }

    part_map = {
        hashlib.md5(p.encode()).hexdigest()[:12]: p for p in docs_paths
    }
    one_task = {
        pid: path
        for pid, path in sorted(part_map.items())
        if "n_buckets" not in kwargs and dedup_buckets(path) == 1
    }
    skipped = [
        pid for pid in one_task if checkpoint.can_skip(out_root, pid, lineage(pid))
    ]
    ctor = {
        "vocab": vocab, "relation": relation, "alias_index": alias_index,
        "text_col": text_col,
    }
    key = _state_digest(**ctor)
    refs = {
        _build_partition.remote(
            path, checkpoint.tmp_dir(out_root, pid),
            dedup=kwargs.get("dedup", True), key=key, **ctor,
        ): pid
        for pid, path in one_task.items()
        if pid not in skipped
    }
    try:
        streamed = checkpoint.run_resumable(
            out_root,
            [(pid, make(p)) for pid, p in sorted(part_map.items()) if pid not in one_task],
            lineage_fn=lineage,
        )
    finally:
        tasks = checkpoint.commit_as_finished(out_root, refs, lineage)
    return {
        "completed": tasks["completed"] + streamed["completed"],
        "skipped": skipped + streamed["skipped"],
        "manifests": {**tasks["manifests"], **streamed["manifests"]},
    }


def predicate_profile(triples: "ray.data.Dataset") -> "pd.DataFrame":
    """Schema induction over a materialized (subj, pred, obj) triple
    store: per-predicate cardinality profile — triple count, distinct
    subjects/objects, and the mean fan-outs (n_triples / n_subj,
    n_triples / n_obj; a fanout_subj near 1.0 marks a functional
    predicate, the signal ontology mappers use to type relations).

    Fully distributed: one count combiner per pred plus two bucketed
    (pred, endpoint) ``exact_dedup`` passes — the distinct counts never
    build a driver-side set; only the |predicates|-row profile reaches
    the driver."""
    import pandas as pd
    from ray.data.aggregate import Count

    from ..stages.dedup import exact_dedup

    trip = triples.select_columns(["subj", "pred", "obj"]).materialize()
    n_tr = trip.groupby("pred").aggregate(Count(alias_name="n_triples"))
    n_s = (
        exact_dedup(trip.select_columns(["pred", "subj"]), ["pred", "subj"])
        .groupby("pred")
        .aggregate(Count(alias_name="n_subj"))
    )
    n_o = (
        exact_dedup(trip.select_columns(["pred", "obj"]), ["pred", "obj"])
        .groupby("pred")
        .aggregate(Count(alias_name="n_obj"))
    )
    df = (
        n_tr.to_pandas()
        .merge(n_s.to_pandas(), on="pred")
        .merge(n_o.to_pandas(), on="pred")
    )
    df["fanout_subj"] = (df["n_triples"] / df["n_subj"]).round(6)
    df["fanout_obj"] = (df["n_triples"] / df["n_obj"]).round(6)
    for c in ("n_triples", "n_subj", "n_obj"):
        df[c] = df[c].astype("int64")
    return df.sort_values("pred").reset_index(drop=True)
