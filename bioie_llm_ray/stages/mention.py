"""MentionDetector — stateful vocabulary-automaton stage (SURVEY §7.1).

Finds candidate entity mentions in document content with the reference's
boundary semantics (base_processor.py:1275-1296): a surface form matches only
where the adjacent characters are not in ``[a-zA-Z0-9-_]`` — ``EB1`` never
matches inside ``RHEB1``, ``PSD`` never inside ``PSD-95``.

Implemented as a single compiled alternation with lookarounds, longest
alternative first (so ``PSD-95`` wins over ``PSD`` at the same offset) —
equivalent to the reference's per-gold-name ``re.finditer`` scan for
non-overlapping vocabularies, but one pass over the text instead of
|vocab| passes.

Usage (actor pool so the automaton compiles once per worker):

    ds.map_batches(MentionDetector, fn_constructor_kwargs={"vocab": vocab},
                   batch_format="pyarrow", concurrency=8)

Constructor-arg discipline (ray#53727): actor constructor arguments that
live in the object store make actor RESTART fail if those objects are
lost — on a multi-node cluster object loss is routine, so stateful stages
must be rehydratable from plain values.  Pass small vocabularies by value
(inlined in the actor creation task) and big lexicons as a
:class:`ParquetState` pointer (path + columns) that ``__init__`` loads
from shared storage; ``ray.put`` refs are still accepted for legacy
callers but are the restart-fragile shape.
"""

from __future__ import annotations

import functools
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

_BOUNDARY_CLASS = "[a-zA-Z0-9\\-_]"
_CLASS_ONLY = re.compile(r"[a-zA-Z0-9\-_]+\Z")


def compile_vocab_pattern(vocab: list[str]) -> re.Pattern:
    alts = sorted({v.strip() for v in vocab if v.strip()}, key=len, reverse=True)
    body = "|".join(re.escape(v) for v in alts)
    return re.compile(
        f"(?<!{_BOUNDARY_CLASS})(?:{body})(?!{_BOUNDARY_CLASS})"
    )


def vocab_is_tokenizable(vocab) -> bool:
    """True when every vocabulary term consists solely of boundary-class
    characters — the precondition for the vectorized token scan below."""
    return all(v and _CLASS_ONLY.match(v) for v in vocab)


def vocab_token_hits(texts, vocab_arr: pa.Array):
    """Vectorized boundary-checked mention scan: ``(row_idx, vocab_idx)``
    of every valid mention, in text order within each row.

    Exactly equivalent to scanning with ``compile_vocab_pattern`` when
    every term satisfies :func:`vocab_is_tokenizable` (callers must
    check): the reference's boundary rule (base_processor.py:1275-1296 —
    adjacent chars must not be in ``[a-zA-Z0-9\\-_]``) means a valid match
    of a class-only term occupies a MAXIMAL run of class characters, i.e.
    a whole token under splitting on ``[^a-zA-Z0-9\\-_]+``.  A term
    nested inside a longer token always fails the boundary check, which
    is also why the regex alternation's longest-first tie-break needs no
    special handling here — token equality is already "longest".

    One Arrow regex split + ``index_in`` per batch replaces the per-row
    Python ``finditer`` loop (the round-4 MinHash vectorization recipe).
    ``vocab_arr`` must contain each surface form once; its ORDER defines
    the returned ``vocab_idx`` (pass it sorted when the caller's
    downstream semantics sort mentions alphabetically).
    """
    toks = pc.split_pattern_regex(texts, pattern=r"[^a-zA-Z0-9\-_]+")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    vidx = pc.index_in(flat, value_set=vocab_arr)
    mask = pc.is_valid(vidx)
    row = parents.filter(mask).to_numpy(zero_copy_only=False).astype(np.int64)
    vi = vidx.filter(mask).to_numpy(zero_copy_only=False).astype(np.int64)
    return row, vi


class ParquetState:
    """Rehydratable actor state: a pointer to columns in shared storage.

    Serializes as (path, columns, filesystem-URI) — plain values inlined
    in the actor creation task — and loads the actual table in the
    worker's ``__init__``.  This is the restart-safe shape for lexicons
    too big to inline (>~100 KB constructor args get promoted to the
    object store, reintroducing ray#53727): a restarted actor re-reads
    the parquet instead of depending on a possibly-lost object.
    """

    def __init__(self, path: str, columns: list[str] | None = None):
        self.path = path
        self.columns = list(columns) if columns else None

    def load(self) -> pa.Table:
        import pyarrow.parquet as pq

        from ..state.fs import ray_fs, resolve

        fs, p = resolve(self.path)
        return pq.read_table(p, columns=self.columns, filesystem=ray_fs(fs))

    def fingerprint(self) -> list:
        """(path, columns, then (file, size, mtime) for every file under
        the path): changes whenever the stored content may have changed."""
        from ..state.fs import resolve

        fs, p = resolve(self.path)
        infos = fs.find(p, detail=True) if fs.isdir(p) else {p: fs.info(p)}
        return [
            self.path,
            self.columns,
            [
                [name, info.get("size"), str(info.get("mtime"))]
                for name, info in sorted(infos.items())
            ],
        ]


def _resolve_state(value):
    """Plain value | ParquetState | legacy ObjectRef → plain value."""
    if isinstance(value, ray.ObjectRef):
        return ray.get(value)
    return value


class MentionDetector:
    """Actor-pool callable: content → one row per detected mention.

    Output columns: carried id columns + (mention, span_start, span_end).
    """

    def __init__(
        self,
        vocab,
        text_col: str = "content",
        id_cols: tuple[str, ...] = ("content_sha256",),
    ):
        vocab = _resolve_state(vocab)
        if isinstance(vocab, ParquetState):
            vocab = vocab.load().column(0).to_pylist()
        self.vocab = list(vocab)
        self.text_col = text_col
        self.id_cols = list(id_cols)

    @functools.cached_property
    def pattern(self) -> re.Pattern:
        """The regex alternation, compiled on first use (the vectorized
        ``vocab_token_hits`` scan never needs it)."""
        return compile_vocab_pattern(self.vocab)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        ids = {c: batch[c].to_pylist() for c in self.id_cols}
        out: dict[str, list] = {c: [] for c in self.id_cols}
        out.update({"mention": [], "span_start": [], "span_end": []})
        for i, text in enumerate(texts):
            for m in self.pattern.finditer(text):
                for c in self.id_cols:
                    out[c].append(ids[c][i])
                out["mention"].append(m.group(0))
                out["span_start"].append(m.start())
                out["span_end"].append(m.end())
        return pa.table(
            {
                **{c: pa.array(out[c]) for c in self.id_cols},
                "mention": pa.array(out["mention"], type=pa.string()),
                "span_start": pa.array(out["span_start"], type=pa.int32()),
                "span_end": pa.array(out["span_end"], type=pa.int32()),
            }
        )
