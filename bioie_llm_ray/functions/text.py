"""Text-analysis kernels for the document pipeline (SURVEY §2.3 M1 + the
training-data-pipeline extensions: token counting, language-ID,
fingerprinting).

All functions are batch-level: Arrow/numpy/pandas in, Arrow out.  Regexes are
compiled at import; nothing loops over Python rows except where the kernel is
inherently per-string (and then only C-speed library calls per row).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WS = re.compile(r"\s+")
# BPE-ish word/number/punct tokenizer (public GPT-2 style approximation).
_BPE_ISH = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")

# Tiny public stopword sets per language for the n-gram/lexicon language-ID
# heuristic (no external models in this environment).
_LANG_MARKERS: dict[str, frozenset[str]] = {
    "en": frozenset("the a and of to in is it you that was for on are".split()),
    "es": frozenset("el la de que y en un ser se no haber por con".split()),
    "fr": frozenset("le la de et les des en un du une est que pour".split()),
    "de": frozenset("der die das und in den von zu mit sich des auf".split()),
}


def normalize_ws_lower(batch: pa.Table, column: str = "text", out: str = "norm") -> pa.Table:
    """Lower-case + collapse whitespace (M1-style normalizer), vectorized."""
    lowered = pc.utf8_lower(batch[column])
    collapsed = pc.replace_substring_regex(lowered, pattern=r"\s+", replacement=" ")
    return batch.append_column(out, pc.utf8_trim_whitespace(collapsed))


def whitespace_token_count(texts: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Number of whitespace-separated tokens per string, via Arrow kernels."""
    toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(texts), pattern=r"\s+")
    return pc.list_value_length(toks)


def bpe_ish_token_count(texts) -> np.ndarray:
    """Token count under the BPE-ish regex (letters / digits / punct runs)."""
    return np.array([len(_BPE_ISH.findall(t)) for t in texts], dtype=np.int64)


def detect_language(texts) -> list[str]:
    """Marker-lexicon language ID: argmax of per-language stopword hits.

    Ties broken by fixed language order; empty/unknown → 'und'.
    """
    langs = list(_LANG_MARKERS)
    out = []
    for t in texts:
        tokens = t.lower().split()
        best, best_hits = "und", 0
        for lang in langs:
            hits = sum(1 for w in tokens if w in _LANG_MARKERS[lang])
            if hits > best_hits:
                best, best_hits = lang, hits
        out.append(best)
    return out


def rolling_fingerprint(texts, window: int = 8) -> np.ndarray:
    """Rabin-Karp-style rolling-hash document fingerprint (uint64).

    Min-of-rolling-hashes over byte windows of the normalized text — a cheap
    content fingerprint that is stable under leading/trailing noise.
    """
    base = np.uint64(1099511628211)
    out = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        data = np.frombuffer(t.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
        if len(data) < window:
            acc = np.uint64(14695981039346656037)
            for b in data:
                acc = np.uint64(acc * base + b)
            out[i] = acc
            continue
        # vectorized polynomial rolling hash over all windows
        powers = base ** np.arange(window - 1, -1, -1, dtype=np.uint64)
        windows = np.lib.stride_tricks.sliding_window_view(data, window)
        hashes = (windows * powers).sum(axis=1, dtype=np.uint64)
        out[i] = hashes.min()
    return out


def chunk_documents(
    batch: pa.Table,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_tokens: int = 64,
    overlap: int = 16,
) -> pa.Table:
    """Split documents into overlapping fixed-size token windows — the
    standard LLM training-data prep step (context packing / long-doc
    splitting).

    Whitespace tokens; window i covers tokens [i·stride, i·stride +
    max_tokens) with stride = max_tokens − overlap; the final window is
    emitted whenever any token remains uncovered, so every token appears
    in ≥1 chunk.  Chunk text re-joins tokens with single spaces (the usual
    whitespace normalization — chunk boundaries cannot preserve original
    runs anyway).  Output: (id, chunk_id, n_tokens, chunk_text), a pure
    per-batch flat-map — zero shuffle at any scale.
    """
    assert 0 <= overlap < max_tokens
    stride = max_tokens - overlap
    out_id, out_chunk, out_n, out_text = [], [], [], []
    for did, text in zip(
        batch[id_col].to_pylist(), batch[text_col].to_pylist()
    ):
        toks = text.split()
        if not toks:
            continue
        n_chunks = max(1, -(-(len(toks) - overlap) // stride))
        for i in range(n_chunks):
            piece = toks[i * stride : i * stride + max_tokens]
            out_id.append(did)
            out_chunk.append(i)
            out_n.append(len(piece))
            out_text.append(" ".join(piece))
    return pa.table(
        {
            id_col: pa.array(out_id),
            "chunk_id": pa.array(out_chunk, type=pa.int64()),
            "n_tokens": pa.array(out_n, type=pa.int64()),
            "chunk_text": pa.array(out_text, type=pa.string()),
        }
    )
