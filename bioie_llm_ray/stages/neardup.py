"""Deduplication suite for training-data pipelines.

Exact dedup lives in ``stages.dedup``; this module adds the near-dup family,
each expressed Ray-Data-first:

- **MinHash + LSH**: shingle → minhash signature per batch (vectorized
  numpy), explode to (band_id, band_hash) rows, regroup by band →
  candidate pairs → verify Jaccard.  The regroup is one keyed exchange
  (``stages.exchange``) keyed by (band_id, band_hash) — naturally
  load-balanced.
- **SimHash**: 64-bit signed-projection fingerprint per doc; near-dups =
  equal fingerprints (or equal on ≥1 of 4 16-bit bands for Hamming ≤ k
  candidates).  Like MinHash, a plain task: neither holds state worth an
  actor pool.
- **n-gram Jaccard**: the exact prefix-filtered self-join, and the
  pairwise Jaccard verify both candidate generators end in.
- **Embedding cosine**: near-dup over a ``list<float>`` embedding column via
  LSH sign-buckets (random hyperplanes) → within-bucket cosine verify.

The two pair queries (``minhash_neardup_pairs``, ``ngram_jaccard_pairs``)
are a chain of table kernels: candidate rows (bands or prefix rows), pairs
per key run, distinct ``(id_a, id_b)``, Jaccard verify.  When the caller's
bucket counts are 1, i.e. the input fits one bucket, the whole chain,
hashing included, is one ``pa.Table → pa.Table`` kernel
(``minhash_pairs_table``, ``ngram_pairs_table``; ``simhash_dedup_table``
for SimHash) run in ONE task over all rows: ``exchange.one_task`` over a
Dataset, ``exchange.file_task`` over a parquet file.  There is no hashing
map before it, no exchange, no materialization and no driver round trip.
With more buckets the same kernels run per bucket of the keyed exchanges,
and verify re-fetches the texts (``verify_jaccard_pairs_join``).

All hashes are md5-derived (process-stable); signatures use the standard
(a*x+b) mod p universal-hash family with a fixed seed.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.arrowio import from_pandas_clean
from ..functions.hashing import _splitmix64
from .exchange import keyed_exchange, one_task

_MERSENNE = np.uint64((1 << 61) - 1)

_POLY = np.uint64(0x100000001B3)  # FNV-ish odd multiplier


@functools.lru_cache(maxsize=1 << 20)
def _word_hash(word: str) -> int:
    return int.from_bytes(hashlib.md5(word.encode()).digest()[:8], "big")


def _token_hashes(text: str, n_shingle: int) -> np.ndarray:
    """Stable 64-bit hashes of word shingles.

    md5 runs once per DISTINCT word (process-wide LRU — Zipfian reuse makes
    this ~free); shingle hashes combine the word hashes with a vectorized
    position-sensitive polynomial mix instead of hashing each joined
    shingle string.  ~10× over md5-per-shingle on real text.
    """
    toks = text.split()
    if not toks:
        return np.array(
            [int.from_bytes(hashlib.md5(b"").digest()[:8], "big")],
            dtype=np.uint64,
        )
    h = np.array([_word_hash(w) for w in toks], dtype=np.uint64)
    if len(toks) < n_shingle:
        n_shingle = len(toks)
    acc = h[: len(h) - n_shingle + 1].copy()
    for j in range(1, n_shingle):
        acc = _splitmix64(acc * _POLY + h[j : len(h) - n_shingle + 1 + j])
    return _splitmix64(acc)


_EMPTY_HASH = np.uint64(
    int.from_bytes(hashlib.md5(b"").digest()[:8], "big")
)


def _batch_shingle_hashes(
    texts, n_shingle: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Flat shingle-hash array for a whole batch + per-doc offsets.

    The batch-vectorized form of ``_token_hashes``: ONE Arrow whitespace
    split for the batch (empty tokens dropped — parity with ``str.split``
    pinned in tests), ONE dictionary-encode so md5 runs once per DISTINCT
    word in the batch (then through the process-wide LRU), and the
    position-mixing polynomial runs on the flat token array with global
    shifts — doc boundaries handled by masking, no per-doc Python.

    Returns ``(S, soff)`` where ``S[soff[d]:soff[d+1]]`` equals
    ``_token_hashes(texts[d], n_shingle)`` element-for-element (exact-order
    parity pinned in tests), so a per-doc signature is one
    ``np.minimum.reduceat`` away.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_docs = len(texts)
    if n_docs == 0:
        return np.empty(0, dtype=np.uint64), np.zeros(1, dtype=np.int64)
    sp = pc.utf8_split_whitespace(texts)
    lens_raw = pc.list_value_length(sp).to_numpy(zero_copy_only=False)
    lens_raw = np.asarray(lens_raw, dtype=np.int64)
    flat = pc.list_flatten(sp)
    docidx = np.repeat(np.arange(n_docs, dtype=np.int64), lens_raw)
    ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(ne))
    docidx = docidx[ne]
    counts = np.bincount(docidx, minlength=n_docs)
    # md5 once per distinct word (dictionary-encode is the C-level path)
    dic = pc.dictionary_encode(flat)
    codes = np.asarray(dic.indices.to_numpy(zero_copy_only=False), dtype=np.int64)
    uniq = dic.dictionary.to_pylist()
    uh = np.fromiter(
        (_word_hash(w) for w in uniq), dtype=np.uint64, count=len(uniq)
    )
    h = uh[codes] if len(codes) else np.empty(0, dtype=np.uint64)

    toff = np.concatenate(([0], np.cumsum(counts)))
    sc = np.where(counts >= n_shingle, counts - n_shingle + 1, 1)
    soff = np.concatenate(([0], np.cumsum(sc)))
    S = np.empty(soff[-1], dtype=np.uint64)

    T = len(h)
    if T:
        # full-shingle docs: the rolling mix over the flat array; shifts
        # that cross a doc boundary land on masked-out positions
        hp = np.concatenate([h, np.zeros(n_shingle - 1, dtype=np.uint64)])
        acc = h.copy()
        for j in range(1, n_shingle):
            acc = _splitmix64(acc * _POLY + hp[j : j + T])
        sh = _splitmix64(acc)
        pos_in_doc = np.arange(T, dtype=np.int64) - toff[docidx]
        cnt_tok = counts[docidx]
        main = (cnt_tok >= n_shingle) & (pos_in_doc <= cnt_tok - n_shingle)
        S[(soff[docidx] + pos_in_doc)[main]] = sh[main]
    # short docs (0 < n < n_shingle): one shingle over all n tokens,
    # vectorized per length class (at most n_shingle - 1 classes)
    for l in range(1, n_shingle):
        dl = np.flatnonzero(counts == l)
        if not len(dl):
            continue
        acc = h[toff[dl]].copy()
        for j in range(1, l):
            acc = _splitmix64(acc * _POLY + h[toff[dl] + j])
        S[soff[dl]] = _splitmix64(acc)
    S[soff[:-1][counts == 0]] = _EMPTY_HASH
    return S, soff


# transient (n_perm × shingles) chunk bound for the signature matmul —
# 16k shingles × 64 perms × 8 B ≈ 8 MB keeps the working set in L3
# (measured 2× over 64k chunks, 4× over an unchunked pass)
_SIG_CHUNK = 1 << 14


def _universal_hash(a: np.ndarray, b: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """(n_perm × len(seg)) matrix of (a·x + b) mod (2^61−1), uint64 wrap.

    x mod (2^61−1) by shift-add: x = q·2^61 + r ⇒ x ≡ q + r, one
    conditional subtract finishes (q ≤ 7 so q + r < 2M).  Exactly equal to
    ``%`` for every uint64 x; fused in-place ops keep it one allocation +
    one temp instead of five."""
    vals = np.multiply(a[:, None], seg[None, :])
    np.add(vals, b[:, None], out=vals)
    q = np.right_shift(vals, np.uint64(61))
    np.bitwise_and(vals, _MERSENNE, out=vals)
    np.add(vals, q, out=vals)
    np.subtract(vals, _MERSENNE, out=vals, where=vals >= _MERSENNE)
    return vals


def _band_hashes(
    texts, a: np.ndarray, b: np.ndarray,
    n_bands: int, rows_per_band: int, n_shingle: int,
) -> np.ndarray:
    """Texts → (n_docs, n_bands) int64 LSH band keys, fully vectorized:
    flat shingle hashes (``_batch_shingle_hashes``), ONE universal-hash
    outer product + ``np.minimum.reduceat`` per run of whole docs with at
    most ``_SIG_CHUNK`` shingles, then the per-(doc, band) md5 compaction.
    A doc longer than ``_SIG_CHUNK`` is hashed one slice at a time and
    folded into its row with a running minimum, so the transient
    (n_perm × T) matrix never exceeds ``_SIG_CHUNK`` columns."""
    S, soff = _batch_shingle_hashes(texts, n_shingle)
    n_docs = len(soff) - 1
    n_perm = len(a)
    sig = np.empty((n_docs, n_perm), dtype=np.uint64)
    d0 = 0
    while d0 < n_docs:
        d1 = d0 + 1
        while d1 < n_docs and soff[d1 + 1] - soff[d0] <= _SIG_CHUNK:
            d1 += 1
        if soff[d1] - soff[d0] <= _SIG_CHUNK:
            vals = _universal_hash(a, b, S[soff[d0] : soff[d1]])
            sig[d0:d1] = np.minimum.reduceat(
                vals, soff[d0 : d1] - soff[d0], axis=1
            ).T
        else:
            row = sig[d0]
            row[:] = np.iinfo(np.uint64).max
            for s in range(soff[d0], soff[d1], _SIG_CHUNK):
                seg = S[s : min(s + _SIG_CHUNK, soff[d1])]
                np.minimum(row, _universal_hash(a, b, seg).min(axis=1), out=row)
        d0 = d1
    flat_bands = np.ascontiguousarray(sig).reshape(
        n_docs * n_bands, rows_per_band
    )
    step = rows_per_band * 8
    mv = memoryview(flat_bands.tobytes())
    # band key = first 8 md5 bytes as int64 (same 64 collision bits as the
    # old 16-hex-char prefix, but groupable/bucketable without per-row
    # string building)
    md5 = hashlib.md5
    out_hash = np.fromiter(
        (
            int.from_bytes(md5(mv[i * step : (i + 1) * step]).digest()[:8], "big")
            for i in range(n_docs * n_bands)
        ),
        dtype=np.uint64,
        count=n_docs * n_bands,
    ).astype(np.int64)
    return out_hash.reshape(n_docs, n_bands)


def _band_rows(ids, hashes: np.ndarray, id_col: str) -> pa.Table:
    """(n_docs, n_bands) band keys → (id, band_id, band_hash) rows, one
    per (doc, band), doc-major."""
    n_docs, n_bands = hashes.shape
    ids_arr = pa.array(ids) if not isinstance(ids, (pa.Array, pa.ChunkedArray)) else ids
    rep_idx = pa.array(np.repeat(np.arange(n_docs, dtype=np.int64), n_bands))
    return pa.table(
        {
            id_col: ids_arr.take(rep_idx),
            "band_id": pa.array(
                np.tile(np.arange(n_bands, dtype=np.int32), n_docs)
            ),
            "band_hash": pa.array(hashes.ravel(), type=pa.int64()),
        }
    )


def _bands_table(
    ids, texts, a: np.ndarray, b: np.ndarray, id_col: str,
    n_bands: int, rows_per_band: int, n_shingle: int,
) -> pa.Table:
    """Batch of (id, text) → LSH band rows (``_band_hashes``,
    ``_band_rows``)."""
    return _band_rows(
        ids, _band_hashes(texts, a, b, n_bands, rows_per_band, n_shingle), id_col
    )


def _minhash_params(n_perm: int, seed: int = 42):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
    b = rng.randint(0, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
    return a, b


def minhash_signature(text: str, a: np.ndarray, b: np.ndarray, n_shingle: int) -> np.ndarray:
    h = _token_hashes(text, n_shingle)
    if len(h) == 0:
        return np.zeros(len(a), dtype=np.uint64)
    # (n_perm, n_shingles): universal hash then row-min, one _SIG_CHUNK
    # slice of shingles at a time so a long doc stays in bounded memory
    sig = np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    for s in range(0, len(h), _SIG_CHUNK):
        vals = (np.outer(a, h[s : s + _SIG_CHUNK]) + b[:, None]) % _MERSENNE
        np.minimum(sig, vals.min(axis=1), out=sig)
    return sig


@functools.lru_cache(maxsize=8)
def _cached_minhash_params(n_perm: int, seed: int = 42):
    return _minhash_params(n_perm, seed)


def minhash_bands_batch(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_perm: int = 64,
    n_bands: int = 16,
    n_shingle: int = 3,
) -> pa.Table:
    """Stateless map_batches body: text → LSH band rows.

    The (a, b) permutation params rebuild from the seed in microseconds, so a
    task pool (elastic, no actor ramp-up) beats an actor pool here.
    """
    a, b = _cached_minhash_params(n_perm)
    return _bands_table(
        batch[id_col],
        batch[text_col],
        a,
        b,
        id_col,
        n_bands,
        n_perm // n_bands,
        n_shingle,
    )


def ngram_jaccard(a: str, b: str, n_shingle: int = 3) -> float:
    sa = set(map(int, _token_hashes(a, n_shingle)))
    sb = set(map(int, _token_hashes(b, n_shingle)))
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def _new_key(*cols: np.ndarray) -> np.ndarray:
    """True where a row of the sorted key columns starts a new key."""
    new = np.zeros(len(cols[0]), dtype=bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return new


def _lsh_chain_pairs(bands: pa.Table, id_col: str) -> pa.Table:
    """Band rows → (id_a, id_b) pairs, id_a ≤ id_b: within each LSH bucket
    (equal band_id and band_hash) chain consecutive ids, so a duplicate
    cluster of size m yields m-1 pairs, not m²/2.  Ids keep their type."""
    order = pc.sort_indices(
        bands,
        sort_keys=[
            ("band_id", "ascending"),
            ("band_hash", "ascending"),
            (id_col, "ascending"),
        ],
    )
    key = [bands[c].take(order).to_numpy() for c in ("band_id", "band_hash")]
    nxt = np.flatnonzero(~_new_key(*key))
    ids = bands[id_col].take(order)
    return pa.table({"id_a": ids.take(nxt - 1), "id_b": ids.take(nxt)})


def minhash_lsh_candidates(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_perm: int = 64,
    n_bands: int = 16,
    n_shingle: int = 3,
    n_hash_buckets: int = 64,
) -> ray.data.Dataset:
    """Dataset → candidate near-dup pairs (id_a, id_b), id_a < id_b, distinct.

    Pairs are emitted per LSH bucket; a bucket of size m yields m-1 chained
    pairs (not m²/2) — enough to connect a duplicate cluster, bounded output.

    Signature generation is a STATELESS task: the (a, b) permutation params
    rebuild from the seed in microseconds, and an elastic task pool uses
    every core while a fixed actor pool idles the rest (measured: 4.1 s →
    1.1 s over 5k docs at 32 CPUs).  Band rows regroup through one keyed
    exchange of ``n_hash_buckets`` buckets, as does the pair dedup; 1 means
    no exchange.
    """
    bands = ds.map_batches(
        lambda b: minhash_bands_batch(
            b,
            text_col=text_col,
            id_col=id_col,
            n_perm=n_perm,
            n_bands=n_bands,
            n_shingle=n_shingle,
        ),
        batch_format="pyarrow",
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        return _lsh_chain_pairs(group, id_col)

    pairs = keyed_exchange(
        bands, ["band_id", "band_hash"], bucket_pairs, n_hash_buckets
    )
    return _distinct_pairs(pairs, n_hash_buckets)


def _pair_keys(pairs: pa.Table) -> pa.ChunkedArray:
    """``"id_a|id_b"`` per row: the pair key when ids are not integers."""
    return pc.binary_join_element_wise(
        pc.cast(pairs["id_a"], pa.string()),
        pc.cast(pairs["id_b"], pa.string()),
        "|",
    )


def _int_pair_ids(pairs: pa.Table) -> "tuple[np.ndarray, np.ndarray] | None":
    """(id_a, id_b) as numpy arrays when both are null-free integers."""
    cols = [pairs[c] for c in ("id_a", "id_b")]
    if all(pa.types.is_integer(c.type) and not c.null_count for c in cols):
        return tuple(c.to_numpy() for c in cols)
    return None


def _distinct_pair_rows(pairs: pa.Table) -> pa.Table:
    """The first row of each distinct (id_a, id_b): a stable lexsort for
    integer ids, an Arrow group-by on ``_pair_keys`` otherwise."""
    ab = _int_pair_ids(pairs)
    if ab is not None:
        a, b = ab
        order = np.lexsort((b, a))
        return pairs.take(order[_new_key(a[order], b[order])])
    rows = pa.table({"k": _pair_keys(pairs), "i": np.arange(len(pairs))})
    return pairs.take(rows.group_by("k").aggregate([("i", "min")])["i_min"])


def _distinct_pairs(pairs: ray.data.Dataset, n_buckets: int) -> ray.data.Dataset:
    """Exact dedup of (id_a, id_b) rows: one ``_distinct_pair_rows`` per
    bucket of the pair."""
    return keyed_exchange(pairs, ["id_a", "id_b"], _distinct_pair_rows, n_buckets)


def _pair_overlaps(
    pairs: pa.Table, texts, n_shingle: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(|A ∩ B|, |A|, |B|)`` of each (id_a, id_b) row's shingle sets.

    ``texts`` maps each id in ``pairs`` to its text.  Each doc's shingle
    set is built ONCE per call, not once per pair — a doc in k candidate
    pairs would otherwise re-tokenize k times (measured 55 s -> ~4 s on
    431k candidates over 5k docs) — and all of them from one
    ``_batch_shingle_hashes`` call; only the set intersections run per
    pair.  Every doc has at least one shingle (an empty doc hashes the
    empty word), so no set is empty."""
    ids_a = pairs["id_a"].to_numpy().tolist()
    ids_b = pairs["id_b"].to_numpy().tolist()
    ids = list(dict.fromkeys(ids_a + ids_b))
    S, soff = _batch_shingle_hashes(
        pa.array([texts[i] for i in ids], type=pa.string()), n_shingle
    )
    sets = {i: set(S[soff[k] : soff[k + 1]].tolist()) for k, i in enumerate(ids)}
    sa, sb = list(map(sets.get, ids_a)), list(map(sets.get, ids_b))
    n = len(ids_a)
    inter = np.fromiter(map(len, map(set.intersection, sa, sb)), np.int64, n)
    size_a = np.fromiter(map(len, sa), np.int64, n)
    size_b = np.fromiter(map(len, sb), np.int64, n)
    return inter, size_a, size_b


def _jaccard_verified(
    pairs: pa.Table, texts, threshold: float, n_shingle: int
) -> pa.Table:
    """``pairs`` with a ``jaccard`` column appended, kept where ≥ threshold
    (``texts`` as in ``_pair_overlaps``)."""
    inter, size_a, size_b = _pair_overlaps(pairs, texts, n_shingle)
    ja = inter / (size_a + size_b - inter)
    out = pairs.append_column("jaccard", pa.array(ja, type=pa.float64()))
    return out.filter(pc.greater_equal(out["jaccard"], threshold))


def verify_jaccard_pairs(
    pairs: ray.data.Dataset,
    docs_by_id,
    threshold: float = 0.8,
    n_shingle: int = 3,
) -> ray.data.Dataset:
    """Verify candidate pairs against true n-gram Jaccard ≥ threshold.

    ``docs_by_id``: broadcast dict id→text (or ObjectRef).  For corpora where
    the text side is too large to broadcast, verify by re-joining text via
    ``shuffle_join`` on id instead.
    """
    ref = docs_by_id if isinstance(docs_by_id, ray.ObjectRef) else ray.put(docs_by_id)

    def verify(batch: pa.Table) -> pa.Table:
        return _jaccard_verified(batch, ray.get(ref), threshold, n_shingle)

    return pairs.map_batches(verify, batch_format="pyarrow")


def verify_jaccard_pairs_join(
    pairs: ray.data.Dataset,
    docs: ray.data.Dataset,
    threshold: float = 0.8,
    n_shingle: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    id_type: pa.DataType | None = None,
    n_buckets: int = 32,
    max_broadcast_ids: int = 2_000_000,
) -> ray.data.Dataset:
    """Scale path for pair verification: (id_a, id_b, jaccard) rows with
    Jaccard ≥ threshold, over texts re-fetched by ``_verify_pairs_join``.

    ``verify_jaccard_pairs`` broadcasts an id→text dict — an OOM when the
    corpus no longer fits on the driver; here the text side streams when
    the candidates' distinct ids are too many to broadcast.  The pair
    queries reach this function only when their input spans more than one
    bucket; an input that fits one bucket verifies inside the one task that
    found its candidates (``minhash_neardup_pairs``,
    ``ngram_jaccard_pairs``).
    """

    def score(batch: pa.Table, texts) -> pa.Table:
        return _jaccard_verified(batch, texts, threshold, n_shingle)

    return _verify_pairs_join(
        pairs, docs, score, id_col, text_col, id_type, n_buckets,
        max_broadcast_ids,
    )


def _verify_pairs_join(
    pairs: ray.data.Dataset,
    docs: ray.data.Dataset,
    score,
    id_col: str,
    text_col: str,
    id_type: "pa.DataType | None",
    n_buckets: int,
    max_broadcast_ids: int,
) -> ray.data.Dataset:
    """``score(batch, texts)`` over batches of (id_a, id_b) ``pairs``, where
    ``texts`` maps every id of the batch to its text in ``docs``.

    When the candidates' DISTINCT id set is small enough to broadcast, the
    docs side is semi-filtered against it and the surviving texts are
    broadcast to the score map — driver memory is bounded by the
    distinct-id count (≤ corpus row count), never by the pair count.
    Gating on pair count was a scale bug: a duplication-heavy corpus emits
    tens of millions of candidate PAIRS over a few thousand distinct docs,
    and the join path those candidates were routed to ships a copy of each
    text PER PAIR through two shuffles (~pair_count × text_bytes of
    exchange — measured ~130 GB at the sf1 sweep, 714 s wall) when the
    whole distinct text set was ~75 MB.  Above ``max_broadcast_ids``
    DISTINCT ids the full corpus streams through two bucketed joins (on
    ``id_a``, then on ``id_b``) — no driver materialization of text in
    that mode.

    The broadcast gate costs five driver calls before the score map runs
    (``materialize`` of the pairs and of the distinct ids, ``count``, and
    two ``take_all``).
    """
    from .dedup import exact_dedup
    from .join import anti_semi_filter, shuffle_join

    if id_type is None:
        id_type = pa.int64()

    pairs = pairs.materialize()  # consumed by both joins; candidates are small

    def both_ids(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": pa.concat_arrays(
                    [
                        batch["id_a"].combine_chunks(),
                        batch["id_b"].combine_chunks(),
                    ]
                )
            }
        )

    distinct_ids = exact_dedup(
        pairs.map_batches(both_ids, batch_format="pyarrow"), ["id"], n_buckets
    ).materialize()
    if distinct_ids.count() <= max_broadcast_ids:
        id_set = {str(r["id"]) for r in distinct_ids.take_all()}
        ref = ray.put(
            {
                r[id_col]: r[text_col]
                for r in anti_semi_filter(docs, id_set, keys=id_col)
                .select_columns([id_col, text_col])
                .take_all()
            }
        )

        def score_broadcast(batch: pa.Table) -> pa.Table:
            return score(batch, ray.get(ref))

        return pairs.map_batches(score_broadcast, batch_format="pyarrow")

    def side(col_id: str, col_text: str):
        def rename(batch: pa.Table) -> pa.Table:
            return pa.table(
                {col_id: batch[id_col], col_text: batch[text_col]}
            )

        return docs.map_batches(rename, batch_format="pyarrow")

    pair_schema = {"id_a": id_type, "id_b": id_type}
    j1 = shuffle_join(
        pairs,
        side("id_a", "text_a"),
        keys="id_a",
        n_buckets=n_buckets,
        left_schema=pair_schema,
        right_schema={"id_a": id_type, "text_a": pa.string()},
    )
    j2 = shuffle_join(
        j1,
        side("id_b", "text_b"),
        keys="id_b",
        n_buckets=n_buckets,
        left_schema={"id_b": id_type, "id_a": id_type, "text_a": pa.string()},
        right_schema={"id_b": id_type, "text_b": pa.string()},
    )

    def score_joined(batch: pa.Table) -> pa.Table:
        texts = dict(zip(batch["id_a"].to_pylist(), batch["text_a"].to_pylist()))
        texts.update(zip(batch["id_b"].to_pylist(), batch["text_b"].to_pylist()))
        return score(batch.select(["id_a", "id_b"]), texts)

    return j2.map_batches(score_joined, batch_format="pyarrow")


# docs hashed at once inside a one-task pair query: the table is hashed in
# slices, so the task's peak RSS follows the slice, not the table.  On a
# 50k-doc table with 17.2 MiB of text, hashing it in one call raised peak
# RSS by 331 MiB; 4,096-doc slices cost about 3% more time than whole
# 25k-doc blocks.
_HASH_SLICE = 4096


def _sliced(fn, table: pa.Table) -> pa.Table:
    """``fn`` over ``_HASH_SLICE``-row slices of ``table``, concatenated."""
    return pa.concat_tables(
        [
            fn(table.slice(i, _HASH_SLICE))
            for i in range(0, max(len(table), 1), _HASH_SLICE)
        ]
    )


def _verified_in_table(
    docs: pa.Table,
    cand: pa.Table,
    threshold: float,
    n_shingle: int,
    id_col: str,
    text_col: str,
) -> pa.Table:
    """Distinct pairs ``cand`` verified against the texts ``docs`` holds:
    only the docs that appear in a pair become Python strings."""
    ids = pa.concat_arrays(
        [cand["id_a"].combine_chunks(), cand["id_b"].combine_chunks()]
    )
    wanted = pc.unique(ids.cast(docs.schema.field(id_col).type))
    sub = docs.filter(pc.is_in(docs[id_col], value_set=wanted))
    texts = dict(zip(sub[id_col].to_pylist(), sub[text_col].to_pylist()))
    return _jaccard_verified(cand, texts, threshold, n_shingle)


def minhash_pairs_table(
    docs: pa.Table,
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_perm: int = 64,
    n_bands: int = 16,
    n_shingle: int = 3,
) -> pa.Table:
    """The whole MinHash pair query over one table of (id, text): band rows
    (``minhash_bands_batch``, in ``_HASH_SLICE``-doc slices), chained pairs
    per LSH bucket, distinct pairs, Jaccard verify against the texts the
    table holds.  (id_a, id_b, jaccard), typed also on zero rows.  The
    kernel of ``minhash_neardup_pairs`` at B = 1."""
    bands = _sliced(
        lambda t: minhash_bands_batch(t, text_col, id_col, n_perm, n_bands, n_shingle),
        docs,
    )
    pairs = _distinct_pair_rows(_lsh_chain_pairs(bands, id_col))
    return _verified_in_table(docs, pairs, threshold, n_shingle, id_col, text_col)


def minhash_neardup_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_perm: int = 64,
    n_bands: int = 16,
    n_shingle: int = 3,
    n_hash_buckets: int = 64,
    n_buckets: int = 32,
    max_broadcast_ids: int = 2_000_000,
) -> ray.data.Dataset:
    """MinHash-LSH candidates verified at n-gram Jaccard ≥ ``threshold``:
    (id_a, id_b, jaccard), id_a < id_b, distinct.

    With ``n_hash_buckets == n_buckets == 1`` the whole query, hashing
    included, is ``minhash_pairs_table`` in one task over all rows, with
    no exchange and no driver call; ``max_broadcast_ids`` is unused there.
    Otherwise ``minhash_lsh_candidates`` (``n_hash_buckets``)
    feeds ``verify_jaccard_pairs_join`` (``n_buckets``,
    ``max_broadcast_ids``).
    """
    if n_hash_buckets == n_buckets == 1:

        def minhash_pairs(docs: pa.Table) -> pa.Table:
            return minhash_pairs_table(
                docs, threshold, text_col, id_col, n_perm, n_bands, n_shingle
            )

        return one_task(ds, minhash_pairs)
    cand = minhash_lsh_candidates(
        ds,
        text_col=text_col,
        id_col=id_col,
        n_perm=n_perm,
        n_bands=n_bands,
        n_shingle=n_shingle,
        n_hash_buckets=n_hash_buckets,
    )
    return verify_jaccard_pairs_join(
        cand,
        ds,
        threshold=threshold,
        n_shingle=n_shingle,
        id_col=id_col,
        text_col=text_col,
        n_buckets=n_buckets,
        max_broadcast_ids=max_broadcast_ids,
    )


def near_dedup_docs(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    n_perm: int = 64,
    n_bands: int = 16,
    n_shingle: int = 3,
    max_broadcast_ids: int = 2_000_000,
    n_hash_buckets: int = 64,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Corpus minus near-duplicates: keep one representative per cluster.

    Composition: LSH candidates → distributed Jaccard verify
    (``minhash_neardup_pairs``) → connected components of the verified
    pair graph (``stages/graph.py``, large-star/small-star) → keep each
    component's minimum id.  Cluster membership is transitive-exact over
    the verified edges; recall is bounded by LSH candidate generation as
    usual.  ``n_hash_buckets`` and ``n_buckets`` size the pair stage as
    in ``minhash_neardup_pairs``; both at 1 make it one task.

    The drop set is ≤ the number of near-duplicate documents; below
    ``max_broadcast_ids`` it broadcasts as an id set (``anti_semi_filter``),
    above it ``cluster_dedup`` switches automatically to a distributed
    shuffle anti-join — no driver-side id collection on either path's
    scale branch.
    """
    verified = minhash_neardup_pairs(
        ds,
        threshold=threshold,
        text_col=text_col,
        id_col=id_col,
        n_perm=n_perm,
        n_bands=n_bands,
        n_shingle=n_shingle,
        n_hash_buckets=n_hash_buckets,
        n_buckets=n_buckets,
        max_broadcast_ids=max_broadcast_ids,
    )
    from .graph import cluster_dedup

    return cluster_dedup(
        ds, verified, id_col=id_col, max_broadcast_ids=max_broadcast_ids
    )


def simhash_fingerprints(texts) -> np.ndarray:
    """uint64 simhash per doc, vectorized over the batch.

    Word-token hashes (``_token_hashes(text, 1)`` for each doc, from one
    flat ``_batch_shingle_hashes`` array) vote +1/-1 per bit position; bit
    b of the fingerprint is set when more than half the doc's tokens have
    it set (a tie gives 0).  Per-doc bit counts are ``np.add.reduceat``
    over unpacked token bits, one ``_SIG_CHUNK`` slice of tokens at a time,
    so the (tokens × 64) temporary stays bounded for any doc length.
    """
    S, soff = _batch_shingle_hashes(texts, 1)
    # every doc owns ≥ 1 hash (an empty doc hashes the empty word), so the
    # reduceat segments below are never empty
    ones = np.zeros((len(soff) - 1, 64), dtype=np.int32)
    for s in range(0, len(S), _SIG_CHUNK):
        e = min(s + _SIG_CHUNK, len(S))
        d0 = np.searchsorted(soff, s, side="right") - 1
        d1 = np.searchsorted(soff, e, side="left")
        bits = np.unpackbits(
            S[s:e].astype("<u8").view(np.uint8).reshape(-1, 8),
            axis=1,
            bitorder="little",
        )
        starts = np.maximum(soff[d0:d1], s) - s
        ones[d0:d1] += np.add.reduceat(bits, starts, axis=0, dtype=np.int32)
    majority = 2 * ones > np.diff(soff)[:, None]
    packed = np.packbits(majority, axis=1, bitorder="little")
    return packed.view("<u8").ravel().astype(np.uint64)


class SimHasher:
    """text → 64-bit simhash fingerprint column (``simhash_fingerprints``).

    Stateless: map an instance as a plain task.  Identical-fingerprint rows
    are near-dup candidates.
    """

    def __init__(self, text_col: str = "text", out_col: str = "simhash"):
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        fp = simhash_fingerprints(batch[self.text_col])
        return batch.append_column(self.out_col, pa.array(fp.astype(np.int64)))


def _drop_tokenless(table: pa.Table, text_col: str) -> pa.Table:
    """Rows whose text holds a word token (not empty, whitespace or null)."""
    return table.filter(pc.not_equal(pc.utf8_trim_whitespace(table[text_col]), ""))


def _first_per_simhash(table: pa.Table, id_col: str) -> pa.Table:
    """The smallest-id row of each simhash, sorted by (simhash, id)."""
    order = pc.sort_indices(
        table, sort_keys=[("simhash", "ascending"), (id_col, "ascending")]
    )
    sorted_t = table.take(order)
    return sorted_t.filter(pa.array(_new_key(sorted_t["simhash"].to_numpy())))


def simhash_dedup_table(
    docs: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """The whole SimHash dedup over one table: fingerprint each row
    (``SimHasher``), drop rows without a word token, keep the smallest id
    per fingerprint.  The input columns plus ``simhash``, typed also on
    zero rows.  The kernel of ``simhash_dedup`` at B = 1."""
    hashed = _drop_tokenless(SimHasher(text_col=text_col)(docs), text_col)
    return _first_per_simhash(hashed, id_col)


def simhash_dedup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_hash_buckets: int = 64,
) -> ray.data.Dataset:
    """Keep one row per simhash fingerprint (smallest id wins).

    Bucket-group pattern: distinct-fingerprint cardinality ≈ corpus size,
    so shuffling one group per fingerprint would make one Python call per
    distinct document; instead group by ``hash(simhash) % B`` and run one
    vectorized sort+dedup pass per bucket.  With B = 1 the whole stage is
    ``simhash_dedup_table`` in one task over all rows.

    A doc with no word token (empty, whitespace-only or null text) has no
    fingerprint and is dropped before the exchange, as the SQL oracle's
    token filter drops it.
    """
    if n_hash_buckets == 1:

        def simhash_first(docs: pa.Table) -> pa.Table:
            return simhash_dedup_table(docs, text_col, id_col)

        return one_task(ds, simhash_first)

    def drop_tokenless(batch: pa.Table) -> pa.Table:
        return _drop_tokenless(batch, text_col)

    def first_by_id(group: pa.Table) -> pa.Table:
        return _first_per_simhash(group, id_col)

    # filter after hashing: Ray Data skips the UDFs after a stage that
    # empties a block, so a block emptied before SimHasher would go on
    # without the simhash column
    hashed = ds.map_batches(
        SimHasher(text_col=text_col), batch_format="pyarrow"
    ).map_batches(drop_tokenless, batch_format="pyarrow")
    return keyed_exchange(hashed, ["simhash"], first_by_id, n_hash_buckets)


def simhash_neardup_pairs(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    n_bands: int = 4,
    n_hash_buckets: int = 64,
) -> ray.data.Dataset:
    """Near-dup candidate pairs via simhash Hamming bands, verified ≤ max_hamming.

    Pigeonhole: two 64-bit fingerprints within Hamming distance < n_bands of
    each other agree exactly on ≥1 of the ``n_bands`` 16-bit bands.  Explode
    each doc to (band_id, band_val) rows, bucket by hash(band_id|band_val),
    chain-pair consecutive ids within each equal-band run (m−1 pairs connect
    a cluster of m), then verify true Hamming distance on the paired
    fingerprints — no text re-fetch needed, the 64-bit signature travels with
    the band row.  Output: (id_a, id_b, hamming), id_a < id_b, distinct.
    """
    assert 64 % n_bands == 0
    band_bits = 64 // n_bands
    band_mask = np.uint64((1 << band_bits) - 1)

    hashed = ds.map_batches(SimHasher(text_col=text_col), batch_format="pyarrow")

    def explode_bands(batch: pa.Table) -> pa.Table:
        sigs = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(sigs)
        id_type = batch.schema.field(id_col).type
        ids_np = batch[id_col].to_numpy(zero_copy_only=False)
        out_id = (
            pa.array(np.tile(ids_np, n_bands), type=id_type)
            if n
            else pa.array([], type=id_type)
        )
        band_id = np.repeat(np.arange(n_bands, dtype=np.int32), n)
        band_val = np.concatenate(
            [
                ((sigs >> np.uint64(bi * band_bits)) & band_mask).astype(np.int64)
                for bi in range(n_bands)
            ]
        ) if n else np.array([], dtype=np.int64)
        sim64 = np.tile(sigs.astype(np.int64), n_bands) if n else np.array([], dtype=np.int64)
        return pa.table(
            {
                id_col: out_id,
                "band_id": pa.array(band_id, type=pa.int32()),
                "band_val": pa.array(band_val, type=pa.int64()),
                "simhash": pa.array(sim64, type=pa.int64()),
            }
        )

    def bucket_pairs(group: pa.Table):
        import pandas as pd

        df = group.select(["band_id", "band_val", id_col, "simhash"]).to_pandas()
        df = df.sort_values(["band_id", "band_val", id_col])
        same = (
            df[["band_id", "band_val"]]
            .eq(df[["band_id", "band_val"]].shift())
            .all(axis=1)
        )
        # positional indexing, NOT shift(): shift promotes int64 simhash to
        # float64 and corrupts fingerprints above 2^53
        idx = np.flatnonzero(same.to_numpy())
        sig = df["simhash"].to_numpy(dtype=np.int64).astype(np.uint64)
        ids_np = df[id_col].to_numpy()
        ham = np.array(
            [int(x).bit_count() for x in (sig[idx - 1] ^ sig[idx])],
            dtype=np.int64,
        )
        keep = ham <= max_hamming
        idx = idx[keep]
        a_ids, b_ids = ids_np[idx - 1], ids_np[idx]
        swap = a_ids > b_ids
        a_ids, b_ids = (
            np.where(swap, b_ids, a_ids),
            np.where(swap, a_ids, b_ids),
        )
        return from_pandas_clean(
            pd.DataFrame({"id_a": a_ids, "id_b": b_ids, "hamming": ham[keep]})
        )

    pairs = keyed_exchange(
        hashed.map_batches(explode_bands, batch_format="pyarrow"),
        ["band_id", "band_val"],
        bucket_pairs,
        n_hash_buckets,
    )
    return _distinct_pairs(pairs, n_hash_buckets)


@functools.lru_cache(maxsize=8)
def _hyperplanes(seed: int, n_tables: int, dim: int, n_planes: int) -> np.ndarray:
    """(n_tables, dim, n_planes) random hyperplanes: a pure function of
    the seed, built once per worker process."""
    rng = np.random.RandomState(seed)
    return rng.randn(n_tables, dim, n_planes).astype(np.float32)


def _embedding_lsh_rows(
    batch: pa.Table,
    dim: int,
    n_planes: int = 16,
    n_tables: int = 1,
    emb_col: str = "embedding",
    seed: int = 42,
) -> pa.Table:
    """Embedding list<float> rows → T sign-bucket rows per input row.

    Multi-table random-hyperplane LSH: a near-dup pair straddling one
    table's hyperplane boundary still collides in another table, so recall
    rises as 1-(1-p^b)^T rather than the single-table p^b.  Each input row
    explodes to ``n_tables`` (lsh_table, lsh_bucket) rows; the embedding
    travels with the row for the within-bucket verify.
    """
    planes = _hyperplanes(seed, n_tables, dim, n_planes)
    emb = np.stack(batch[emb_col].to_numpy(zero_copy_only=False))
    n = len(emb)
    powers = 1 << np.arange(n_planes, dtype=np.int64)
    tables, buckets = [], []
    for t in range(n_tables):
        signs = (emb @ planes[t]) > 0
        buckets.append(signs.astype(np.int64) @ powers)
        tables.append(np.full(n, t, dtype=np.int32))
    out = batch.take(pa.array(np.tile(np.arange(n, dtype=np.int64), n_tables)))
    return out.append_column(
        "lsh_table", pa.array(np.concatenate(tables))
    ).append_column("lsh_bucket", pa.array(np.concatenate(buckets)))


def embedding_neardup_pairs(
    ds: ray.data.Dataset,
    dim: int,
    threshold: float = 0.95,
    n_planes: int = 12,
    n_tables: int = 4,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    n_hash_buckets: int = 64,
) -> ray.data.Dataset:
    """Cosine near-dup pairs via multi-table LSH sign buckets + verify.

    Bucket-group pattern: rows regroup by (lsh_table, lsh_bucket) through
    one keyed exchange of ``n_hash_buckets`` buckets (bounded reducers, not
    one group per LSH bucket); each reducer runs a vectorized
    per-(table,bucket) pairwise verify.  Pairs found by several tables
    dedup via the bucketed ``_distinct_pairs``, keeping one cosine.  The
    hashing is a plain task: its hyperplanes rebuild from the seed.
    """
    bucketed = ds.map_batches(
        lambda b: _embedding_lsh_rows(
            b, dim, n_planes=n_planes, n_tables=n_tables, emb_col=emb_col
        ),
        batch_format="pyarrow",
    )

    empty = pa.table(
        {
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "cosine": pa.array([], type=pa.float64()),
        }
    )

    def verify(group: pa.Table) -> pa.Table:
        import pandas as pd

        if len(group) < 2:
            return empty
        df = pd.DataFrame(
            {
                "t": group["lsh_table"].to_pylist(),
                "b": group["lsh_bucket"].to_pylist(),
            }
        )
        emb = np.stack(group[emb_col].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        norm = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        ids_np = np.asarray(group[id_col].to_pylist(), dtype=np.int64)
        out_a, out_b, out_c = [], [], []
        for _, sub in df.groupby(["t", "b"]):
            idx = sub.index.to_numpy()
            if len(idx) < 2:
                continue
            sims = norm[idx] @ norm[idx].T
            iu, ju = np.triu_indices(len(idx), k=1)
            hit = sims[iu, ju] >= threshold
            iu, ju = iu[hit], ju[hit]
            ga, gb = ids_np[idx[iu]], ids_np[idx[ju]]
            out_a.append(np.minimum(ga, gb))
            out_b.append(np.maximum(ga, gb))
            out_c.append(sims[iu, ju])
        if not out_a:
            return empty
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_a), type=pa.int64()),
                "id_b": pa.array(np.concatenate(out_b), type=pa.int64()),
                "cosine": pa.array(np.concatenate(out_c), type=pa.float64()),
            }
        )

    pairs = keyed_exchange(
        bucketed, ["lsh_table", "lsh_bucket"], verify, n_hash_buckets
    )
    # same pair may surface from several tables — keep one row per pair
    return _distinct_pairs(pairs, n_hash_buckets)


def _sorted_unique_shingles(texts, n_shingle: int) -> "tuple[np.ndarray, np.ndarray]":
    """Each doc's distinct shingle hashes in ascending order, flat:
    ``(U, doc)`` where ``U[doc == d]`` equals
    ``np.unique(_token_hashes(texts[d], n_shingle))``.  One
    ``_batch_shingle_hashes`` call and one (doc, hash) lexsort for the
    batch, no per-doc Python."""
    S, soff = _batch_shingle_hashes(texts, n_shingle)
    doc = np.repeat(np.arange(len(soff) - 1, dtype=np.int64), np.diff(soff))
    order = np.lexsort((S, doc))
    S, doc = S[order], doc[order]
    first = _new_key(S, doc)
    return S[first], doc[first]


def _prefix_rows(
    batch: pa.Table, text_col: str, id_col: str, threshold: float, n_shingle: int
) -> pa.Table:
    """(shingle, id, n_sh) prefix-filter rows of a batch: per doc its first
    ``n − ceil(t·n) + 1`` distinct shingle hashes (ascending), each with
    the doc's distinct-shingle count ``n``; doc-major."""
    u, doc = _sorted_unique_shingles(batch[text_col], n_shingle)
    n = np.bincount(doc, minlength=len(batch))
    start = np.concatenate(([0], np.cumsum(n)[:-1]))
    plen = n - np.ceil(threshold * n).astype(np.int64) + 1
    keep = np.arange(len(u)) - start[doc] < plen[doc]
    d = doc[keep]
    return pa.table(
        {
            "shingle": pa.array(u[keep], type=pa.uint64()),
            id_col: batch[id_col].take(pa.array(d, type=pa.int64())),
            "n_sh": pa.array(n[d], type=pa.int64()),
        }
    )


# bound on the (run, pair) index rows ``_prefix_pairs`` builds at once
_PAIR_CHUNK = 1 << 20


def _prefix_pairs(
    rows: pa.Table, id_col: str, threshold: float, id_type: pa.DataType
) -> pa.Table:
    """Prefix rows → candidate (id_a, id_b), id_a < id_b: every pair of
    docs sharing a prefix shingle that passes the length filter
    ``min(n_a, n_b) ≥ t · max(n_a, n_b)``.

    Sort by shingle, then per distinct run SIZE m one ``np.triu_indices(m)``
    broadcast over every run of that size (no per-run or per-pair Python —
    on duplication-heavy corpora every shared prefix shingle re-discovers
    the same pair), then one ``_distinct_pair_rows``."""
    s = rows["shingle"].to_numpy()
    order = np.argsort(s, kind="stable")
    s = s[order]
    ids = rows[id_col].to_numpy()[order]
    ns = rows["n_sh"].to_numpy()[order]
    bnd = np.flatnonzero(_new_key(s))
    sizes = np.diff(np.append(bnd, len(s)))
    out_a, out_b = [], []
    for m in np.unique(sizes[sizes >= 2]):
        iu, ju = np.triu_indices(m, k=1)
        starts = bnd[sizes == m][:, None]
        step = max(1, _PAIR_CHUNK // len(iu))
        for c in range(0, len(starts), step):
            i = (starts[c : c + step] + iu).ravel()
            j = (starts[c : c + step] + ju).ravel()
            na, nb = ns[i], ns[j]
            keep = np.minimum(na, nb) >= threshold * np.maximum(na, nb)
            a, b = ids[i[keep]], ids[j[keep]]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            ne = lo != hi
            out_a.append(lo[ne])
            out_b.append(hi[ne])
    if not out_a:
        return pa.table(
            {"id_a": pa.array([], type=id_type), "id_b": pa.array([], type=id_type)}
        )
    pairs = pa.table(
        {
            "id_a": pa.array(np.concatenate(out_a), type=id_type),
            "id_b": pa.array(np.concatenate(out_b), type=id_type),
        }
    )
    return _distinct_pair_rows(pairs)


def ngram_pairs_table(
    docs: pa.Table,
    threshold: float = 0.5,
    n_shingle: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    id_type: pa.DataType | None = None,
) -> pa.Table:
    """The whole n-gram Jaccard pair query over one table of (id, text):
    prefix rows (``_prefix_rows``, in ``_HASH_SLICE``-doc slices),
    distinct prefix pairs, Jaccard verify against the texts the table
    holds.  (id_a, id_b, jaccard) with ids of ``id_type`` (default: the
    table's id type), typed also on zero rows.  The kernel of
    ``ngram_jaccard_pairs`` at B = 1."""
    rows = _sliced(
        lambda t: _prefix_rows(t, text_col, id_col, threshold, n_shingle), docs
    )
    pairs = _prefix_pairs(
        rows, id_col, threshold, id_type or docs.schema.field(id_col).type
    )
    return _verified_in_table(docs, pairs, threshold, n_shingle, id_col, text_col)


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.5,
    n_shingle: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    id_type: pa.DataType | None = None,
    n_hash_buckets: int = 64,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """EXACT n-gram-Jaccard similarity self-join: all pairs with J ≥ t.

    MinHash/SimHash candidates are probabilistic (chain pairing can miss a
    true pair — see ``minhash_lsh_candidates``); this operator is the exact
    member of the dedup family, via prefix filtering (AllPairs / PPJoin,
    Bayardo et al. WWW'07; Xiao et al. WWW'08 — public algorithms):

    1. Per doc, sort its distinct shingle hashes ascending (one global
       order) and index only the first ``n − ceil(t·n) + 1`` of them.
       Theorem: the smallest shared shingle of any pair with overlap
       ≥ ceil(t·n) lies in BOTH prefixes, so no true pair is missed.
    2. Inverted-index join: groupby ``hash(shingle) % B`` (bounded
       reducers), emit all within-shingle pairs passing the length filter
       ``min(n_a, n_b) ≥ t · max(n_a, n_b)`` (necessary for J ≥ t).
    3. Dedup pairs (bucketed ``_distinct_pairs``), then verify true Jaccard
       with the distributed text re-fetch join — output == ground truth.

    With ``n_hash_buckets == n_buckets == 1`` the whole query, prefix
    hashing included, is ``ngram_pairs_table`` in one task over all rows,
    verified against the texts that task already holds: no exchange and no
    driver call.

    Scale notes: index size is (1−t)·|shingles| rows — the threshold is the
    cost knob.  A boilerplate shingle shared by m prefixes emits O(m²)
    candidates; the length filter prunes most, and corpora with heavy
    boilerplate should pre-strip it (the usual AllPairs practice) — the
    exactness guarantee is on the given text.
    """
    if id_type is None:
        id_type = pa.int64()

    if n_hash_buckets == n_buckets == 1:

        def ngram_pairs(docs: pa.Table) -> pa.Table:
            return ngram_pairs_table(
                docs, threshold, n_shingle, text_col, id_col, id_type
            )

        return one_task(ds, ngram_pairs)

    def prefix_rows(batch: pa.Table) -> pa.Table:
        return _prefix_rows(batch, text_col, id_col, threshold, n_shingle)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        return _prefix_pairs(group, id_col, threshold, id_type)

    rows = ds.map_batches(prefix_rows, batch_format="pyarrow")
    pairs = keyed_exchange(rows, ["shingle"], bucket_pairs, n_hash_buckets)
    cand = _distinct_pairs(pairs, n_hash_buckets)
    return verify_jaccard_pairs_join(
        cand,
        ds,
        threshold=threshold,
        n_shingle=n_shingle,
        id_col=id_col,
        text_col=text_col,
        id_type=id_type,
        n_buckets=n_buckets,
    )


def ngram_containment_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.8,
    n_shingle: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    id_type: pa.DataType | None = None,
    n_hash_buckets: int = 64,
    n_buckets: int = 32,
    max_broadcast_ids: int = 2_000_000,
) -> ray.data.Dataset:
    """EXACT n-gram containment join: all ORDERED pairs (id_sub, id_super)
    with ``|S_sub ∩ S_super| / |S_sub| ≥ threshold`` — the asymmetric
    sibling of ``ngram_jaccard_pairs``, detecting quotes, boilerplate and
    near-subsumption where symmetric Jaccard stays low because the texts'
    sizes differ.

    Prefix filter for containment: only the CONTAINED side is
    threshold-bound, so the probe side indexes its first
    ``floor((1−t)·n)+1`` shingles (ascending hash order: if ≥ t·n of a
    doc's shingles appear in the super-doc, at most (1−t)·n are missing,
    so one of the first floor((1−t)·n)+1 must be shared) while the super
    side must index ALL its shingles — the inherent asymmetry of a
    containment join.  Candidates apply the length filter
    ``n_super ≥ t·n_sub``; verification computes exact containment over
    re-fetched texts (broadcast semi-filter when the candidate id set is
    small, two shuffle joins when not)."""
    from .dedup import exact_dedup

    if id_type is None:
        id_type = pa.int64()

    def shingle_rows(batch: pa.Table) -> pa.Table:
        # every distinct shingle as an index (role 0) row, and the first
        # floor((1−t)·n)+1 of them again as probe (role 1) rows
        u, doc = _sorted_unique_shingles(batch[text_col], n_shingle)
        n = np.bincount(doc, minlength=len(batch))
        start = np.concatenate(([0], np.cumsum(n)[:-1]))
        plen = np.floor((1 - threshold) * n).astype(np.int64) + 1
        probe = np.arange(len(u)) - start[doc] < plen[doc]
        d = np.concatenate([doc, doc[probe]])
        return pa.table(
            {
                "shingle": pa.array(np.concatenate([u, u[probe]]), type=pa.uint64()),
                id_col: batch[id_col].take(pa.array(d, type=pa.int64())),
                "n_sh": pa.array(n[d], type=pa.int64()),
                "role": pa.array(
                    np.repeat(np.array([0, 1], dtype=np.int8), [len(u), len(d) - len(u)])
                ),
            }
        )

    rows = ds.map_batches(shingle_rows, batch_format="pyarrow")

    # candidates as (id_a, id_b) = (sub, super): the key names the shared
    # verify re-fetches texts by
    empty = pa.table(
        {"id_a": pa.array([], type=id_type), "id_b": pa.array([], type=id_type)}
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "s": group["shingle"].to_numpy(zero_copy_only=False),
                "i": group[id_col].to_pylist(),
                "n": group["n_sh"].to_numpy(zero_copy_only=False),
                "r": group["role"].to_numpy(zero_copy_only=False),
            }
        )
        prb = df[df["r"] == 1]
        idxs = df[df["r"] == 0]
        m = prb.merge(idxs, on="s", suffixes=("_p", "_i"))
        m = m[m["i_p"] != m["i_i"]]
        m = m[m["n_i"] >= threshold * m["n_p"]]
        if m.empty:
            return empty
        m = m[["i_p", "i_i"]].drop_duplicates()
        return pa.table(
            {
                "id_a": pa.array(m["i_p"].to_numpy(), type=id_type),
                "id_b": pa.array(m["i_i"].to_numpy(), type=id_type),
            }
        )

    pairs = keyed_exchange(rows, ["shingle"], bucket_pairs, n_hash_buckets)
    cand = exact_dedup(pairs, ["id_a", "id_b"], n_buckets=n_buckets)

    def score(batch: pa.Table, texts) -> pa.Table:
        inter, size_sub, _ = _pair_overlaps(batch, texts, n_shingle)
        out = pa.table(
            {
                "id_sub": batch["id_a"],
                "id_super": batch["id_b"],
                "containment": pa.array(inter / size_sub, type=pa.float64()),
            }
        )
        return out.filter(pc.greater_equal(out["containment"], threshold))

    return _verify_pairs_join(
        cand, ds, score, id_col, text_col, id_type, n_buckets, max_broadcast_ids
    )
