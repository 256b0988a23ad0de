"""Similarity search over an embedding column (training-data extension).

- ``brute_force_topk``: exact cosine top-k of every corpus vector against a
  broadcast query matrix.  Per batch: one float64 matmul (numpy) against the
  queries + per-batch partial top-k; partials merge on the driver (k × n_query
  rows — tiny).  This is the scale-correct baseline: the corpus streams, the
  queries broadcast, nothing materializes.
- ``ivf_topk``: IVF-style approximate variant — k-means-ish centroids from a
  deterministic sample, corpus bucketed by nearest centroid (one pass),
  queries probe only ``n_probe`` nearest buckets.  Same output schema;
  recall < 1 by design, measured in tests against brute force.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .exchange import cogroup, keyed_exchange


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _merge_topk(
    partials: list, query_ids: list, k: int, exclude_self: bool
) -> pa.Table:
    """Driver merge of per-batch partial top-ks (≤ k(+1) rows per query per
    batch reach here): global sort by (-cosine, neighbor_id), self dropped,
    rank assigned.  Shared by every top-k searcher in this module."""
    best: dict[int, list] = {}
    for r in partials:
        best.setdefault(r["qi"], []).append((-r["cosine"], r["neighbor_id"]))
    out = {"query_id": [], "neighbor_id": [], "rank": [], "cosine": []}
    for qi, qid in enumerate(query_ids):
        cand = best.get(qi, [])
        cand.sort()
        rank = 0
        for negs, nid in cand:
            if exclude_self and nid == qid:
                continue
            rank += 1
            if rank > k:
                break
            out["query_id"].append(qid)
            out["neighbor_id"].append(nid)
            out["rank"].append(rank)
            out["cosine"].append(-negs)
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], type=pa.int64()),
            "neighbor_id": pa.array(out["neighbor_id"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "cosine": pa.array(out["cosine"], type=pa.float64()),
        }
    )


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    exclude_self: bool = True,
) -> pa.Table:
    """Exact cosine top-k. Returns (query_id, neighbor_id, rank, cosine).

    Ties broken by neighbor id ascending (deterministic, matches the SQL
    oracle's ORDER BY sim DESC, id ASC).
    """
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(qn)

    def partial(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist())
        emb = np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        emb = _normalize(emb)
        sims = q @ emb.T  # (n_query, n_batch)
        out_q, out_n, out_s = [], [], []
        # +1 slot: the query itself (sim=1.0) may occupy a top-k slot in its
        # batch and is excluded at merge time
        kk = min(k + (1 if exclude_self else 0), sims.shape[1])
        for qi in range(sims.shape[0]):
            row = sims[qi]
            # partial top-k within the batch: argpartition, then widen to ALL
            # elements tied with the boundary similarity so the documented
            # 'ORDER BY sim DESC, id ASC' tie-break holds when equal-sim
            # candidates (exact-duplicate vectors) straddle the kk-th slot
            if kk < len(row):
                seed_idx = np.argpartition(-row, kk - 1)[:kk]
                idx = np.flatnonzero(row >= row[seed_idx].min())
            else:
                idx = np.arange(len(row))
            order = idx[np.lexsort((ids[idx], -row[idx]))][:kk]
            for j in order:
                out_q.append(qi)
                out_n.append(int(ids[j]))
                out_s.append(float(row[j]))
        return pa.table(
            {
                "qi": pa.array(out_q, type=pa.int32()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
    return _merge_topk(partials, query_ids, k, exclude_self)


def train_centroids(
    ds: ray.data.Dataset,
    n_centroids: int,
    emb_col: str = "embedding",
    sample_n: int = 2048,
    n_iter: int = 5,
    seed: int = 42,
) -> np.ndarray:
    """Mini k-means on a driver-side sample (the IVF coarse quantizer).

    The sample is deterministic (first ``sample_n`` rows by id-hash order is
    unnecessary — limit() is fine for a quantizer); iterations run on the
    driver over ≤ sample_n × dim floats.
    """
    sample = ds.limit(sample_n).take_all()
    x = _normalize(
        np.stack([np.asarray(r[emb_col]) for r in sample]).astype(np.float64)
    )
    rng = np.random.RandomState(seed)
    cent = x[rng.choice(len(x), size=min(n_centroids, len(x)), replace=False)]
    for _ in range(n_iter):
        assign = (x @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            members = x[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def _centroids_with_share(
    ds: ray.data.Dataset,
    n_centroids: int,
    emb_col: str = "embedding",
    sample_n: int = 2048,
    seed: int = 42,
) -> tuple[np.ndarray, np.ndarray]:
    """Trained centroids + each cell's population share in the sample."""
    sample = ds.limit(sample_n).take_all()
    x = _normalize(
        np.stack([np.asarray(r[emb_col]) for r in sample]).astype(np.float64)
    )
    rng = np.random.RandomState(seed)
    cent = x[rng.choice(len(x), size=min(n_centroids, len(x)), replace=False)]
    for _ in range(5):
        assign = (x @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            members = x[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    final = (x @ cent.T).argmax(axis=1)
    share = np.bincount(final, minlength=len(cent)) / len(x)
    return cent, share


def knn_join(
    queries_ds: ray.data.Dataset,
    corpus_ds: ray.data.Dataset,
    k: int = 5,
    n_centroids: int = 16,
    n_probe: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    exclude_self: bool = False,
    n_merge_buckets: int = 32,
    max_cell_frac: float = 0.25,
) -> ray.data.Dataset:
    """Distributed k-NN join: top-k corpus neighbors for EVERY query row.

    ``brute_force_topk`` broadcasts a small query matrix; here BOTH sides
    are Datasets, co-partitioned IVF-style:

    1. coarse quantizer from a driver sample of the corpus
       (``train_centroids``);
    2. corpus vectors emit one *member* row each (nearest centroid);
       query vectors emit ``n_probe`` *query* rows (n_probe nearest
       centroids) — replication is n_probe×, never |queries|×;
    3. one ``cogroup`` of members and query rows on the cell: one
       vectorized Q·Mᵀ block matmul per cell emits per-query partial
       top-k (boundary ties widened);
    4. global per-query merge via the bucket-group pattern
       (``hash(qid) % B``, one pandas sort+head(k) pass per bucket).

    ``n_probe = n_centroids`` makes the join exact (every pair compared
    once per shared bucket, dedup in the merge).  At corpus scale raise
    ``n_centroids`` ~√n so cells stay bounded.

    **Hot-cell salting**: real embedding distributions skew toward a few
    centroids, and a hot cell is one giant matmul on one worker.  Cell
    populations are estimated from the quantizer's own training sample
    (free); any cell whose expected share exceeds ``max_cell_frac`` splits
    into sub-cells — members salt by ``hash(id) % n_sub``, queries probe
    every sub-cell of each probed cell, so results are unchanged while the
    per-task matmul stays bounded.
    Output: (query_id, neighbor_id, rank, cosine) — ORDER BY sim DESC,
    neighbor_id ASC per query.
    """
    import pandas as pd

    cent, sample_frac = _centroids_with_share(
        corpus_ds, n_centroids, emb_col=emb_col
    )
    n_cells = len(cent)
    probe_n = min(n_probe, n_cells)
    # sub-cell counts: split cells whose expected population share exceeds
    # max_cell_frac of the corpus (estimated from the training sample)
    sub_counts = np.maximum(
        1, np.ceil(sample_frac / max_cell_frac).astype(np.int64)
    )
    sub_base = np.concatenate([[0], np.cumsum(sub_counts)[:-1]])  # cell → 1st sub id
    cent_ref = ray.put((cent, sub_counts, sub_base))

    from ..functions.hashing import _splitmix64

    def assign(role_val: int):
        def fn(batch: pa.Table) -> pa.Table:
            c, subs, base = ray.get(cent_ref)
            ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
            emb = _normalize(
                np.stack(
                    batch[emb_col].to_numpy(zero_copy_only=False)
                ).astype(np.float64)
            )
            sims = emb @ c.T  # (n, n_cells)
            n = len(ids)
            if role_val == 0:  # member: primary cell + id-hash salt
                cell = np.argmax(sims, axis=1)
                salt = (
                    _splitmix64(ids.astype(np.uint64)).astype(np.int64)
                    % subs[cell]
                )
                sub_cell = base[cell] + salt
                rid, row_idx = ids, np.arange(n)
            else:  # query: every sub-cell of each of the n_probe nearest
                order = np.argsort(-sims, axis=1, kind="stable")[:, :probe_n]
                flat_cells = order.reshape(-1)
                reps = subs[flat_cells]
                sub_cell = np.repeat(base[flat_cells], reps) + np.concatenate(
                    [np.arange(r) for r in reps]
                ) if len(flat_cells) else np.array([], dtype=np.int64)
                qrep = np.repeat(np.repeat(np.arange(n), probe_n), reps)
                rid = ids[qrep]
                row_idx = qrep
            return pa.table(
                {
                    "cell": pa.array(np.asarray(sub_cell, dtype=np.int32)),
                    "vid": pa.array(rid, type=pa.int64()),
                    "emb": pa.array(list(emb[row_idx])),
                }
            )

        return fn

    empty_partial = pa.table(
        {
            "qid": pa.array([], type=pa.int64()),
            "neighbor_id": pa.array([], type=pa.int64()),
            "cosine": pa.array([], type=pa.float64()),
        }
    )

    def cell_topk(members: pa.Table, probes: pa.Table) -> pa.Table:
        m_ids = np.asarray(members["vid"].to_pylist(), dtype=np.int64)
        q_ids = np.asarray(probes["vid"].to_pylist(), dtype=np.int64)
        M = np.stack(members["emb"].to_numpy(zero_copy_only=False))
        Q = np.stack(probes["emb"].to_numpy(zero_copy_only=False))
        sims = Q @ M.T
        kk = min(k + (1 if exclude_self else 0), sims.shape[1])
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            row = sims[qi]
            if kk < len(row):
                seed_idx = np.argpartition(-row, kk - 1)[:kk]
                idx = np.flatnonzero(row >= row[seed_idx].min())
                idx = idx[np.lexsort((m_ids[idx], -row[idx]))][:kk]
            else:
                idx = np.arange(len(row))
            out_q.extend([q_ids[qi]] * len(idx))
            out_n.extend(m_ids[idx].tolist())
            out_s.extend(row[idx].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    def bucket_topk(sides: list[pa.Table]) -> pa.Table:
        # a bucket may hold several cells: one block matmul per cell
        members, probes = sides
        m_cell = members["cell"].to_numpy()
        q_cell = probes["cell"].to_numpy()
        outs = [
            cell_topk(
                members.filter(pa.array(m_cell == c)),
                probes.filter(pa.array(q_cell == c)),
            )
            for c in np.intersect1d(m_cell, q_cell)
        ]
        return pa.concat_tables(outs) if outs else empty_partial

    cell_rows = {
        "cell": pa.int32(),
        "vid": pa.int64(),
        "emb": pa.list_(pa.float64()),
    }
    partials = cogroup(
        [
            corpus_ds.map_batches(assign(0), batch_format="pyarrow"),
            queries_ds.map_batches(assign(1), batch_format="pyarrow"),
        ],
        ["cell"],
        bucket_topk,
        int(sub_counts.sum()),
        schemas=[cell_rows, cell_rows],
    )

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # same pair may arrive from several probed cells — dedup, then the
        # global tie-broken top-k per query, all in one vectorized pass
        g = g.drop_duplicates(subset=["qid", "neighbor_id"])
        if exclude_self:
            g = g[g["qid"] != g["neighbor_id"]]
        g = g.sort_values(
            ["qid", "cosine", "neighbor_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        g = g.groupby("qid", sort=False).head(k).copy()
        g["rank"] = g.groupby("qid", sort=False).cumcount() + 1
        return g[["qid", "neighbor_id", "rank", "cosine"]].rename(
            columns={"qid": "query_id"}
        )

    return keyed_exchange(
        partials, ["qid"], merge_bucket, n_merge_buckets, batch_format="pandas"
    )


def knn_self_join(
    ds: ray.data.Dataset,
    k: int = 5,
    n_centroids: int = 16,
    n_probe: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    exclude_self: bool = True,
    n_merge_buckets: int = 32,
) -> ray.data.Dataset:
    """Top-k neighbors for every vector of one table: ``knn_join(ds, ds)``
    with self-matches excluded."""
    return knn_join(
        ds,
        ds,
        k=k,
        n_centroids=n_centroids,
        n_probe=n_probe,
        emb_col=emb_col,
        id_col=id_col,
        exclude_self=exclude_self,
        n_merge_buckets=n_merge_buckets,
    )


def ivf_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    n_centroids: int = 16,
    n_probe: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    exclude_self: bool = True,
) -> pa.Table:
    """IVF-bucketed approximate top-k: probe only n_probe nearest buckets.

    Scale path: the centroid assignment is one broadcast matmul per batch;
    each batch contributes candidates only from probed buckets, so compute
    drops by ~n_probe/n_centroids vs brute force.
    """
    cent = train_centroids(ds, n_centroids, emb_col=emb_col)
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    probes = np.argsort(-(qn @ cent.T), axis=1)[:, :n_probe]  # (n_q, n_probe)
    cent_ref = ray.put(cent)
    probe_ref = ray.put(probes)
    q_ref = ray.put(qn)

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        pr = ray.get(probe_ref)
        q = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist())
        emb = _normalize(
            np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(
                np.float64
            )
        )
        assign = (emb @ c.T).argmax(axis=1)  # bucket per corpus vector
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q)):
            mask = np.isin(assign, pr[qi])
            if not mask.any():
                continue
            row = q[qi] @ emb[mask].T
            sub_ids = ids[mask]
            kk = min(k + (1 if exclude_self else 0), len(row))
            # same boundary-tie widening as brute_force_topk
            if kk < len(row):
                seed_idx = np.argpartition(-row, kk - 1)[:kk]
                idx = np.flatnonzero(row >= row[seed_idx].min())
                idx = idx[np.lexsort((sub_ids[idx], -row[idx]))][:kk]
            else:
                idx = np.arange(len(row))
            for j in idx:
                out_q.append(qi)
                out_n.append(int(sub_ids[j]))
                out_s.append(float(row[j]))
        return pa.table(
            {
                "qi": pa.array(out_q, type=pa.int32()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
    return _merge_topk(partials, query_ids, k, exclude_self)


def ivf_probed_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    n_centroids: int = 16,
    n_probe: int = 4,
    n_iters: int = 3,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    exclude_self: bool = True,
    train_ds: ray.data.Dataset | None = None,
) -> pa.Table:
    """Approximate IVF top-k whose EVERY step is deterministic and hence
    SQL-expressible — the oracle-checkable counterpart of ``ivf_topk``
    (whose driver-sampled quantizer is RNG-seeded and stays rows-only).

    Quantizer: ``distributed_kmeans`` (RNG-free init = embeddings of the
    ``n_centroids`` smallest ids, squared-euclidean argmin with ties to the
    lowest centroid id — exactly the ``oracle._kmeans_chain_sql`` Lloyd
    recurrence).  Probing: each query searches only the lists of its
    ``n_probe`` nearest final centroids (d2 asc, centroid id asc); scoring
    within probed lists is exact cosine with the brute-force tie-break.
    The corpus streams throughout — centroids and the (n_q × n_probe)
    probe matrix broadcast once; per batch one assignment distance matrix
    plus one query matmul over the probed subset.

    ``train_ds`` trains the quantizer on a different (e.g. deterministic
    hash-sampled) Dataset while searching the full corpus — the
    sampled-quantizer IVF stays oracle-checkable because the sample is a
    pure function of the ids (``knn_ivf``).
    """
    cent = distributed_kmeans(
        train_ds if train_ds is not None else ds,
        k=n_centroids,
        n_iters=n_iters,
        emb_col=emb_col,
        id_col=id_col,
        init_smallest=train_ds is not None,
    )
    q = np.asarray(queries, dtype=np.float64)
    d2q = ((q[:, None, :] - cent[None, :, :]) ** 2).sum(axis=-1)
    # stable argsort → equal-distance ties resolve to the lowest centroid id
    probes = np.argsort(d2q, axis=1, kind="stable")[:, :n_probe]
    qn = _normalize(q)
    cent_ref = ray.put(cent)
    probe_ref = ray.put(probes)
    q_ref = ray.put(qn)

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        pr = ray.get(probe_ref)
        qm = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist())
        raw = np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        d2 = ((raw[:, None, :] - c[None, :, :]) ** 2).sum(axis=-1)
        assign = np.argmin(d2, axis=1)  # ties → lowest centroid id
        emb = _normalize(raw)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qm)):
            mask = np.isin(assign, pr[qi])
            if not mask.any():
                continue
            row = qm[qi] @ emb[mask].T
            sub_ids = ids[mask]
            kk = min(k + (1 if exclude_self else 0), len(row))
            if kk < len(row):
                seed_idx = np.argpartition(-row, kk - 1)[:kk]
                idx = np.flatnonzero(row >= row[seed_idx].min())
                idx = idx[np.lexsort((sub_ids[idx], -row[idx]))][:kk]
            else:
                idx = np.arange(len(row))
            for j in idx:
                out_q.append(qi)
                out_n.append(int(sub_ids[j]))
                out_s.append(float(row[j]))
        return pa.table(
            {
                "qi": pa.array(out_q, type=pa.int32()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
    return _merge_topk(partials, query_ids, k, exclude_self)


def distributed_kmeans(
    ds: ray.data.Dataset,
    k: int = 8,
    n_iters: int = 3,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    init_smallest: bool = False,
) -> np.ndarray:
    """Lloyd's k-means where the CORPUS streams and only k×dim floats move.

    The iterative broadcast-refine pattern (same family as ``pagerank``):
    each round puts the centroid matrix in the object store once, every
    batch computes nearest-centroid assignments (vectorized argmin over the
    squared-distance matrix, ties to the lowest centroid id) and folds them
    into a (k×dim sum, k count) partial — the only thing that returns to
    the driver is one partial per block, so a 100 TB embedding table costs
    n_blocks × k × dim floats per round, never the data.  Initialization is
    deterministic and RNG-free: the embeddings of the k smallest ids.
    Empty clusters keep their previous centroid.

    This is the scale form of the driver-side ``train_centroids`` sampler
    (which remains the right tool for a coarse IVF quantizer); it is the
    clustering primitive SemDeDup-style corpus pruning needs.
    """
    if init_smallest:
        # k smallest ids PRESENT in ds (works for hash-sampled training
        # sets whose ids are not dense): per-batch k-min partial, tiny
        # driver merge of n_blocks × k candidate rows
        def min_partial(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            order = np.argsort(ids, kind="mergesort")[:k]
            return batch.take(pa.array(order))

        cands = ds.map_batches(min_partial, batch_format="pyarrow").take_all()
        init_rows = sorted(cands, key=lambda r: r[id_col])[:k]
    else:
        # dense-id fast path: ids < k ARE the k smallest (the form the
        # shared _kmeans_chain_sql oracle head replays)
        init_rows = sorted(
            ds.filter(expr=f"{id_col} < {k}").take_all(),
            key=lambda r: r[id_col],
        )
    cent = np.stack(
        [np.asarray(r[emb_col], dtype=np.float64) for r in init_rows]
    )

    for _ in range(n_iters):
        ref = ray.put(cent)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            x = np.stack(
                batch[emb_col].to_numpy(zero_copy_only=False)
            ).astype(np.float64)
            d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=-1)
            a = np.argmin(d2, axis=1)  # ties → lowest centroid id
            sums = np.zeros_like(c)
            np.add.at(sums, a, x)
            counts = np.bincount(a, minlength=len(c)).astype(np.int64)
            return pa.table(
                {
                    "sums": pa.array([sums.tobytes()], type=pa.large_binary()),
                    "counts": pa.array([counts.tobytes()], type=pa.large_binary()),
                }
            )

        tot = np.zeros_like(cent)
        cnt = np.zeros(len(cent), dtype=np.int64)
        for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
            tot += np.frombuffer(row["sums"], dtype=np.float64).reshape(cent.shape)
            cnt += np.frombuffer(row["counts"], dtype=np.int64)
        nonempty = cnt > 0
        cent = cent.copy()
        cent[nonempty] = tot[nonempty] / cnt[nonempty, None]
    return cent


def assign_clusters(
    ds: ray.data.Dataset,
    centroids: np.ndarray,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    out_col: str = "cluster",
) -> ray.data.Dataset:
    """Nearest-centroid assignment as a streaming projection (id, cluster);
    the embedding column is dropped after the argmin — project early."""
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        x = np.stack(
            batch[emb_col].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=-1)
        return pa.table(
            {
                id_col: batch[id_col],
                out_col: pa.array(
                    np.argmin(d2, axis=1).astype(np.int64)
                ),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def semantic_dedup_flags(
    ds: ray.data.Dataset,
    centroids: np.ndarray,
    threshold: float = 0.4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """SemDeDup-style semantic dedup (Abbas et al. 2023, arXiv:2303.09540):
    cluster the embedding space, then inside each cluster drop every vector
    whose cosine similarity to a LOWER-id vector reaches ``threshold`` —
    the min-id vector of each semantic ε-ball survives.

    Shuffle shape: one nearest-centroid projection (centroids broadcast via
    ``ray.put``, embeddings kept), ONE exchange keyed on the cluster id,
    then a single vectorized pass per cluster — normalize, one m×m matmul,
    strict-upper-triangle column ``any``.  The drop rule ("∃ earlier vector
    with sim ≥ t") is deterministic, partition-invariant, and exactly
    SQL-expressible, which is what the driver oracle checks.

    Scale contract: the per-cluster cost is O(m²·dim), which is the
    algorithm (SemDeDup's own step) — the caller bounds m by scaling ``k``
    with the corpus (k ≈ n/target_cluster_size in the paper).  The cluster
    id is the ONE partitioning key; each group holds one cluster's vectors,
    never the corpus.
    """
    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        x = np.stack(
            batch[emb_col].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=-1)
        return batch.append_column(
            "cluster", pa.array(np.argmin(d2, axis=1).astype(np.int64))
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    def cluster_pass(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        x = np.stack(group[emb_col].to_numpy(zero_copy_only=False))[
            order
        ].astype(np.float64)
        xn = _normalize(x)
        sims = xn @ xn.T
        # entry (j, i) with j < i = sim of vector i to EARLIER vector j;
        # column-any over the strict upper triangle = "has an earlier dup"
        drop = (np.triu(sims, 1) >= threshold).any(axis=0)
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "cluster": group["cluster"].take(
                    pa.array(order, type=pa.int64())
                ),
                "kept": pa.array(~drop),
            }
        )

    return assigned.groupby("cluster").map_groups(
        cluster_pass, batch_format="pyarrow"
    )


def embedding_covariance(
    ds: "ray.data.Dataset", emb_col: str = "embedding"
) -> tuple[np.ndarray, np.ndarray, int]:
    """Distributed covariance matrix of a ``list<float>`` column: returns
    ``(cov, mean, n)`` where ``cov[i, j] = E[x_i x_j] − E[x_i]E[x_j]``
    (population covariance).

    The streaming-moments shape of distributed linear algebra: each batch
    folds to ONE ``(dim×dim` Gram partial, dim sum vector, count)`` triple
    via a single float64 matmul; the driver adds partials — O(dim²)
    driver state, zero shuffle, never a row materialized.  This is the
    preprocessing step of PCA whitening / Mahalanobis scoring over
    embedding corpora."""
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        emb = np.stack(
            batch[emb_col].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        g = emb.T @ emb
        s = emb.sum(axis=0)
        return pa.table(
            {
                "g": pa.array([g.tobytes()], type=pa.binary()),
                "s": pa.array([s.tobytes()], type=pa.binary()),
                "n": pa.array([len(emb)], type=pa.int64()),
                "d": pa.array([emb.shape[1]], type=pa.int64()),
            }
        )

    gram = None
    vsum = None
    n = 0
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        d = int(row["d"])
        g = np.frombuffer(row["g"], dtype=np.float64).reshape(d, d)
        s = np.frombuffer(row["s"], dtype=np.float64)
        if gram is None:
            gram, vsum = g.copy(), s.copy()
        else:
            gram += g
            vsum += s
        n += int(row["n"])
    if gram is None:
        raise ValueError("embedding_covariance: empty input")
    mean = vsum / n
    cov = gram / n - np.outer(mean, mean)
    return cov, mean, n


def pca_project(
    ds: "ray.data.Dataset",
    k: int,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> tuple["ray.data.Dataset", np.ndarray, np.ndarray]:
    """Distributed PCA projection: top-``k`` principal components from the
    streaming covariance (`embedding_covariance`), then one broadcast
    matmul pass projecting every vector — returns ``(projected, components,
    explained_variance)`` where projected rows are (id, ``pc`` list<float>).

    The eigendecomposition runs on the driver over the dim×dim covariance
    (dim ≪ corpus size — the whole point of the moments fold); components
    follow a deterministic sign convention (largest-|coordinate| entry
    positive) so results are reproducible across runs and partitionings.
    """
    import pyarrow as pa

    cov, mean, _ = embedding_covariance(ds, emb_col)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:k]
    comps = vecs[:, order].T  # (k, dim)
    # sign convention: flip each component so its max-|x| coordinate is +
    for r in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[r])))
        if comps[r, j] < 0:
            comps[r] = -comps[r]
    explained = vals[order]
    state = ray.put((comps, mean))

    def project(batch: pa.Table) -> pa.Table:
        c, mu = ray.get(state)
        emb = np.stack(
            batch[emb_col].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        proj = (emb - mu) @ c.T
        return pa.table(
            {
                id_col: batch[id_col],
                "pc": pa.array(list(proj), type=pa.list_(pa.float64())),
            }
        )

    return (
        ds.map_batches(project, batch_format="pyarrow"),
        comps,
        explained,
    )


def train_pq(
    ds: ray.data.Dataset,
    m: int = 4,
    k: int = 8,
    n_iters: int = 3,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> np.ndarray:
    """Product-quantization codebooks (Jégou et al., TPAMI 2011): split the
    dim into ``m`` contiguous subspaces and run Lloyd's k-means in each —
    the (m × k × dsub) codebook replaces every vector with m uint8 codes,
    the memory move that makes billion-vector ANN fit in RAM.

    FUSED training: per round, ONE corpus pass updates all m codebooks
    (per batch: m vectorized argmin assignments over the subspace slices,
    folded into an (m, k, dsub) sum + (m, k) count partial) — m× fewer
    passes than m independent ``distributed_kmeans`` calls, bit-identical
    results because subspace assignments only read their own dims (pinned
    by a parity test).  Same deterministic contract as
    ``distributed_kmeans``: init from the k smallest ids, ties to the
    lowest centroid, empty cells keep their previous centroid.
    """
    init_rows = sorted(
        ds.filter(expr=f"{id_col} < {k}").take_all(), key=lambda r: r[id_col]
    )
    full = np.stack(
        [np.asarray(r[emb_col], dtype=np.float64) for r in init_rows]
    )
    dim = full.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    books = np.stack(
        [full[:, s * dsub : (s + 1) * dsub] for s in range(m)]
    )  # (m, k, dsub)

    for _ in range(n_iters):
        ref = ray.put(books)

        def partial(batch: pa.Table, _r=ref) -> pa.Table:
            bks = ray.get(_r)
            x = np.stack(
                batch[emb_col].to_numpy(zero_copy_only=False)
            ).astype(np.float64)
            sums = np.zeros_like(bks)
            cnts = np.zeros((m, k), dtype=np.int64)
            for s in range(m):
                xs = x[:, s * dsub : (s + 1) * dsub]
                d2 = ((xs[:, None, :] - bks[s][None, :, :]) ** 2).sum(-1)
                a = np.argmin(d2, axis=1)  # ties to lowest id
                np.add.at(sums[s], a, xs)
                cnts[s] += np.bincount(a, minlength=k)
            return pa.table(
                {
                    "sums": pa.array([sums.ravel().tolist()]),
                    "cnts": pa.array([cnts.ravel().tolist()]),
                }
            )

        tot_s = np.zeros_like(books)
        tot_c = np.zeros((m, k), dtype=np.int64)
        for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
            tot_s += np.asarray(row["sums"], dtype=np.float64).reshape(
                books.shape
            )
            tot_c += np.asarray(row["cnts"], dtype=np.int64).reshape((m, k))
        nz = tot_c > 0
        for s in range(m):
            books[s][nz[s]] = tot_s[s][nz[s]] / tot_c[s][nz[s], None]
    return books


def pq_encode(
    ds: ray.data.Dataset,
    codebooks: np.ndarray,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Streaming PQ encode → (id, sub, code) long-form rows; the embedding
    column is dropped after the argmin (project early, same as
    ``assign_clusters``)."""
    m, k, dsub = codebooks.shape
    ref = ray.put(np.asarray(codebooks, dtype=np.float64))

    def encode(batch: pa.Table) -> pa.Table:
        bks = ray.get(ref)
        x = np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(ids)
        codes = np.empty((n, m), dtype=np.int64)
        for s in range(m):
            xs = x[:, s * dsub : (s + 1) * dsub]
            d2 = ((xs[:, None, :] - bks[s][None, :, :]) ** 2).sum(-1)
            codes[:, s] = np.argmin(d2, axis=1)
        return pa.table(
            {
                id_col: pa.array(np.repeat(ids, m)),
                "sub": pa.array(np.tile(np.arange(m, dtype=np.int64), n)),
                "code": pa.array(codes.ravel()),
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow")


def pq_topk(
    ds: ray.data.Dataset,
    codebooks: np.ndarray,
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    exclude_self: bool = True,
) -> pa.Table:
    """Asymmetric-distance (ADC) top-k over PQ codes — the search half of
    product quantization: each corpus vector is scored through its m codes
    against a per-query (m × k_cent) lookup table, so a batch costs one
    LUT build (m·k_cent·dsub flops per query) plus pure gathers, never a
    full-dim distance per pair.  Same partial-top-k-per-batch + driver
    merge shape as ``brute_force_topk``; distances ascend, ties break to
    the smaller neighbor id.  Returns (query_id, neighbor_id, rank, d2).
    """
    m, kc, dsub = codebooks.shape
    qm = np.asarray(queries, dtype=np.float64)
    # (nq, m, kc) LUT: squared distance from each query subvector to each
    # centroid — built ONCE on the driver, broadcast to every batch
    lut = np.stack(
        [
            (
                (
                    qm[:, s * dsub : (s + 1) * dsub][:, None, :]
                    - codebooks[s][None, :, :]
                )
                ** 2
            ).sum(-1)
            for s in range(m)
        ],
        axis=1,
    )
    lut_ref = ray.put(lut)
    bk_ref = ray.put(np.asarray(codebooks, dtype=np.float64))
    kk = k + (1 if exclude_self else 0)

    def partial(batch: pa.Table) -> pa.Table:
        lt = ray.get(lut_ref)
        bks = ray.get(bk_ref)
        ids = np.asarray(batch[id_col].to_pylist())
        x = np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        codes = np.empty((len(ids), m), dtype=np.int64)
        for s in range(m):
            xs = x[:, s * dsub : (s + 1) * dsub]
            codes[:, s] = np.argmin(
                ((xs[:, None, :] - bks[s][None, :, :]) ** 2).sum(-1), axis=1
            )
        # (nq, n_batch): sum LUT gathers over subspaces
        d2 = np.zeros((lt.shape[0], len(ids)), dtype=np.float64)
        for s in range(m):
            d2 += lt[:, s, :][:, codes[:, s]]
        out_q, out_n, out_d = [], [], []
        for qi in range(d2.shape[0]):
            row = d2[qi]
            kq = min(kk, len(row))
            if kq < len(row):
                seed = np.argpartition(row, kq - 1)[:kq]
                idx = np.flatnonzero(row <= row[seed].max())
            else:
                idx = np.arange(len(row))
            order = idx[np.lexsort((ids[idx], row[idx]))][:kq]
            out_q.extend([qi] * len(order))
            out_n.extend(ids[order])
            out_d.extend(row[order])
        return pa.table(
            {
                "qi": pa.array(out_q, type=pa.int64()),
                "nid": pa.array(out_n, type=pa.int64()),
                "d2": pa.array(out_d, type=pa.float64()),
            }
        )

    cand = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    rows = []
    for qi, qid in enumerate(query_ids):
        g = cand[cand["qi"] == qi]
        if exclude_self:
            g = g[g["nid"] != qid]
        g = g.sort_values(["d2", "nid"], kind="stable").head(k)
        for r, (_, rec) in enumerate(g.iterrows(), start=1):
            rows.append((qid, int(rec["nid"]), r, float(rec["d2"])))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "neighbor_id": pa.array([r[1] for r in rows], type=pa.int64()),
            "rank": pa.array([r[2] for r in rows], type=pa.int64()),
            "d2": pa.array([r[3] for r in rows], type=pa.float64()),
        }
    )


def lsh_signs(n_bits: int, dim: int) -> np.ndarray:
    """Deterministic Rademacher (±1) hyperplanes for sign-LSH (Charikar
    2002 SimHash for vectors): plane j, dim d is +1 iff bit 0 of
    ``splitmix64(j * dim + d + 1)`` — a pure function of (j, d), so the SQL
    oracle regenerates the identical planes (``oracle.lsh_topk_sql``)."""
    from ..functions.hashing import _splitmix64

    idx = np.arange(n_bits * dim, dtype=np.uint64) + np.uint64(1)
    bits = _splitmix64(idx) & np.uint64(1)
    return np.where(bits.astype(bool), 1.0, -1.0).reshape(n_bits, dim)


def _band_values(emb: np.ndarray, signs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n, n_bands) int band codes: sign bits of emb @ signs.T packed
    big-endian per band.  Strict ``> 0`` (a zero dot hashes to 0) on the
    float64 dot product — sign decisions are margin-safe unless a dot is
    within summation-reorder noise of zero; ``tests`` assert the corpus
    margin, and the data is fixed, so Ray (BLAS order) and DuckDB
    (sequential ``list_dot_product``) agree bit."""
    bits = (emb @ signs.T) > 0  # (n, n_bits)
    n_bits = signs.shape[0]
    per = n_bits // n_bands
    weights = 1 << np.arange(per - 1, -1, -1)
    return np.stack(
        [bits[:, b * per : (b + 1) * per] @ weights for b in range(n_bands)],
        axis=1,
    )


def lsh_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: list,
    k: int = 5,
    n_bits: int = 16,
    n_bands: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> pa.Table:
    """Sign-LSH-bucketed approximate cosine top-k: a corpus vector is a
    candidate for a query iff they share at least one of ``n_bands`` band
    codes (``n_bits / n_bands`` sign bits each); exact cosine ranks the
    candidates.  The LSH rule itself defines the answer (replayed by the
    SQL oracle), so correctness is exact even though recall < 1 vs brute
    force by design.

    Scale shape matches ``brute_force_topk``: the corpus streams once,
    queries + planes broadcast (``ray.put``), per-batch masked matmul +
    partial top-k, driver merges k rows per query per batch.  An indexed
    variant would persist the corpus partitioned by band code and prune
    reads to the probed buckets (see ``state/ivf_store.py`` for that
    pattern); this is the scan-side formulation.
    """
    dim = np.asarray(queries).shape[1]
    signs = lsh_signs(n_bits, dim)
    q64 = np.asarray(queries, dtype=np.float64)
    q_bands = _band_values(q64, signs, n_bands)  # (n_q, n_bands)
    qn = _normalize(q64)
    ref = ray.put((qn, q_bands, signs))

    def partial(batch: pa.Table) -> pa.Table:
        qn, q_bands, signs = ray.get(ref)
        ids = np.asarray(batch[id_col].to_pylist())
        emb = np.stack(batch[emb_col].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        bands = _band_values(emb, signs, n_bands)  # (n_batch, n_bands)
        # (n_q, n_batch): share >= 1 band code at the same band index
        cand = (q_bands[:, None, :] == bands[None, :, :]).any(axis=2)
        sims = qn @ _normalize(emb).T
        sims[~cand] = -np.inf
        out_q, out_n, out_s = [], [], []
        kk = min(k + 1, sims.shape[1])  # +1: self occupies a slot
        for qi in range(sims.shape[0]):
            row = sims[qi]
            fin = np.flatnonzero(np.isfinite(row))
            if not len(fin):
                continue
            if kk < len(fin):
                seed = fin[np.argpartition(-row[fin], kk - 1)[:kk]]
                idx = fin[row[fin] >= row[seed].min()]
            else:
                idx = fin
            order = idx[np.lexsort((ids[idx], -row[idx]))][:kk]
            out_q.extend([qi] * len(order))
            out_n.extend(int(i) for i in ids[order])
            out_s.extend(float(s) for s in row[order])
        return pa.table(
            {
                "qi": pa.array(out_q, type=pa.int32()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
    return _merge_topk(partials, query_ids, k, exclude_self=True)
