"""Entity-resolution meta-blocking (SparkER, EDBT 2019 — token blocking +
block purging + common-block weighting).

The scale story: naive ER compares all O(n²) record pairs; token blocking
compares only records sharing a blocking key, and PURGING drops
oversized blocks (stop-word keys) before any pair is generated — the
block-size cap bounds per-key pair fan-out at cap·(cap−1)/2, which is the
skew control that makes the pair-generation shuffle safe at corpus scale.
Pairs are then weighted by their common-block count (CBS) and thresholded —
the cheapest meta-blocking weight, computed here as a groupby count.

Shuffle shape: (token, doc) rows regroup by token in one keyed exchange
(one vectorized pandas pass per bucket, never one Python call per block);
surviving pairs group by (id_a, id_b) with a Count — both bounded exchanges.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .exchange import keyed_exchange


def token_blocking_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_shingle: int = 3,
    max_block_size: int = 10,
    min_common_blocks: int = 2,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """(id_a, id_b, cbs) candidate pairs, id_a < id_b.

    Blocking keys are word ``n_shingle``-grams (n=1 is classic token
    blocking; n≥2 is the shingle variant for corpora whose unigram
    vocabulary is too small to discriminate).  A pair survives when the two
    records share ≥ ``min_common_blocks`` blocking keys, counting only
    blocks of 2..``max_block_size`` records (singleton blocks generate
    nothing; oversized blocks — stop-word keys — are purged before any
    pair exists, which is the skew control).
    """

    def tokenize(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(batch[text_col]), pattern=r"\s+"
        )
        ids_out, tok_out = [], []
        for did, ts in zip(batch[id_col].to_pylist(), toks.to_pylist()):
            if len(ts) < n_shingle:
                continue
            keys = {
                " ".join(ts[i : i + n_shingle])
                for i in range(len(ts) - n_shingle + 1)
            }
            for t in keys:
                if t:
                    ids_out.append(did)
                    tok_out.append(t)
        return pa.table(
            {
                "doc_id": pa.array(ids_out),
                "token": pa.array(tok_out, type=pa.string()),
            }
        )

    tb = ds.map_batches(tokenize, batch_format="pyarrow")

    pair_schema = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64())]
    )

    def pairs_bucket(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        # one vectorized pass, never one Python iteration per block: the
        # purge cap bounds block size, so blocks partition into ≤ cap-1
        # SIZE CLASSES — each class's ids reshape to an (n_blocks, m)
        # matrix and the fixed triu index pairs emit every i<j pair with
        # ≤ (cap-1) · C(cap,2) numpy ops per bucket total
        g = g.sort_values(["token", "doc_id"], kind="mergesort")
        sizes = g.groupby("token", sort=False)["doc_id"].transform("size")
        keep = (sizes >= 2) & (sizes <= max_block_size)
        g = g[keep]
        if len(g) == 0:
            return pair_schema.empty_table()
        ids = g["doc_id"].to_numpy()
        starts_mask = g["token"].ne(g["token"].shift()).to_numpy()
        start_idx = np.flatnonzero(starts_mask)
        group_sizes = sizes[keep].to_numpy()[start_idx]
        out_a, out_b = [], []
        for m in range(2, max_block_size + 1):
            gs = start_idx[group_sizes == m]
            if len(gs) == 0:
                continue
            mat = ids[gs[:, None] + np.arange(m)[None, :]]
            iu, ju = np.triu_indices(m, k=1)
            out_a.append(mat[:, iu].ravel())
            out_b.append(mat[:, ju].ravel())
        return pa.table(
            {
                "id_a": pa.array(
                    np.concatenate(out_a).astype("int64"), type=pa.int64()
                ),
                "id_b": pa.array(
                    np.concatenate(out_b).astype("int64"), type=pa.int64()
                ),
            }
        ).cast(pair_schema)

    pairs = keyed_exchange(
        tb, ["token"], pairs_bucket, n_buckets, batch_format="pandas"
    )

    # CBS weighting via the bucketed combiner aggregate — the native
    # multi-column groupby(...).aggregate(Count) sort path measured 47.8 s
    # on the 458k-pair set at sf0.1; this path brings the whole operator
    # to 5.6 s
    from .rollup import grouped_agg

    weighted = grouped_agg(
        pairs,
        keys=["id_a", "id_b"],
        aggs={"cbs": ("id_a", "count")},
        n_buckets=n_buckets,
        partial=True,
    )
    return weighted.filter(expr=f"cbs >= {min_common_blocks}")
