"""Synthesize an sf1-equivalent corpus by amplifying sf0.1 10×.

    python tools/make_sf1.py [src_dir] [dst_dir] [factor]

Replicates every fact/entity table ``factor`` times with per-replica key
offsets applied consistently across tables (custkey in customer and
orders shift together, orderkey in orders and lineitem, partkey/suppkey
in part/supplier/lineitem, user_id in events, doc_id, vec_id), so every
join/anti-join keeps referential integrity.  Dimension tables
(region/nation) keep their fixed TPC-H cardinality.  Embeddings get a
tiny deterministic per-replica perturbation so amplification introduces
no exact cosine ties (tie order is the one thing Ray and a SQL oracle
may legitimately disagree on).  Document texts are left byte-identical
across replicas ON PURPOSE: a 10-way exact-duplicate corpus stresses the
dedup/hot-key machinery, which is what the scale sweep is for.

Replica entity NAMES get a distinct per-replica word prefix (edit
distance ≥4 between any two replica words) and replica EMBEDDINGS get
real deterministic noise, so similarity-family outputs scale ~linearly
with the corpus the way a genuinely larger corpus's would — byte-equal
replica names / nudged-copy vectors would instead make every
name-similarity and ANN query quadratically explode on an artifact of
the amplification, which measures the input shape, not the engine.

Pure pyarrow, no Ray session needed.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# per-key-space replica offsets, all far above the sf0.1 key ranges
OFFSETS = {
    "c_custkey": 1_000_000,
    "o_custkey": 1_000_000,
    "o_orderkey": 10_000_000,
    "l_orderkey": 10_000_000,
    "p_partkey": 1_000_000,
    "l_partkey": 1_000_000,
    "s_suppkey": 1_000_000,
    "l_suppkey": 1_000_000,
    "event_id": 10_000_000,
    "user_id": 1_000_000,
    "doc_id": 1_000_000,
    "vec_id": 1_000_000,
}
COPY_ONLY = {"region", "nation"}
# distinct words, pairwise edit distance ≥ 4: replica names never
# near-dup each other
REPLICA_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet "
    "kilo lima mike november oscar papa quebec romeo sierra tango"
).split()
NAME_COLS = {"s_name", "c_name"}


def amplify_table(src: str, dst: str, table: str, factor: int) -> int:
    t = pq.read_table(os.path.join(src, f"{table}.parquet"))
    if table in COPY_ONLY:
        pq.write_table(t, os.path.join(dst, f"{table}.parquet"))
        return t.num_rows
    parts = []
    for i in range(factor):
        r = t
        for name in r.column_names:
            if name in OFFSETS and i > 0:
                col = pc.add(r[name], OFFSETS[name] * i)
                r = r.set_column(r.column_names.index(name), name, col)
            elif name in NAME_COLS and i > 0:
                col = pc.binary_join_element_wise(
                    pa.array([REPLICA_WORDS[i % len(REPLICA_WORDS)]] * len(r)),
                    r[name].combine_chunks().cast(pa.string()),
                    " ",
                )
                r = r.set_column(r.column_names.index(name), name, col)
        if table == "embeddings" and i > 0:
            # real deterministic per-replica noise: replica vectors are
            # genuinely different points, not nudged copies
            emb = r["embedding"].combine_chunks()
            flat = pc.list_flatten(emb).to_numpy(zero_copy_only=False)
            rng = np.random.RandomState(1000 + i)
            flat = (flat + rng.normal(0, 0.3, len(flat))).astype(np.float32)
            values = pa.array(flat, pa.float32())
            if pa.types.is_fixed_size_list(emb.type):
                noised = pa.FixedSizeListArray.from_arrays(
                    values, emb.type.list_size
                )
            else:
                noised = pa.ListArray.from_arrays(emb.offsets, values)
            r = r.set_column(
                r.column_names.index("embedding"), "embedding", noised
            )
        parts.append(r)
    out = pa.concat_tables(parts)
    pq.write_table(out, os.path.join(dst, f"{table}.parquet"))
    return out.num_rows


def main() -> int:
    src = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    dst = sys.argv[2] if len(sys.argv) > 2 else "/tmp/sf1"
    factor = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    os.makedirs(dst, exist_ok=True)
    tables = (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings"
    ).split()
    for table in tables:
        n = amplify_table(src, dst, table, factor)
        print(f"{table}: {n} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
