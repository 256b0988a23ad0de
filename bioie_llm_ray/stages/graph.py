"""Distributed graph operators: connected components over an edge Dataset.

The near-dup family (``stages/neardup.py``) emits *pairs*; turning pairs
into duplicate *clusters* needs connected components — the canonical
building block of corpus-level dedup (MinHash clusters, URL/host grouping,
cross-document coreference).  ``near_dedup_docs`` drops the larger id of
each verified pair, which under-merges transitive clusters; components are
the exact answer.

Algorithm: alternating large-star / small-star (Kiveris et al., "Connected
Components in MapReduce and Beyond", SoCC 2014 — public algorithm).  Each
round is two bucketed groupbys (hash(node) % B — bounded reducers, one
vectorized pandas pass per bucket, never one Python call per node); both
star passes group by node, so duplicate edges are dropped inside the
per-group pass and no standalone dedup shuffle is needed.  The edge set
converges to stars pointing at each component's minimum id in O(log²)
rounds (2–5 in practice).  Between rounds the edge Dataset is
materialized — an iterative
fixpoint re-reads its own previous output, so leaving it lazy would
re-execute the whole chain each round.

Scale notes: edges stay oriented (u > v) so the representation is half the
adjacency; per-round shuffle volume is O(|E|); hot hub nodes (a component's
minimum collects edges as rounds progress) are exactly the large-star
case the algorithm is designed to flatten, and the hash-bucket groupby
spreads distinct hubs across reducers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.hashing import _splitmix64, stable_hash_u64
from .exchange import cogroup, keyed_exchange


def _orient(batch: pa.Table, src: str, dst: str) -> pa.Table:
    """(src, dst) → oriented (u, v) with u > v; self-loops dropped.

    Integer ids stay integer (cast to int64); any other id type goes
    through as-is — the algorithm only needs a total order, and numpy
    elementwise max/min and pandas groupby-min work on object arrays.
    """
    id_type = batch.schema.field(src).type
    if pa.types.is_integer(id_type):
        a = batch[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[dst].to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        a = np.asarray(batch[src].to_pylist(), dtype=object)
        b = np.asarray(batch[dst].to_pylist(), dtype=object)
    keep = a != b
    a, b = a[keep], b[keep]
    return pa.table(
        {"u": pa.array(np.maximum(a, b)), "v": pa.array(np.minimum(a, b))}
    )


def _large_star(edges: ray.data.Dataset, n_buckets: int) -> ray.data.Dataset:
    """For each node n with m = min(Γ(n) ∪ {n}): emit (x, m) for x ∈ Γ(n), x > n."""

    def bidir(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        node = np.concatenate([u, v])
        nbr = np.concatenate([v, u])
        return pa.table({"n": pa.array(node), "x": pa.array(nbr)})

    def star(group: pd.DataFrame) -> pd.DataFrame:
        group = group.drop_duplicates(["n", "x"])
        m = group.groupby("n")["x"].min()
        g = group.merge(m.rename("m"), left_on="n", right_index=True)
        g["m"] = np.minimum(g["m"].to_numpy(), g["n"].to_numpy())
        out = g[g["x"] > g["n"]]
        return pd.DataFrame(
            {"u": out["x"].to_numpy(), "v": out["m"].to_numpy()}
        ).drop_duplicates()

    return keyed_exchange(
        edges.map_batches(bidir, batch_format="pyarrow"),
        ["n"],
        star,
        n_buckets,
        batch_format="pandas",
    )


def _small_star(edges: ray.data.Dataset, n_buckets: int) -> ray.data.Dataset:
    """For each node n (edges oriented n > v), m = min neighbor: emit
    (v, m) for v ∈ Γ⁻(n), v ≠ m, plus (n, m)."""

    def star(group: pd.DataFrame) -> pd.DataFrame:
        group = group.drop_duplicates(["u", "v"])
        m = group.groupby("u")["v"].min()
        g = group.merge(m.rename("m"), left_on="u", right_index=True)
        keep = g[g["v"] != g["m"]]
        own = m.reset_index()  # (u, m): the node itself points at its min
        return pd.DataFrame(
            {
                "u": np.concatenate(
                    [keep["v"].to_numpy(), own["u"].to_numpy()]
                ),
                "v": np.concatenate(
                    [keep["m"].to_numpy(), own["v"].to_numpy()]
                ),
            }
        ).drop_duplicates()

    return keyed_exchange(edges, ["u"], star, n_buckets, batch_format="pandas")


def _edge_fingerprint(edges: ray.data.Dataset) -> tuple[int, int]:
    """(count, order-independent hash-sum mod 2^64) of the edge multiset —
    the convergence check ships two ints per batch, nothing else."""

    def partial(batch: pa.Table) -> pa.Table:
        if pa.types.is_integer(batch.schema.field("u").type):
            u = batch["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
            v = batch["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            u = stable_hash_u64([str(x) for x in batch["u"].to_pylist()])
            v = stable_hash_u64([str(x) for x in batch["v"].to_pylist()])
        h = _splitmix64(u * np.uint64(0x9E3779B97F4A7C15) + _splitmix64(v))
        # np.sum wraps mod 2^64 on uint64 — exactly what we want
        return pa.table(
            {
                "n": pa.array([len(u)], type=pa.int64()),
                "h": pa.array([int(h.sum(dtype=np.uint64))], type=pa.uint64()),
            }
        )

    n, h = 0, 0
    for row in edges.map_batches(partial, batch_format="pyarrow").take_all():
        n += row["n"]
        h = (h + int(row["h"])) & 0xFFFFFFFFFFFFFFFF
    return n, h


def connected_components(
    pairs: ray.data.Dataset,
    src: str = "id_a",
    dst: str = "id_b",
    n_buckets: int = 32,
    max_iters: int = 50,
) -> ray.data.Dataset:
    """Edge Dataset → (node, component) labels; component = min node id.

    Every node appearing in ``pairs`` gets a row (isolated nodes never
    enter an edge list — label them ``node == component`` upstream if
    needed).  Raises after ``max_iters`` non-converged rounds (the
    algorithm's bound is O(log² n); 50 rounds means malformed input).
    """
    # No standalone dedup shuffle: both star passes group by node, so a
    # per-group drop_duplicates inside them bounds blow-up the same way,
    # and one round after the star shape is reached the output is the
    # canonical deduplicated star set — the fingerprint stabilizes on it.
    # Two shuffles per round instead of three.
    edges = (
        pairs.map_batches(lambda b: _orient(b, src, dst), batch_format="pyarrow")
        # coalesce once: the star rounds keep whatever block count they
        # start with, and the exchange costs O(blocks²) scheduling
        .repartition(n_buckets)
        .materialize()
    )
    fp = _edge_fingerprint(edges)
    for _ in range(max_iters):
        edges = _small_star(
            _large_star(edges, n_buckets), n_buckets
        ).materialize()
        new_fp = _edge_fingerprint(edges)
        if new_fp == fp:
            break
        fp = new_fp
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds"
        )

    # converged star edges: (node, root).  Roots only ever appear as v —
    # add a self-label row per edge's v; the bucket pass drops repeats.
    def labels(group: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"node": group["u"].to_numpy(), "component": group["v"].to_numpy()}
        )
        return out.drop_duplicates("node")

    def with_roots(b: pa.Table) -> pa.Table:
        # one map, not a union: the edges are pandas blocks, and one task
        # over a union of pandas and Arrow blocks fails to concatenate them
        return pa.concat_tables(
            [b.select(["u", "v"]), pa.table({"u": b["v"], "v": b["v"]})]
        )

    return keyed_exchange(
        edges.map_batches(with_roots, batch_format="pyarrow"),
        ["u"],
        labels,
        n_buckets,
        batch_format="pandas",
    )


def cluster_dedup(
    docs: ray.data.Dataset,
    pairs: ray.data.Dataset,
    id_col: str = "doc_id",
    src: str = "id_a",
    dst: str = "id_b",
    n_buckets: int = 32,
    max_broadcast_ids: int = 2_000_000,
) -> ray.data.Dataset:
    """Corpus minus near-duplicates, cluster-exact: connected components of
    the verified pair graph, keep each component's minimum id.

    The drop set (every non-root member) broadcasts as an id set only
    while it fits (``<= max_broadcast_ids``); above the bound the filter
    switches automatically to a distributed ``shuffle_semi_join(anti=True)``
    against the non-root label Dataset, so no id collection ever reaches
    the driver — same auto-threshold contract as
    ``neardup.verify_jaccard_pairs_join`` and ``editdist`` re-fetch.
    """
    from .join import anti_semi_filter, shuffle_semi_join

    comp = connected_components(
        pairs, src=src, dst=dst, n_buckets=n_buckets
    )

    def nonroot(batch: pa.Table) -> pa.Table:
        keep = pc.invert(pc.equal(batch["node"], batch["component"]))
        return pa.table({id_col: batch["node"].filter(keep)})

    # bounded by the duplicate count, never the corpus; materialized once
    # so the count and the filter pass share the execution
    drop_ds = comp.map_batches(nonroot, batch_format="pyarrow").materialize()
    if drop_ds.count() <= max_broadcast_ids:
        drop = {str(r[id_col]) for r in drop_ds.take_all()}
        return anti_semi_filter(docs, drop, keys=id_col, anti=True)
    return shuffle_semi_join(
        docs, drop_ds, keys=id_col, anti=True, n_buckets=n_buckets
    )


def aggregate_edges(
    triples: ray.data.Dataset,
    keys: tuple[str, str, str] = ("subj", "pred", "obj"),
    support_col: str = "support",
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Triple stream → distinct edge table with support counts.

    Two-phase count (the combiner pattern): an Arrow ``group_by`` inside
    each batch collapses local repeats first, so the shuffle moves one
    partial row per distinct edge per batch; the bucketed groupby then
    sums partials — never one group per edge key.
    """
    ks = list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(ks).aggregate([([], "count_all")])
        return g.rename_columns(ks + ["__n"])

    def reduce_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(ks, as_index=False)["__n"].sum()
        return out.rename(columns={"__n": support_col})

    return keyed_exchange(
        triples.map_batches(partial, batch_format="pyarrow"),
        ks,
        reduce_bucket,
        n_buckets,
        batch_format="pandas",
    )


def node_degrees(
    edges: ray.data.Dataset,
    src: str = "subj",
    dst: str = "obj",
    weight: str | None = None,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Edge table → (entity, degree, support) node table.

    degree = distinct neighbors over both directions; support = Σ edge
    weight (edge count when ``weight`` is None).  One bucketed groupby on
    hash(entity) with a vectorized pandas pass per bucket.
    """

    def bidir(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch[src].to_pylist(), dtype=object)
        o = np.asarray(batch[dst].to_pylist(), dtype=object)
        if weight is None:
            w = np.ones(len(s), dtype=np.int64)
        else:
            w = batch[weight].to_numpy(zero_copy_only=False).astype(np.int64)
        ent = np.concatenate([s, o])
        nbr = np.concatenate([o, s])
        return pa.table(
            {
                "entity": pa.array(ent, type=pa.string()),
                "nbr": pa.array(nbr, type=pa.string()),
                "w": pa.array(np.concatenate([w, w])),
            }
        )

    def reduce_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("entity").agg(
            degree=("nbr", "nunique"), support=("w", "sum")
        )
        return out.reset_index()

    return keyed_exchange(
        edges.map_batches(bidir, batch_format="pyarrow"),
        ["entity"],
        reduce_bucket,
        n_buckets,
        batch_format="pandas",
    )


def materialize_graph(
    triples: ray.data.Dataset,
    out_root: str | None = None,
    lineage: dict | None = None,
    n_buckets: int = 32,
) -> dict:
    """Triple stream → materialized KG: edge table + node table, optionally
    checkpointed as partitioned Parquet (north-rule "graph materialize").

    Layout under ``out_root``::

        edges/*.parquet   (subj, pred, obj, support)
        nodes/*.parquet   (entity, degree, support)
        MANIFEST.json     lineage + row counts

    Each table keeps its block-level partitioning (one file per block) so a
    failed downstream consumer can re-read any shard independently.
    """
    edges = aggregate_edges(triples, n_buckets=n_buckets).materialize()
    nodes = node_degrees(
        edges, weight="support", n_buckets=n_buckets
    ).materialize()
    result = {"edges": edges, "nodes": nodes}
    if out_root is not None:
        import json
        import os

        os.makedirs(out_root, exist_ok=True)
        edges.write_parquet(os.path.join(out_root, "edges"))
        nodes.write_parquet(os.path.join(out_root, "nodes"))
        manifest = {
            "lineage": lineage or {},
            "n_edges": edges.count(),
            "n_nodes": nodes.count(),
        }
        with open(os.path.join(out_root, "MANIFEST.json"), "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
    return result


def pagerank(
    edges: ray.data.Dataset,
    src: str = "subj",
    dst: str = "obj",
    weight: str | None = None,
    damping: float = 0.85,
    n_iters: int = 20,
    n_buckets: int = 32,
    max_broadcast_nodes: int = 2_000_000,
) -> ray.data.Dataset:
    """Weighted PageRank over a directed edge Dataset → (node, rank).

    Broadcast-iteration pattern: the node table (ranks + out-degrees) is
    the small side of a KG — entity count ≪ mention/edge count — so ranks
    broadcast via ``ray.put`` each round while the edge set streams.  Per
    round, each edge batch pre-aggregates its contributions per target
    (one partial row per distinct dst per batch), the driver folds the
    partials, applies damping and dangling-mass redistribution, and
    re-broadcasts.  Driver state and per-round merge are O(|V|); edge work
    is fully parallel and never materializes on the driver.  Above
    ``max_broadcast_nodes`` (2·|edges| as the node-count upper bound) the
    rank table moves off the driver into the bucketed Dataset iteration
    (``_pagerank_bucketed``, same formula, ~3 exchanges per round; float
    sums associate differently so equality is ~1e-12 relative, not
    bit-exact); force 0 to always bucket.

    Fixed ``n_iters`` (deterministic output given topology); undirected
    graphs should pass both edge orientations.
    """
    import collections

    edges = edges.materialize()  # consumed n_iters+1 times
    if 2 * edges.count() > max_broadcast_nodes:
        return _pagerank_bucketed(
            edges, src=src, dst=dst, weight=weight, damping=damping,
            n_iters=n_iters, n_buckets=n_buckets,
        )

    def outdeg_partial(batch: pa.Table) -> pa.Table:
        s = [str(x) for x in batch[src].to_pylist()]
        if weight is None:
            w = np.ones(len(s), dtype=np.float64)
        else:
            w = batch[weight].to_numpy(zero_copy_only=False).astype(np.float64)
        acc: dict = {}
        for k, wi in zip(s, w):
            acc[k] = acc.get(k, 0.0) + wi
        d = [str(x) for x in batch[dst].to_pylist()]
        return pa.table(
            {
                "node": pa.array(list(acc) + sorted(set(d) - set(acc))),
                "od": pa.array(
                    list(acc.values()) + [0.0] * len(set(d) - set(acc)),
                    type=pa.float64(),
                ),
            }
        )

    outdeg: dict = collections.defaultdict(float)
    for row in edges.map_batches(
        outdeg_partial, batch_format="pyarrow"
    ).take_all():
        outdeg[row["node"]] += row["od"]
    nodes = sorted(outdeg)
    n = len(nodes)
    if n == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=pa.string()),
                    "rank": pa.array([], type=pa.float64()),
                }
            )
        )
    ranks = {v: 1.0 / n for v in nodes}

    def contrib_partial(ranks_ref):
        def fn(batch: pa.Table) -> pa.Table:
            r = ray.get(ranks_ref)
            od = ray.get(od_ref)
            s = [str(x) for x in batch[src].to_pylist()]
            d = [str(x) for x in batch[dst].to_pylist()]
            if weight is None:
                w = np.ones(len(s), dtype=np.float64)
            else:
                w = batch[weight].to_numpy(zero_copy_only=False).astype(
                    np.float64
                )
            acc: dict = {}
            for si, di, wi in zip(s, d, w):
                acc[di] = acc.get(di, 0.0) + r[si] * wi / od[si]
            return pa.table(
                {
                    "node": pa.array(list(acc)),
                    "c": pa.array(list(acc.values()), type=pa.float64()),
                }
            )

        return fn

    od_ref = ray.put(dict(outdeg))
    for _ in range(n_iters):
        ranks_ref = ray.put(ranks)
        contrib: dict = collections.defaultdict(float)
        for row in edges.map_batches(
            contrib_partial(ranks_ref), batch_format="pyarrow"
        ).take_all():
            contrib[row["node"]] += row["c"]
        dangling = sum(r for v, r in ranks.items() if outdeg[v] == 0.0)
        base = (1.0 - damping) / n + damping * dangling / n
        ranks = {v: base + damping * contrib.get(v, 0.0) for v in nodes}

    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, type=pa.string()),
                "rank": pa.array([ranks[v] for v in nodes], type=pa.float64()),
            }
        )
    )


# --------------------------------------------------------- bucketed iteration
#
# The broadcast-iteration pattern above keeps O(|V|) frontier/label/distance
# state on the driver — right when the node table is entity-vocabulary-sized,
# wrong for billion-node graphs.  The ``_*_bucketed`` variants below keep the
# per-node state AS A DATASET keyed by hash(node) % B and join the frontier
# per round (2-3 bucketed exchanges per round, zero driver-side node state).
# The public functions auto-switch on ``max_broadcast_nodes`` using
# 2·|edges| ≥ |nodes| as the cheap upper bound (each edge introduces at most
# two nodes); forcing ``max_broadcast_nodes=0`` always takes the bucketed
# path.  Results are bit-identical to the broadcast path (integer distances;
# label votes are exact when weights are integer-valued floats < 2^53).


def _norm_edges(
    edges: ray.data.Dataset,
    src: str,
    dst: str,
    weight: str | None = None,
    weight_type: pa.DataType | None = None,
) -> ray.data.Dataset:
    """Edges normalized to string endpoints (u, v[, w]) — node ids in the
    bucketed state are strings, matching the broadcast paths' str() casts.
    Vectorized Arrow casts (int→decimal-string matches ``str()``); no
    Python row loop."""

    def norm(batch: pa.Table) -> pa.Table:
        cols = {
            "u": pc.cast(batch[src], pa.string()),
            "v": pc.cast(batch[dst], pa.string()),
        }
        if weight is not None:
            cols["w"] = pc.cast(batch[weight], weight_type)
        return pa.table(cols)

    return edges.map_batches(norm, batch_format="pyarrow").materialize()


def _single_node_state(seed: str, dist: int) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array([str(seed)], type=pa.string()),
                "dist": pa.array([dist], type=pa.int64()),
            }
        )
    )


def _bfs_bucketed(
    edges: ray.data.Dataset,
    seed: str,
    src: str,
    dst: str,
    max_iters: int,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Distributed-state BFS: settled (node, dist) and the frontier are
    Datasets; each level is semi-join(edges, frontier) → distinct neighbors
    → anti-join vs settled — 2 bucketed exchanges per level (the neighbor
    dedup is FOLDED into the joins: a per-u-bucket ``unique`` combiner in
    the semi join's ``bucket_post`` shrinks the exchange, and the anti
    join — bucketed BY node — makes it exact in its own ``bucket_post``),
    O(1) driver state (one row count per round)."""
    from .join import shuffle_semi_join

    e = _norm_edges(edges, src, dst)
    settled = _single_node_state(seed, 0).materialize()
    frontier = settled.select_columns(["node"]).materialize()
    level = 0
    while level < max_iters:
        level += 1
        cand = shuffle_semi_join(
            e,
            frontier.map_batches(
                lambda b: b.rename_columns(["u"]), batch_format="pyarrow"
            ),
            keys="u",
            n_buckets=n_buckets,
            left_schema={"u": pa.string(), "v": pa.string()},
            # combiner: distinct neighbors per u-bucket (a v reached from
            # several u-buckets still duplicates ACROSS buckets — the anti
            # join below dedups exactly, keyed by the node itself)
            bucket_post=lambda kept: pa.table({"node": pc.unique(kept["v"])}),
        )
        new = shuffle_semi_join(
            cand,
            settled.select_columns(["node"]),
            keys="node",
            anti=True,
            n_buckets=n_buckets,
            left_schema={"node": pa.string()},
            bucket_post=lambda kept: pa.table(
                {"node": pc.unique(kept["node"])}
            ),
        ).map_batches(
            lambda b, _l=level: b.append_column(
                "dist", pa.array([_l] * len(b), type=pa.int64())
            ),
            batch_format="pyarrow",
        ).materialize()
        if new.count() == 0:
            break
        # Coalesce: union compounds block counts round over round, and the
        # bucket exchange costs O(blocks²) scheduling.
        settled = settled.union(new).repartition(n_buckets).materialize()
        frontier = new.select_columns(["node"]).materialize()
    return settled


def _sssp_bucketed(
    edges: ray.data.Dataset,
    seed: str,
    src: str,
    dst: str,
    weight: str,
    max_iters: int,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Distributed-state Bellman-Ford: dist and the changed frontier are
    Datasets.  Per round: shuffle-join changed onto edges by source (with a
    per-bucket min combiner folded into the join), grouped min per target,
    then a tagged per-bucket merge with dist keeping strict improvements.
    After r rounds dist is exactly the ≤ r-edge minimum, identical to the
    broadcast path (integer arithmetic throughout)."""
    from .join import shuffle_join
    from .rollup import grouped_agg

    e = _norm_edges(edges, src, dst, weight=weight, weight_type=pa.int64())
    dist = _single_node_state(seed, 0).materialize()
    changed = dist
    it = 0
    while it < max_iters and changed.count() > 0:
        it += 1

        def relax_post(joined: pa.Table) -> pa.Table:
            # per-bucket combiner: min candidate per target node
            t = pa.table(
                {
                    "node": joined["v"],
                    "d": pc.add(joined["w"], joined["du"]),
                }
            )
            g = t.group_by(["node"]).aggregate([("d", "min")])
            return g.rename_columns(["node", "d"])

        cand = grouped_agg(
            shuffle_join(
                e,
                changed.map_batches(
                    lambda b: b.rename_columns(["u", "du"]),
                    batch_format="pyarrow",
                ),
                keys="u",
                n_buckets=n_buckets,
                left_schema={"u": pa.string(), "v": pa.string(), "w": pa.int64()},
                right_schema={"u": pa.string(), "du": pa.int64()},
                bucket_post=relax_post,
            ),
            keys=["node"],
            aggs={"d": ("d", "min")},
            n_buckets=n_buckets,
            partial=True,
        )

        def merge(sides: list[pd.DataFrame]) -> pd.DataFrame:
            # per node: old dist (≤1 row) vs candidate min (≤1 row)
            old = sides[0].set_index("node")["dist"]
            cnd = sides[1].set_index("node")["d"]
            improved = cnd[
                ~cnd.index.isin(old.index) | (cnd < old.reindex(cnd.index))
            ]
            merged = pd.concat([old[~old.index.isin(improved.index)], improved])
            out = merged.reset_index()
            out.columns = ["node", "dist"]
            out["__improved"] = out["node"].isin(improved.index)
            return out

        merged = (
            cogroup(
                [dist, cand],
                ["node"],
                merge,
                n_buckets,
                batch_format="pandas",
                schemas=[
                    {"node": pa.string(), "dist": pa.int64()},
                    {"node": pa.string(), "d": pa.int64()},
                ],
            )
            # coalesce: exchange output keeps input block count, which would
            # otherwise compound round over round through dist
            .repartition(n_buckets)
            .materialize()
        )
        dist = merged.map_batches(
            lambda b: b.select(["node", "dist"]), batch_format="pyarrow"
        ).materialize()
        changed = merged.map_batches(
            lambda b: b.filter(b["__improved"]).select(["node", "dist"]).rename_columns(["node", "d"]),
            batch_format="pyarrow",
        ).materialize()
    return dist


def _lpa_bucketed(
    edges: ray.data.Dataset,
    src: str,
    dst: str,
    weight: str | None,
    n_iters: int,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Distributed-state synchronous label propagation: the (node, label)
    table is bucketed; per round labels shuffle-join onto edges by source
    (vote combiner folded into the join bucket), the grouped vote argmax is
    one more exchange keyed by node, and a tagged per-bucket merge applies
    the winning labels.  Votes are exact for integer-valued weights."""
    from .dedup import exact_dedup
    from .join import shuffle_join
    from .rollup import grouped_agg

    e = _norm_edges(
        edges, src, dst, weight=weight, weight_type=pa.float64()
    ) if weight is not None else _norm_edges(edges, src, dst)

    def both_ends(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch["u"].combine_chunks(),
                        batch["v"].combine_chunks(),
                    ]
                )
            }
        )

    labels = exact_dedup(
        e.map_batches(both_ends, batch_format="pyarrow"),
        ["node"],
        n_buckets=n_buckets,
    ).map_batches(
        lambda b: b.append_column("label", b["node"]),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(n_iters):

        def vote_post(joined: pa.Table) -> pa.Table:
            w = (
                joined["w"]
                if "w" in joined.column_names
                else pa.array([1.0] * len(joined), type=pa.float64())
            )
            t = pa.table(
                {"node": joined["v"], "label": joined["lab"], "w": w}
            )
            g = t.group_by(["node", "label"]).aggregate([("w", "sum")])
            return g.rename_columns(["node", "label", "w"])

        votes = grouped_agg(
            shuffle_join(
                e,
                labels.map_batches(
                    lambda b: b.rename_columns(["u", "lab"]),
                    batch_format="pyarrow",
                ),
                keys="u",
                n_buckets=n_buckets,
                left_schema=(
                    {"u": pa.string(), "v": pa.string(), "w": pa.float64()}
                    if weight is not None
                    else {"u": pa.string(), "v": pa.string()}
                ),
                right_schema={"u": pa.string(), "lab": pa.string()},
                bucket_post=vote_post,
            ),
            keys=["node", "label"],
            aggs={"w": ("w", "sum")},
            n_buckets=n_buckets,
            partial=True,
        )

        def best_of(group: pd.DataFrame) -> pd.DataFrame:
            g = group.sort_values(
                ["node", "w", "label"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            top = g.drop_duplicates("node", keep="first")
            return top[["node", "label"]].rename(columns={"label": "newlab"})

        best = keyed_exchange(
            votes, ["node"], best_of, n_buckets, batch_format="pandas"
        )

        def apply_votes(sides: list[pd.DataFrame]) -> pd.DataFrame:
            old = sides[0].set_index("node")["label"]
            new = sides[1].set_index("node")["newlab"]
            out = new.combine_first(old).reset_index()
            out.columns = ["node", "label"]
            return out

        labels = (
            cogroup(
                [labels, best],
                ["node"],
                apply_votes,
                n_buckets,
                batch_format="pandas",
                schemas=[
                    {"node": pa.string(), "label": pa.string()},
                    {"node": pa.string(), "newlab": pa.string()},
                ],
            )
            # coalesce: keep the per-round label table at n_buckets blocks
            .repartition(n_buckets)
            .materialize()
        )

    return labels.map_batches(
        lambda b: b.rename_columns(["node", "community"]),
        batch_format="pyarrow",
    )


def _pagerank_bucketed(
    edges: ray.data.Dataset,
    src: str,
    dst: str,
    weight: str | None,
    damping: float,
    n_iters: int,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Distributed-state PageRank: the (node, rank, out-weight) table is a
    bucketed Dataset; per round contributions shuffle-join onto edges by
    source (rank·w/od combiner folded into the join bucket), the grouped
    sum is one exchange keyed by target, and a tagged per-bucket merge
    applies ``base + damping·contrib``.  Only two scalars reach the driver
    per round (node count once, dangling mass each round) — no O(|V|)
    rank dict.  Floating sums associate differently than the broadcast
    path's dict folds, so equality is to ~1e-12 relative, not bit-exact."""
    from .join import shuffle_join
    from .rollup import grouped_agg

    e = _norm_edges(
        edges, src, dst, weight=weight, weight_type=pa.float64()
    ) if weight is not None else _norm_edges(edges, src, dst)

    # (node, od): out-weight per source, 0.0 for pure sinks — one exchange
    def ends_partial(batch: pa.Table) -> pa.Table:
        w = (
            batch["w"]
            if "w" in batch.column_names
            else pa.array([1.0] * len(batch), type=pa.float64())
        )
        t = pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch["u"].combine_chunks(),
                        batch["v"].combine_chunks(),
                    ]
                ),
                "od": pa.concat_arrays(
                    [
                        pc.cast(
                            w
                            if isinstance(w, pa.ChunkedArray)
                            else pa.chunked_array([w]),
                            pa.float64(),
                        ).combine_chunks(),
                        pa.array(
                            np.zeros(len(batch)), type=pa.float64()
                        ),
                    ]
                ),
            }
        )
        g = t.group_by(["node"]).aggregate([("od", "sum")])
        return g.rename_columns(["node", "od"])

    nodes = grouped_agg(
        e.map_batches(ends_partial, batch_format="pyarrow"),
        keys=["node"],
        aggs={"od": ("od", "sum")},
        n_buckets=n_buckets,
        partial=True,
    ).materialize()
    n = nodes.count()
    if n == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=pa.string()),
                    "rank": pa.array([], type=pa.float64()),
                }
            )
        )

    ranks = nodes.map_batches(
        lambda b, _n=n: b.append_column(
            "rank", pa.array([1.0 / _n] * len(b), type=pa.float64())
        ),
        batch_format="pyarrow",
    ).materialize()

    def dangling_partial(batch: pa.Table) -> pa.Table:
        od = batch["od"].to_numpy(zero_copy_only=False)
        r = batch["rank"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"d": pa.array([float(r[od == 0.0].sum())], type=pa.float64())}
        )

    for _ in range(n_iters):
        dangling = sum(
            row["d"]
            for row in ranks.map_batches(
                dangling_partial, batch_format="pyarrow"
            ).take_all()
        )
        base = (1.0 - damping) / n + damping * dangling / n

        def contrib_post(joined: pa.Table) -> pa.Table:
            w = (
                joined["w"].to_numpy(zero_copy_only=False)
                if "w" in joined.column_names
                else np.ones(len(joined))
            )
            r = joined["rank"].to_numpy(zero_copy_only=False)
            od = joined["od"].to_numpy(zero_copy_only=False)
            t = pa.table(
                {
                    "node": joined["v"],
                    "c": pa.array(r * w / od, type=pa.float64()),
                }
            )
            g = t.group_by(["node"]).aggregate([("c", "sum")])
            return g.rename_columns(["node", "c"])

        contrib = grouped_agg(
            shuffle_join(
                e,
                ranks.map_batches(
                    lambda b: b.rename_columns(["u", "od", "rank"]),
                    batch_format="pyarrow",
                ),
                keys="u",
                n_buckets=n_buckets,
                left_schema=(
                    {"u": pa.string(), "v": pa.string(), "w": pa.float64()}
                    if weight is not None
                    else {"u": pa.string(), "v": pa.string()}
                ),
                right_schema={
                    "u": pa.string(),
                    "od": pa.float64(),
                    "rank": pa.float64(),
                },
                bucket_post=contrib_post,
            ),
            keys=["node"],
            aggs={"c": ("c", "sum")},
            n_buckets=n_buckets,
            partial=True,
        )

        def apply(sides: list[pd.DataFrame], _base=base) -> pd.DataFrame:
            out = sides[0].dropna(subset=["od"])
            c = sides[1].groupby("node")["c"].sum()
            out["rank"] = _base + damping * c.reindex(out["node"]).fillna(
                0.0
            ).to_numpy()
            return out[["node", "od", "rank"]]

        ranks = (
            cogroup(
                [nodes, contrib],
                ["node"],
                apply,
                n_buckets,
                batch_format="pandas",
                schemas=[
                    {"node": pa.string(), "od": pa.float64()},
                    {"node": pa.string(), "c": pa.float64()},
                ],
            )
            # coalesce: keep the per-round rank table at n_buckets blocks
            .repartition(n_buckets)
            .materialize()
        )

    return ranks.map_batches(
        lambda b: b.select(["node", "rank"]), batch_format="pyarrow"
    )


def _hits_bucketed(
    edges: ray.data.Dataset,
    src: str,
    dst: str,
    weight: str | None,
    n_iters: int,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Distributed-state HITS: hub/authority vectors live as bucketed
    Datasets; per half-round the score joins onto edges by one endpoint
    (sum combiner folded into the join bucket), the L2 norm is a per-block
    scalar partial (the only driver value per half-round), and a tagged
    per-bucket merge applies ``coalesce(x, 0) / z`` over ALL nodes."""
    from .dedup import exact_dedup
    from .join import shuffle_join
    from .rollup import grouped_agg

    e = _norm_edges(
        edges, src, dst, weight=weight, weight_type=pa.float64()
    ) if weight is not None else _norm_edges(edges, src, dst)

    def both_ends(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch["u"].combine_chunks(),
                        batch["v"].combine_chunks(),
                    ]
                )
            }
        )

    nodes = exact_dedup(
        e.map_batches(both_ends, batch_format="pyarrow"),
        ["node"],
        n_buckets=n_buckets,
    ).materialize()

    def const_scores(val: float) -> ray.data.Dataset:
        return nodes.map_batches(
            lambda b, _v=val: b.append_column(
                "s", pa.array([_v] * len(b), type=pa.float64())
            ),
            batch_format="pyarrow",
        ).materialize()

    def half_round(scores: ray.data.Dataset, from_end: str) -> ray.data.Dataset:
        """scores on ``from_end`` (u: hub→auth, v: auth→hub) → normalized
        scores on the other endpoint, over ALL nodes."""
        to_col = "v" if from_end == "u" else "u"

        def post(joined: pa.Table) -> pa.Table:
            w = (
                joined["w"].to_numpy(zero_copy_only=False)
                if "w" in joined.column_names
                else np.ones(len(joined))
            )
            s = joined["s"].to_numpy(zero_copy_only=False)
            t = pa.table(
                {
                    "node": joined[to_col],
                    "x": pa.array(w * s, type=pa.float64()),
                }
            )
            g = t.group_by(["node"]).aggregate([("x", "sum")])
            return g.rename_columns(["node", "x"])

        raw = grouped_agg(
            shuffle_join(
                e,
                scores.map_batches(
                    lambda b, _f=from_end: b.rename_columns([_f, "s"]),
                    batch_format="pyarrow",
                ),
                keys=from_end,
                n_buckets=n_buckets,
                left_schema=(
                    {"u": pa.string(), "v": pa.string(), "w": pa.float64()}
                    if weight is not None
                    else {"u": pa.string(), "v": pa.string()}
                ),
                right_schema={from_end: pa.string(), "s": pa.float64()},
                bucket_post=post,
            ),
            keys=["node"],
            aggs={"x": ("x", "sum")},
            n_buckets=n_buckets,
            partial=True,
        ).materialize()
        z = np.sqrt(
            sum(
                row["z"]
                for row in raw.map_batches(
                    lambda b: pa.table(
                        {
                            "z": pa.array(
                                [
                                    float(
                                        (
                                            b["x"].to_numpy(
                                                zero_copy_only=False
                                            )
                                            ** 2
                                        ).sum()
                                    )
                                ],
                                type=pa.float64(),
                            )
                        }
                    ),
                    batch_format="pyarrow",
                ).take_all()
            )
        )
        if z == 0.0:
            return const_scores(0.0)

        def merge(sides: list[pd.DataFrame], _z=float(z)) -> pd.DataFrame:
            allnodes, raw = sides
            x = raw.set_index("node")["x"]
            allnodes["s"] = (
                x.reindex(allnodes["node"]).fillna(0.0).to_numpy() / _z
            )
            return allnodes

        return (
            cogroup(
                [nodes, raw],
                ["node"],
                merge,
                n_buckets,
                batch_format="pandas",
                schemas=[{"node": pa.string()}, {"node": pa.string(), "x": pa.float64()}],
            )
            # coalesce: score tables feed the next half-round's exchange
            .repartition(n_buckets)
            .materialize()
        )

    hub = const_scores(1.0)
    auth = None
    for _ in range(n_iters):
        auth = half_round(hub, "u")
        hub = half_round(auth, "v")

    def zip_scores(sides: list[pd.DataFrame]) -> pd.DataFrame:
        h = sides[0].set_index("node")["s"]
        a = sides[1].set_index("node")["s"]
        out = pd.DataFrame({"node": h.index})
        out["hub"] = h.to_numpy()
        out["authority"] = a.reindex(h.index).fillna(0.0).to_numpy()
        return out

    scores = {"node": pa.string(), "s": pa.float64()}
    return cogroup(
        [hub, auth],
        ["node"],
        zip_scores,
        n_buckets,
        batch_format="pandas",
        schemas=[scores, scores],
    )


def hits(
    edges: ray.data.Dataset,
    src: str = "subj",
    dst: str = "obj",
    weight: str | None = None,
    n_iters: int = 8,
    max_broadcast_nodes: int = 2_000_000,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """HITS hubs/authorities (Kleinberg JACM'99) over a DIRECTED edge
    Dataset → (node, hub, authority), L2-normalized each half-round.

    Broadcast-iteration contract (same as ``pagerank``): the score vectors
    are node-vocabulary-bounded dicts broadcast per half-round while edges
    stream with per-batch sum partials; above ``max_broadcast_nodes``
    (2·|edges| bound) the vectors move off the driver into the bucketed
    Dataset iteration (``_hits_bucketed``); force 0 to always bucket.
    Fixed ``n_iters`` keeps the output a pure function of topology, so the
    SQL oracle unrolls the identical recurrence (``oracle.hits_sql``)."""
    import collections

    edges = edges.materialize()  # consumed 2·n_iters times
    if 2 * edges.count() > max_broadcast_nodes:
        return _hits_bucketed(
            edges, src=src, dst=dst, weight=weight, n_iters=n_iters,
            n_buckets=n_buckets,
        )

    def ends_partial(batch: pa.Table) -> pa.Table:
        vals = {str(x) for x in batch[src].to_pylist()}
        vals |= {str(x) for x in batch[dst].to_pylist()}
        return pa.table({"node": pa.array(sorted(vals), type=pa.string())})

    nodes = sorted(
        {
            r["node"]
            for r in edges.map_batches(
                ends_partial, batch_format="pyarrow"
            ).take_all()
        }
    )
    if not nodes:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=pa.string()),
                    "hub": pa.array([], type=pa.float64()),
                    "authority": pa.array([], type=pa.float64()),
                }
            )
        )

    def fold_pass(scores_ref, from_col: str, to_col: str) -> dict:
        def partial(batch: pa.Table) -> pa.Table:
            sc = ray.get(scores_ref)
            f = [str(x) for x in batch[from_col].to_pylist()]
            t = [str(x) for x in batch[to_col].to_pylist()]
            w = (
                batch[weight].to_numpy(zero_copy_only=False).astype(
                    np.float64
                )
                if weight is not None
                else np.ones(len(f))
            )
            acc: dict = {}
            for fi, ti, wi in zip(f, t, w):
                acc[ti] = acc.get(ti, 0.0) + sc[fi] * wi
            return pa.table(
                {
                    "node": pa.array(list(acc)),
                    "x": pa.array(list(acc.values()), type=pa.float64()),
                }
            )

        folded: dict = collections.defaultdict(float)
        for r in edges.map_batches(partial, batch_format="pyarrow").take_all():
            folded[r["node"]] += r["x"]
        return folded

    def normalized(folded: dict) -> dict:
        z = float(np.sqrt(sum(v * v for v in folded.values())))
        if z == 0.0:
            return {v: 0.0 for v in nodes}
        return {v: folded.get(v, 0.0) / z for v in nodes}

    hub = {v: 1.0 for v in nodes}
    auth = {v: 0.0 for v in nodes}
    for _ in range(n_iters):
        auth = normalized(fold_pass(ray.put(hub), src, dst))
        hub = normalized(fold_pass(ray.put(auth), dst, src))

    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, type=pa.string()),
                "hub": pa.array([hub[v] for v in nodes], type=pa.float64()),
                "authority": pa.array(
                    [auth[v] for v in nodes], type=pa.float64()
                ),
            }
        )
    )


def _kcore_bucketed(
    edges: ray.data.Dataset,
    src: str,
    dst: str,
    k: int,
    n_rounds: int,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Distributed-state k-core peeling: the surviving edge set shrinks in
    place (alive sets are monotone decreasing, so filtering the current
    induced subgraph equals re-masking the original), degrees are one
    bucketed exchange per round and the two endpoint filters are semi
    joins — no driver-side alive set.  Returns (entity, deg): every node
    of the final induced subgraph with its induced degree, identical to
    the broadcast ``k_core`` table."""
    from .join import shuffle_semi_join
    from .rollup import grouped_agg

    e = _norm_edges(edges, src, dst)

    def ends(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch["u"].combine_chunks(),
                        batch["v"].combine_chunks(),
                    ]
                )
            }
        )
        g = t.group_by(["node"]).aggregate([([], "count_all")])
        return g.rename_columns(["node", "deg"])

    def degrees(edges_ds: ray.data.Dataset) -> ray.data.Dataset:
        return grouped_agg(
            edges_ds.map_batches(ends, batch_format="pyarrow"),
            keys=["node"],
            aggs={"deg": ("deg", "sum")},
            n_buckets=n_buckets,
            partial=True,
        )

    for _ in range(n_rounds):
        alive = (
            degrees(e)
            .filter(expr=f"deg >= {k}")
            .select_columns(["node"])
            .materialize()
        )
        for end in ("u", "v"):
            e = shuffle_semi_join(
                e,
                alive.map_batches(
                    lambda b, _e=end: b.rename_columns([_e]),
                    batch_format="pyarrow",
                ),
                keys=end,
                n_buckets=n_buckets,
                left_schema={"u": pa.string(), "v": pa.string()},
            )
        # coalesce: two semi-join exchanges per round otherwise compound
        # the edge table's block count
        e = e.repartition(n_buckets).materialize()

    return degrees(e).map_batches(
        lambda b: pa.table(
            {
                "entity": b["node"],
                "deg": pc.cast(b["deg"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def bfs_levels(
    edges: ray.data.Dataset,
    seed: str,
    src: str = "subj",
    dst: str = "obj",
    max_iters: int = 32,
    max_broadcast_nodes: int = 2_000_000,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Single-source BFS shortest-path levels → (node, dist).

    Broadcast-iteration pattern (same contract as ``pagerank``): the
    frontier set broadcasts via ``ray.put`` each round while the edge set
    streams; each edge batch emits the DISTINCT neighbors of frontier
    sources (per-batch combiner), the driver folds them, subtracts the
    visited set, and re-broadcasts.  Driver state is O(|V|) — right when
    the node table is entity-sized (≪ edges); for node tables beyond
    driver memory, swap the fold for a per-round bucketed distinct + anti
    join against visited (same semantics, two wide ops per round).
    Directed reachability; pass both orientations for undirected graphs.
    Terminates when the frontier empties (``max_iters`` is a safety
    bound).  Above ``max_broadcast_nodes`` (2·|edges| as the node-count
    upper bound) the per-node state moves off the driver into the bucketed
    Dataset iteration (``_bfs_bucketed``); force 0 to always bucket."""
    edges = edges.materialize()  # re-streamed once per BFS level
    if 2 * edges.count() > max_broadcast_nodes:
        return _bfs_bucketed(
            edges, seed, src=src, dst=dst, max_iters=max_iters,
            n_buckets=n_buckets,
        )
    dist: dict = {str(seed): 0}
    frontier = {str(seed)}
    level = 0
    while frontier and level < max_iters:
        level += 1
        fref = ray.put(frontier)

        def nbrs(batch: pa.Table, _f=fref) -> pa.Table:
            f = ray.get(_f)
            s = [str(x) for x in batch[src].to_pylist()]
            d = [str(x) for x in batch[dst].to_pylist()]
            out = sorted({di for si, di in zip(s, d) if si in f})
            return pa.table({"node": pa.array(out, type=pa.string())})

        nxt: set = set()
        for row in edges.map_batches(nbrs, batch_format="pyarrow").take_all():
            nxt.add(row["node"])
        frontier = {v for v in nxt if v not in dist}
        for v in frontier:
            dist[v] = level
    nodes = sorted(dist)
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, type=pa.string()),
                "dist": pa.array(
                    [dist[v] for v in nodes], type=pa.int64()
                ),
            }
        )
    )


def label_propagation(
    edges: ray.data.Dataset,
    src: str = "subj",
    dst: str = "obj",
    weight: str | None = None,
    n_iters: int = 4,
    n_buckets: int = 32,
    max_broadcast_nodes: int = 2_000_000,
) -> ray.data.Dataset:
    """Synchronous weighted label propagation → (node, community).

    Community detection over the materialized KG (Raghavan et al. 2007,
    made deterministic): every node starts as its own label; each round,
    node v adopts the label with the largest incoming edge-weight vote —
    ties break to the smallest label — and all nodes update TOGETHER
    (synchronous), so the result is a pure function of the topology, with
    no RNG and no visit order.  Fixed ``n_iters`` rounds keep it
    SQL-mirrorable (the oracle unrolls the same rounds as chained CTEs,
    like ``oracle.pagerank_sql``).

    Same broadcast-iteration shape as ``pagerank``: labels (node-table
    bounded, ≪ edge count in a KG) broadcast via ``ray.put`` per round;
    edge batches pre-aggregate votes per (dst, label) — one partial row
    per distinct pair per batch — and the driver folds O(|V|) state.  For
    node tables beyond driver memory, the documented swap is identical to
    pagerank's: bucketed groupby-sum on (dst, label) + a shuffle join of
    labels onto edges, two wide ops per round, same votes.

    Undirected graphs should pass both edge orientations (as with
    ``pagerank``); a node with no incoming edges keeps its label.
    Above ``max_broadcast_nodes`` the label table moves off the driver
    into the bucketed Dataset iteration (``_lpa_bucketed``); force 0 to
    always bucket.
    """
    edges = edges.materialize()  # consumed n_iters times
    if 2 * edges.count() > max_broadcast_nodes:
        return _lpa_bucketed(
            edges, src=src, dst=dst, weight=weight, n_iters=n_iters,
            n_buckets=n_buckets,
        )

    def node_partial(batch: pa.Table) -> pa.Table:
        s = {str(x) for x in batch[src].to_pylist()}
        d = {str(x) for x in batch[dst].to_pylist()}
        return pa.table({"node": pa.array(sorted(s | d), type=pa.string())})

    nodes: set = set()
    for row in edges.map_batches(node_partial, batch_format="pyarrow").take_all():
        nodes.add(row["node"])
    labels = {v: v for v in sorted(nodes)}
    if not nodes:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=pa.string()),
                    "community": pa.array([], type=pa.string()),
                }
            )
        )

    for _ in range(n_iters):
        lref = ray.put(labels)

        def vote_partial(batch: pa.Table, _l=lref) -> pa.Table:
            lab = ray.get(_l)
            s = [str(x) for x in batch[src].to_pylist()]
            d = [str(x) for x in batch[dst].to_pylist()]
            if weight is None:
                w = np.ones(len(s), dtype=np.float64)
            else:
                w = batch[weight].to_numpy(zero_copy_only=False).astype(
                    np.float64
                )
            acc: dict = {}
            for si, di, wi in zip(s, d, w):
                k = (di, lab[si])
                acc[k] = acc.get(k, 0.0) + wi
            ks = list(acc.keys())
            return pa.table(
                {
                    "node": pa.array([k[0] for k in ks], type=pa.string()),
                    "label": pa.array([k[1] for k in ks], type=pa.string()),
                    "w": pa.array(list(acc.values()), type=pa.float64()),
                }
            )

        votes: dict = {}
        for row in edges.map_batches(
            vote_partial, batch_format="pyarrow"
        ).take_all():
            k = (row["node"], row["label"])
            votes[k] = votes.get(k, 0.0) + row["w"]
        best: dict = {}
        for (node, label), w in votes.items():
            cur = best.get(node)
            if cur is None or (-w, label) < (-cur[0], cur[1]):
                best[node] = (w, label)
        labels = {
            v: (best[v][1] if v in best else old)
            for v, old in labels.items()
        }

    ordered = sorted(labels)
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(ordered, type=pa.string()),
                "community": pa.array(
                    [labels[v] for v in ordered], type=pa.string()
                ),
            }
        )
    )


def k_core(
    edges: ray.data.Dataset,
    src: str = "subj",
    dst: str = "obj",
    k: int = 3,
    n_rounds: int = 6,
    max_broadcast_nodes: int = 2_000_000,
    n_buckets: int = 32,
) -> pa.Table:
    """Synchronous k-core peeling: each round drops every node whose degree
    in the surviving induced subgraph is < ``k``; survivors after
    ``n_rounds`` come back with their final induced degree.

    Above ``max_broadcast_nodes`` (2·|edges| bound) the alive set moves off
    the driver into the bucketed Dataset iteration (``_kcore_bucketed`` —
    the surviving EDGE set shrinks in place, degrees are one exchange per
    round, endpoint filters are semi joins); force 0 to always bucket.
    The returned table is the survivors — driver-sized by construction for
    the k/n_rounds regimes queries use; callers needing a Dataset at scale
    can use ``_kcore_bucketed`` directly.

    Same broadcast-iteration contract as ``pagerank`` / ``bfs_levels`` /
    ``label_propagation``: the ALIVE SET is node-vocabulary-bounded and
    broadcasts once per round; the edge stream is touched once per round
    with a vectorized isin mask + unique-count fold — only (node, deg)
    partials bounded by the vocabulary reach the driver.  The round count
    is FIXED (fixpoint typically arrives earlier) so the output is a pure
    function of the topology and the SQL oracle can unroll the identical
    recurrence; non-converged inputs produce the same t-round answer on
    both sides.  Edges must be given in ONE orientation (src < dst);
    degrees count both endpoints.
    """
    edges = edges.materialize()  # consumed n_rounds + 1 times
    if 2 * edges.count() > max_broadcast_nodes:
        out = _kcore_bucketed(
            edges, src=src, dst=dst, k=k, n_rounds=n_rounds,
            n_buckets=n_buckets,
        ).sort("entity")
        # drop empty blocks: the sort emits them with a schemaless shell
        tables = [
            t
            for t in (ray.get(r) for r in out.to_arrow_refs())
            if t.num_rows > 0
        ] or [
            pa.table(
                {
                    "entity": pa.array([], type=pa.string()),
                    "deg": pa.array([], type=pa.int64()),
                }
            )
        ]
        return pa.concat_tables(tables).combine_chunks()

    def degree_fold(alive_arr: np.ndarray | None) -> dict:
        ref = ray.put(alive_arr)

        def partial(batch: pa.Table) -> pa.Table:
            alive = ray.get(ref)
            s = np.asarray(batch[src].to_pylist(), dtype=object)
            o = np.asarray(batch[dst].to_pylist(), dtype=object)
            if alive is not None:
                m = np.isin(s, alive) & np.isin(o, alive)
                s, o = s[m], o[m]
            nodes, counts = np.unique(
                np.concatenate([s, o]), return_counts=True
            )
            # explicit types: an all-filtered batch must not emit a
            # null-typed empty column (block schema unification)
            return pa.table(
                {
                    "node": pa.array(
                        [str(x) for x in nodes], type=pa.string()
                    ),
                    "deg": pa.array(
                        counts.astype(np.int64), type=pa.int64()
                    ),
                }
            )

        folded: dict = {}
        for r in edges.map_batches(
            partial, batch_format="pyarrow"
        ).take_all():
            folded[r["node"]] = folded.get(r["node"], 0) + r["deg"]
        return folded

    # round 1's degrees over the all-nodes alive set equal the unfiltered
    # fold, so the first pass doubles as node discovery
    deg = degree_fold(None)
    alive = np.array(
        sorted(n for n, d in deg.items() if d >= k), dtype=object
    )
    for _ in range(n_rounds - 1):
        deg = degree_fold(alive)
        alive = np.array(
            sorted(n for n, d in deg.items() if d >= k), dtype=object
        )
    final = degree_fold(alive)
    nodes = sorted(final)
    return pa.table(
        {
            "entity": pa.array([str(n) for n in nodes], type=pa.string()),
            "deg": pa.array(
                [int(final[n]) for n in nodes], type=pa.int64()
            ),
        }
    )


def sssp_weighted(
    edges: ray.data.Dataset,
    seed: str,
    src: str = "subj",
    dst: str = "obj",
    weight: str = "w",
    max_iters: int = 12,
    max_broadcast_nodes: int = 2_000_000,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Round-bounded weighted single-source shortest paths → (node, dist).

    Bellman-Ford as frontier iteration (the weighted sibling of
    ``bfs_levels``): each round broadcasts the map of nodes improved last
    round; the streaming edge pass relaxes their out-edges with a
    per-batch min combiner; the driver folds mins and keeps strict
    improvements.  After ``r`` rounds dist[v] is EXACTLY the minimum cost
    over paths of ≤ r edges — a well-defined result even before
    convergence, which makes the operator reproducible bit-for-bit at any
    iteration budget (the SQL oracle unrolls the same bound).  Integer
    weights keep all arithmetic exact.  Driver state is O(|V|), the same
    contract as ``bfs_levels`` / ``pagerank``; terminates early when no
    node improves.  Above ``max_broadcast_nodes`` the distance table moves
    off the driver into the bucketed Dataset iteration
    (``_sssp_bucketed``); force 0 to always bucket."""
    edges = edges.materialize()  # re-streamed once per relaxation round
    if 2 * edges.count() > max_broadcast_nodes:
        return _sssp_bucketed(
            edges, seed, src=src, dst=dst, weight=weight,
            max_iters=max_iters, n_buckets=n_buckets,
        )
    dist: dict = {str(seed): 0}
    changed: dict = {str(seed): 0}
    it = 0
    while changed and it < max_iters:
        it += 1
        cref = ray.put(changed)

        def relax(batch: pa.Table, _c=cref) -> pa.Table:
            c = ray.get(_c)
            s = [str(x) for x in batch[src].to_pylist()]
            d = [str(x) for x in batch[dst].to_pylist()]
            w = batch[weight].to_pylist()
            best: dict = {}
            for si, di, wi in zip(s, d, w):
                if si in c:
                    nd = c[si] + int(wi)
                    if di not in best or nd < best[di]:
                        best[di] = nd
            ks = sorted(best)
            return pa.table(
                {
                    "node": pa.array(ks, type=pa.string()),
                    "d": pa.array([best[k] for k in ks], type=pa.int64()),
                }
            )

        cand: dict = {}
        for row in edges.map_batches(relax, batch_format="pyarrow").take_all():
            v, dv = row["node"], row["d"]
            if v not in cand or dv < cand[v]:
                cand[v] = dv
        changed = {
            v: dv for v, dv in cand.items() if v not in dist or dv < dist[v]
        }
        dist.update(changed)
    nodes = sorted(dist)
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, type=pa.string()),
                "dist": pa.array([dist[v] for v in nodes], type=pa.int64()),
            }
        )
    )


def random_walks(
    edges: ray.data.Dataset,
    src: str = "subj",
    dst: str = "obj",
    n_walks: int = 2,
    walk_len: int = 4,
    max_broadcast_nodes: int = 2_000_000,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Deterministic DeepWalk-style walk corpus → (start, walk, step, node).

    From every node with out-degree ≥ 1, ``n_walks`` walks of ``walk_len``
    hops; the next hop from ``u`` at step ``h`` in walk ``w`` is the
    out-neighbor ``v`` minimizing ``stable_hash_u64(f"{u}|{h}|{w}|{v}")``
    (ties break to the smaller ``v``) — a hash-derandomized uniform
    choice, so the corpus is a pure function of the topology and the SQL
    oracle can replay it (argmin per partition).  Because the choice
    depends only on (u, h, w), walks that collide at the same node at the
    same step with the same walk id continue identically — the usual
    derandomization trade-off, documented here and mirrored in SQL.

    Directed hops; pass both orientations for undirected graphs (then
    every node has a successor and walks never stall).  Broadcast path:
    the distinct current-node set ships via ``ray.put`` each step while
    edges stream with a per-batch argmin combiner (driver state is
    O(|V| · n_walks) — entity-vocabulary bounded, same contract as
    ``bfs_levels``).  Above ``max_broadcast_nodes`` the per-walk state
    moves into a bucketed Dataset iteration: one ``shuffle_join`` keyed
    by the current node per step, the argmin folded into the join bucket.
    Force 0 to always bucket."""
    from ..functions.hashing import stable_hash_u64

    edges = _norm_edges(edges, src, dst)
    if 2 * edges.count() > max_broadcast_nodes:
        return _random_walks_bucketed(
            edges, n_walks=n_walks, walk_len=walk_len, n_buckets=n_buckets
        )

    # starts: distinct sources (both-orientation input → every node)
    starts = sorted(
        r["u"]
        for r in edges.groupby("u").count().select_columns(["u"]).take_all()
    )
    # state: (start, w) -> current node; trajectory rows accumulate
    state = {(s, w): s for s in starts for w in range(n_walks)}
    rows = [(s, w, 0, s) for (s, w) in state]
    for h in range(1, walk_len + 1):
        curset = {c for c in state.values()}
        cref = ray.put(curset)

        def step_partial(
            batch: pa.Table, _c=cref, _h=h, _W=n_walks
        ) -> pa.Table:
            cs = ray.get(_c)
            u = batch["u"].to_numpy(zero_copy_only=False)
            v = batch["v"].to_numpy(zero_copy_only=False)
            keep = np.isin(u, list(cs))
            u, v = u[keep], v[keep]
            out_u, out_w, out_v, out_k = [], [], [], []
            if len(u):
                for w in range(_W):
                    keys = [
                        f"{ui}|{_h}|{w}|{vi}" for ui, vi in zip(u, v)
                    ]
                    hk = stable_hash_u64(keys)
                    df = pd.DataFrame(
                        {"u": u, "v": v, "hk": hk}
                    ).sort_values(["hk", "v"], kind="mergesort")
                    first = df.groupby("u", sort=False).head(1)
                    out_u.extend(first["u"])
                    out_w.extend([w] * len(first))
                    out_v.extend(first["v"])
                    out_k.extend(first["hk"])
            return pa.table(
                {
                    "u": pa.array(out_u, type=pa.string()),
                    "w": pa.array(out_w, type=pa.int64()),
                    "v": pa.array(out_v, type=pa.string()),
                    "hk": pa.array(
                        np.asarray(out_k, dtype=np.uint64), type=pa.uint64()
                    ),
                }
            )

        nxt: dict = {}
        for r in edges.map_batches(
            step_partial, batch_format="pyarrow"
        ).take_all():
            k = (r["u"], r["w"])
            cand = (r["hk"], r["v"])
            if k not in nxt or cand < nxt[k]:
                nxt[k] = cand
        for key in list(state):
            s, w = key
            got = nxt.get((state[key], w))
            if got is not None:
                state[key] = got[1]
                rows.append((s, w, h, got[1]))
    rows.sort()
    return ray.data.from_arrow(
        pa.table(
            {
                "start": pa.array([r[0] for r in rows], type=pa.string()),
                "walk": pa.array([r[1] for r in rows], type=pa.int64()),
                "step": pa.array([r[2] for r in rows], type=pa.int64()),
                "node": pa.array([r[3] for r in rows], type=pa.string()),
            }
        )
    )


def _random_walks_bucketed(
    edges: ray.data.Dataset,
    n_walks: int,
    walk_len: int,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Distributed-state walk corpus: the (start, walk, cur) table is a
    Dataset; each step is ONE bucketed ``shuffle_join`` keyed by the
    current node, with the per-(start, walk) argmin folded into the join
    bucket (every out-edge of a node lands in that node's bucket, so the
    argmin is exact per bucket).  O(1) driver state."""
    from ..functions.hashing import stable_hash_u64
    from .join import shuffle_join

    e = edges.map_batches(
        lambda b: b.rename_columns(["cur", "v"]), batch_format="pyarrow"
    ).materialize()
    starts = (
        e.groupby("cur")
        .count()
        .select_columns(["cur"])
        .map_batches(
            lambda b: pa.table(
                {
                    "start": pc.cast(
                        pa.concat_arrays(
                            [b["cur"].combine_chunks()] * n_walks
                        ),
                        pa.string(),
                    ),
                    "walk": pa.array(
                        np.concatenate(
                            [np.full(len(b), w) for w in range(n_walks)]
                        ),
                        type=pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    state = starts.map_batches(
        lambda b: b.append_column("cur", pc.cast(b["start"], pa.string())),
        batch_format="pyarrow",
    ).materialize()
    traj = [
        state.map_batches(
            lambda b: pa.table(
                {
                    "start": b["start"],
                    "walk": b["walk"],
                    "step": pa.array(
                        np.zeros(len(b), dtype=np.int64), type=pa.int64()
                    ),
                    "node": b["cur"],
                }
            ),
            batch_format="pyarrow",
        )
    ]
    for h in range(1, walk_len + 1):

        def pick(joined: pa.Table, _h=h) -> pa.Table:
            df = joined.to_pandas()
            if not len(df):
                return pa.table(
                    {
                        "start": pa.array([], type=pa.string()),
                        "walk": pa.array([], type=pa.int64()),
                        "cur": pa.array([], type=pa.string()),
                    }
                )
            keys = [
                f"{u}|{_h}|{w}|{v}"
                for u, w, v in zip(df["cur"], df["walk"], df["v"])
            ]
            df = df.assign(hk=stable_hash_u64(keys)).sort_values(
                ["hk", "v"], kind="mergesort"
            )
            first = df.groupby(["start", "walk"], sort=False).head(1)
            return pa.table(
                {
                    "start": pa.array(first["start"], type=pa.string()),
                    "walk": pa.array(
                        first["walk"].to_numpy(np.int64), type=pa.int64()
                    ),
                    "cur": pa.array(first["v"], type=pa.string()),
                }
            )

        state = shuffle_join(
            state,
            e,
            keys="cur",
            n_buckets=n_buckets,
            left_schema={
                "start": pa.string(),
                "walk": pa.int64(),
                "cur": pa.string(),
            },
            right_schema={"cur": pa.string(), "v": pa.string()},
            bucket_post=pick,
        ).materialize()
        traj.append(
            state.map_batches(
                lambda b, _h=h: pa.table(
                    {
                        "start": b["start"],
                        "walk": b["walk"],
                        "step": pa.array(
                            np.full(len(b), _h, dtype=np.int64),
                            type=pa.int64(),
                        ),
                        "node": b["cur"],
                    }
                ),
                batch_format="pyarrow",
            )
        )
    out = traj[0]
    for t in traj[1:]:
        out = out.union(t)
    return out


def min_spanning_forest(
    edges: ray.data.Dataset,
    src: str = "subj",
    dst: str = "obj",
    weight: str = "w",
    n_buckets: int = 32,
    max_iters: int = 32,
) -> ray.data.Dataset:
    """Deterministic minimum spanning forest (Borůvka) → (subj, obj, w).

    Edges are undirected and distinct per (src, dst); the total order
    (w, src, dst) makes the MSF unique, so the SQL oracle can verify via
    the cycle property (an edge is in the forest iff its endpoints are
    NOT connected using strictly smaller edges only).

    Fully distributed state — no driver-side union-find: per round, the
    component labels (a Dataset) join onto both edge endpoints (two
    bucketed ``shuffle_join``s), each component picks its minimum
    crossing edge with a bucketed lexicographic ``argmax_dedup``, and
    the chosen edges' component pairs contract through the existing
    bucketed ``connected_components`` (the contracted graph is
    component-count sized and halves every round, so rounds ≤ log₂\\|V\\|).
    Driver state is one crossing-edge count per round."""
    import pandas as pd

    from ..stages.dedup import argmax_dedup, exact_dedup
    from .join import shuffle_join

    e = edges.map_batches(
        lambda b: pa.table(
            {
                "u": pc.cast(b[src], pa.string()),
                "v": pc.cast(b[dst], pa.string()),
                "w": pc.cast(b[weight], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    labels = exact_dedup(
        e.map_batches(
            lambda b: pa.table(
                {
                    "node": pa.concat_arrays(
                        [b["u"].combine_chunks(), b["v"].combine_chunks()]
                    )
                }
            ),
            batch_format="pyarrow",
        ),
        ["node"],
        n_buckets=n_buckets,
    ).map_batches(
        lambda b: b.append_column("comp", b["node"]),
        batch_format="pyarrow",
    ).materialize()

    chosen_rounds: list[ray.data.Dataset] = []
    for _ in range(max_iters):
        with_cu = shuffle_join(
            e.map_batches(
                lambda b: b.rename_columns(["node", "v", "w"]),
                batch_format="pyarrow",
            ),
            labels.map_batches(
                lambda b: b.rename_columns(["node", "cu"]),
                batch_format="pyarrow",
            ),
            keys="node",
            n_buckets=n_buckets,
            left_schema={
                "node": pa.string(), "v": pa.string(), "w": pa.int64()
            },
            right_schema={"node": pa.string(), "cu": pa.string()},
        ).map_batches(
            lambda b: pa.table(
                {
                    "u": b["node"], "node": b["v"], "w": b["w"],
                    "cu": b["cu"],
                }
            ),
            batch_format="pyarrow",
        )
        cross = shuffle_join(
            with_cu,
            labels.map_batches(
                lambda b: b.rename_columns(["node", "cv"]),
                batch_format="pyarrow",
            ),
            keys="node",
            n_buckets=n_buckets,
            left_schema={
                "u": pa.string(), "node": pa.string(), "w": pa.int64(),
                "cu": pa.string(),
            },
            right_schema={"node": pa.string(), "cv": pa.string()},
            bucket_post=lambda t: t.filter(
                pc.not_equal(t["cu"], t["cv"])
            ),
        ).map_batches(
            lambda b: pa.table(
                {
                    "u": b["u"], "v": b["node"], "w": b["w"],
                    "cu": b["cu"], "cv": b["cv"],
                }
            ),
            batch_format="pyarrow",
        ).materialize()
        if cross.count() == 0:
            break
        # each crossing edge is a candidate for BOTH its components
        cand = cross.map_batches(
            lambda b: pa.table(
                {
                    "comp": pa.concat_arrays(
                        [b["cu"].combine_chunks(), b["cv"].combine_chunks()]
                    ),
                    "w": pa.concat_arrays(
                        [b["w"].combine_chunks()] * 2
                    ),
                    "u": pa.concat_arrays(
                        [b["u"].combine_chunks()] * 2
                    ),
                    "v": pa.concat_arrays(
                        [b["v"].combine_chunks()] * 2
                    ),
                    "cu": pa.concat_arrays(
                        [b["cu"].combine_chunks()] * 2
                    ),
                    "cv": pa.concat_arrays(
                        [b["cv"].combine_chunks()] * 2
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        chosen = argmax_dedup(
            cand, ["comp"], ["w", "u", "v"],
            n_buckets=n_buckets, descending=False,
        ).materialize()
        chosen_rounds.append(
            exact_dedup(
                chosen.select_columns(["u", "v", "w"]),
                ["u", "v"],
                n_buckets=n_buckets,
            )
        )
        # contract: relabel components through the chosen component pairs
        relabel = connected_components(
            chosen.select_columns(["cu", "cv"]),
            src="cu",
            dst="cv",
            n_buckets=n_buckets,
        )

        def merge_lab(t: pa.Table) -> pa.Table:
            df = t.to_pandas()
            newc = df["newc"].where(df["newc"].notna(), df["comp"])
            return pa.table(
                {
                    "node": pa.array(df["node"], type=pa.string()),
                    "comp": pa.array(newc, type=pa.string()),
                }
            )

        labels = shuffle_join(
            labels.map_batches(
                lambda b: b.rename_columns(["node", "key"]),
                batch_format="pyarrow",
            ).map_batches(
                lambda b: pa.table(
                    {"node": b["node"], "comp": b["key"], "key": b["key"]}
                ),
                batch_format="pyarrow",
            ),
            relabel.map_batches(
                lambda b: pa.table(
                    {"key": b["node"], "newc": b["component"]}
                ),
                batch_format="pyarrow",
            ),
            keys="key",
            n_buckets=n_buckets,
            join_type="left outer",
            left_schema={
                "node": pa.string(), "comp": pa.string(),
                "key": pa.string(),
            },
            right_schema={"key": pa.string(), "newc": pa.string()},
            bucket_post=merge_lab,
        ).materialize()
    else:
        raise RuntimeError("min_spanning_forest did not converge")

    if not chosen_rounds:
        return ray.data.from_arrow(
            pa.table(
                {
                    "subj": pa.array([], type=pa.string()),
                    "obj": pa.array([], type=pa.string()),
                    "w": pa.array([], type=pa.int64()),
                }
            )
        )
    out = chosen_rounds[0]
    for t in chosen_rounds[1:]:
        out = out.union(t)
    return exact_dedup(out, ["u", "v"], n_buckets=n_buckets).map_batches(
        lambda b: b.rename_columns(["subj", "obj", "w"]),
        batch_format="pyarrow",
    )


def transitive_closure(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_buckets: int = 16,
    max_rounds: int = 20,
) -> ray.data.Dataset:
    """All-pairs reachability over a directed edge Dataset via iterative
    path DOUBLING: R_{k+1} = R_k ∪ (R_k ∘ R_k), so after k rounds every
    path of length ≤ 2^k is covered — O(log diameter) exchanges instead
    of the O(diameter) rounds of one-edge-at-a-time expansion (the
    recursive-CTE plan the SQL oracle runs).

    Each round is ONE mid-node-keyed ``shuffle_join`` (R.dst against
    R.src, composition deduped inside the join bucket) plus one bucketed
    ``exact_dedup`` of the union; the closure is materialized between
    rounds (an iterative fixpoint re-reads its own output) and the
    fixpoint test is a row count — the closure only grows, so count
    stability IS set stability.  A node reaches itself only via a real
    cycle (closure over paths of length ≥ 1).

    Scale: the output is Θ(Σ_v |reach(v)|) — this operator is for
    dependency DAGs / call graphs whose reach sets are bounded, not for
    a single giant component where the closure goes quadratic.  Per-round
    shuffle volume is O(|R|) and hot mid-nodes spread across hash
    buckets; ``max_rounds`` = 20 covers any diameter up to 2^20.
    """
    from .dedup import batch_local_dedup, exact_dedup
    from .join import shuffle_join

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"src": b[src], "dst": b[dst]})

    # Coalesce to n_buckets blocks at every materialization: the sort-based
    # bucket exchange costs O(blocks²) scheduling, and the per-round union
    # would otherwise compound block counts round over round.
    reach = (
        exact_dedup(
            batch_local_dedup(
                edges.map_batches(project, batch_format="pyarrow"),
                ["src", "dst"],
            ),
            ["src", "dst"],
            n_buckets=n_buckets,
        )
        .repartition(n_buckets)
        .materialize()
    )
    n = reach.count()
    if n == 0:
        return reach
    _s = reach.schema()
    id_type = _s.types[_s.names.index("src")]

    def as_left(b: pa.Table) -> pa.Table:
        # (src, mid): rows whose dst is the composition midpoint
        return pa.table({"mid": b["dst"], "src": b["src"]})

    def as_right(b: pa.Table) -> pa.Table:
        return pa.table({"mid": b["src"], "dst": b["dst"]})

    def distinct_pairs(joined: pa.Table) -> pa.Table:
        t = joined.select(["src", "dst"])
        return t.group_by(["src", "dst"]).aggregate([])

    for _ in range(max_rounds):
        new = shuffle_join(
            reach.map_batches(as_left, batch_format="pyarrow"),
            reach.map_batches(as_right, batch_format="pyarrow"),
            keys="mid",
            n_buckets=n_buckets,
            left_schema={"mid": id_type, "src": id_type},
            right_schema={"mid": id_type, "dst": id_type},
            bucket_post=distinct_pairs,
        )
        reach = (
            exact_dedup(
                reach.union(new), ["src", "dst"], n_buckets=n_buckets
            )
            .repartition(n_buckets)
            .materialize()
        )
        m = reach.count()
        if m == n:
            break
        n = m
    else:
        raise RuntimeError(
            f"transitive_closure did not converge in {max_rounds} rounds"
        )
    return reach


def strongly_connected_components(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_buckets: int = 16,
    max_rounds: int = 20,
    closure: "ray.data.Dataset | None" = None,
) -> ray.data.Dataset:
    """SCC labels over a directed edge Dataset → (node, scc) with
    ``scc`` = the minimum node id of the mutual-reachability class
    (condensing a call/dependency graph into its cycle classes — the
    step before any topological processing of a KG with cycles).

    Built on ``transitive_closure`` (paths ≥ 1): u and v are in the same
    SCC iff both (u, v) and (v, u) are in the closure.  Mutual pairs are
    detected with ONE bucketed exchange — every closure row maps to its
    unordered key (a, b) = (min, max) plus a direction bit, buckets hash
    on ``a`` alone (both directions of a pair share it), and a per-bucket
    vectorized pass keeps pairs seen in both directions.  Labels are a
    grouped min over peer contributions plus self rows.

    Inherits the closure's scale contract: sized for graphs whose reach
    sets are bounded (call graphs, dependency DAGs with small cycle
    classes), NOT a single giant component over the whole corpus.
    Bucketing mutual detection by the pair minimum concentrates a hub
    min-node's pairs in one bucket; acceptable because the mutual table
    is bounded by Σ|SCC|², already the operator's scale limit.
    """
    from .rollup import grouped_agg

    # callers that also need the closure (e.g. bow-tie regions) pass it in
    # to pay the doubling rounds once
    reach = (
        closure
        if closure is not None
        else transitive_closure(
            edges, src=src, dst=dst, n_buckets=n_buckets, max_rounds=max_rounds
        )
    )
    _s = reach.schema()
    if _s is None or reach.count() == 0:
        # closure empty ⇔ edge set empty (length-1 paths are in the
        # closure): an edge-free graph has no labeled nodes
        es = edges.schema()
        id_type = (
            es.types[es.names.index(src)]
            if es is not None and src in es.names
            else pa.string()
        )
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=id_type),
                    "scc": pa.array([], type=id_type),
                }
            )
        )
    id_type = _s.types[_s.names.index("src")]

    def unordered(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        fwd = s < d
        a = np.where(fwd, s, d)
        bb = np.where(fwd, d, s)
        return pa.table(
            {
                "a": pa.array(a, type=id_type),
                "b": pa.array(bb, type=id_type),
                "fwd": pa.array(fwd, type=pa.bool_()),
            }
        )

    def mutual_pairs(group: pd.DataFrame) -> pd.DataFrame:
        # distinct (a, b, fwd); pairs present with BOTH direction bits are
        # mutual — emit peer contributions in both orders
        g = group[["a", "b", "fwd"]].drop_duplicates()
        counts = g.groupby(["a", "b"], sort=False)["fwd"].transform("size")
        both = g[counts == 2].drop_duplicates(["a", "b"])
        return pd.DataFrame(
            {
                "node": np.concatenate([both["a"].to_numpy(), both["b"].to_numpy()]),
                "peer": np.concatenate([both["b"].to_numpy(), both["a"].to_numpy()]),
            }
        )

    contrib = keyed_exchange(
        reach.map_batches(unordered, batch_format="pyarrow"),
        ["a"],
        mutual_pairs,
        n_buckets,
        batch_format="pandas",
    )

    def self_rows(b: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays(
            [b[src].cast(id_type).combine_chunks(), b[dst].cast(id_type).combine_chunks()]
        )
        return pa.table({"node": nodes, "peer": nodes})

    return grouped_agg(
        edges.map_batches(self_rows, batch_format="pyarrow").union(contrib),
        keys=["node"],
        aggs={"scc": ("peer", "min")},
        n_buckets=n_buckets,
        partial=True,
    )


def dag_longest_levels(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_buckets: int = 16,
    max_rounds: int = 64,
) -> ray.data.Dataset:
    """Longest-path layering of a DAG → (node, level): sources (no
    incoming edge) at level 0, every other node at 1 + max over its
    predecessors — the topological strata of a condensation / dependency
    graph (build scheduling, KG ontology depth).

    Iterative max-relaxation with fully distributed state, the max twin
    of ``_sssp_bucketed``: lev₀ ≡ 0, lev_{k+1}(v) = max(lev_k(v),
    1 + max_{u→v} lev_k(u)).  Per round ONE src-keyed ``shuffle_join``
    (per-bucket max combiner folded in), one grouped max, one tagged
    per-bucket merge keeping strict improvements; a DAG of longest-path
    depth ≤ ``max_rounds`` always converges (the loop budgets two extra
    rounds: one drain where the deepest frontier has no out-edges, one
    empty-frontier detection) and anything still improving past that
    raises — a cycle never converges, so feed condensation output, not
    raw edges.
    """
    from .dedup import exact_dedup
    from .join import shuffle_join
    from .rollup import grouped_agg

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"u": b[src], "v": b[dst]})

    e = (
        edges.map_batches(project, batch_format="pyarrow")
        .repartition(n_buckets)
        .materialize()
    )
    _s = e.schema()
    if _s is None or e.count() == 0:
        # a DAG with no edges has no constrained nodes — empty layering
        es = edges.schema()
        id_type = (
            es.types[es.names.index(src)]
            if es is not None and src in es.names
            else pa.string()
        )
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=id_type),
                    "level": pa.array([], type=pa.int64()),
                }
            )
        )
    id_type = _s.types[_s.names.index("u")]

    def both_ends(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [b["u"].combine_chunks(), b["v"].combine_chunks()]
                )
            }
        )

    lev = (
        exact_dedup(
            e.map_batches(both_ends, batch_format="pyarrow"),
            ["node"],
            n_buckets=n_buckets,
        )
        .map_batches(
            lambda b: b.append_column(
                "level", pa.array([0] * len(b), type=pa.int64())
            ),
            batch_format="pyarrow",
        )
        .repartition(n_buckets)
        .materialize()
    )
    changed = lev

    # depth+2 iterations suffice for depth ≤ max_rounds: see docstring
    for _ in range(max_rounds + 2):
        if changed.count() == 0:
            return lev

        def relax_post(joined: pa.Table) -> pa.Table:
            t = pa.table(
                {
                    "node": joined["v"],
                    "l": pc.add(joined["lu"], 1),
                }
            )
            g = t.group_by(["node"]).aggregate([("l", "max")])
            return g.rename_columns(["node", "l"])

        cand = grouped_agg(
            shuffle_join(
                e,
                changed.map_batches(
                    lambda b: b.rename_columns(["u", "lu"]),
                    batch_format="pyarrow",
                ),
                keys="u",
                n_buckets=n_buckets,
                left_schema={"u": id_type, "v": id_type},
                right_schema={"u": id_type, "lu": pa.int64()},
                bucket_post=relax_post,
            ),
            keys=["node"],
            aggs={"l": ("l", "max")},
            n_buckets=n_buckets,
            partial=True,
        )

        def merge(sides: list[pd.DataFrame]) -> pd.DataFrame:
            old = sides[0].set_index("node")["level"]
            cnd = sides[1].set_index("node")["l"]
            improved = cnd[cnd > old.reindex(cnd.index).fillna(-1)]
            merged = pd.concat(
                [old[~old.index.isin(improved.index)], improved]
            )
            out = merged.reset_index()
            out.columns = ["node", "level"]
            out["__improved"] = out["node"].isin(improved.index)
            return out

        merged = (
            cogroup(
                [lev, cand],
                ["node"],
                merge,
                n_buckets,
                batch_format="pandas",
                schemas=[
                    {"node": id_type, "level": pa.int64()},
                    {"node": id_type, "l": pa.int64()},
                ],
            )
            .repartition(n_buckets)
            .materialize()
        )
        lev = merged.map_batches(
            lambda b: b.select(["node", "level"]), batch_format="pyarrow"
        ).materialize()
        changed = merged.map_batches(
            lambda b: b.filter(b["__improved"]).select(["node", "level"]),
            batch_format="pyarrow",
        ).materialize()
    raise RuntimeError(
        f"dag_longest_levels did not converge in {max_rounds} rounds "
        "(cyclic input? run on condensation output)"
    )


def wl_colors(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_rounds: int = 2,
    n_buckets: int = 16,
) -> ray.data.Dataset:
    """Weisfeiler–Leman color refinement → (node, color): the structural
    fingerprint behind graph-isomorphism screening and structural-role
    discovery (Shervashidze et al., JMLR 2011).  The graph is
    symmetrized and deduped; color₀ = distinct-neighbor degree as a
    decimal string; each round rewrites every node's color to
    ``md5_u64(own || '|' || ','.join(sorted(neighbor colors)))`` with
    LEXICOGRAPHIC neighbor order, so the whole chain replays in SQL as
    ``string_agg(... ORDER BY color)`` + the repo's md5-u64 expression.

    Fully distributed state: per round one src-keyed ``shuffle_join``
    ships colors onto edges, then one node-keyed bucket pass merges each
    node's own color with its sorted neighbor-color list (the per-group
    sort is the operator's cost — Θ(deg) per node, hub buckets spread by
    node hash).  Fixed ``n_rounds`` keeps the output a pure function of
    topology."""
    from .dedup import batch_local_dedup, exact_dedup
    from .join import shuffle_join
    from .rollup import grouped_agg

    def sym(b: pa.Table) -> pa.Table:
        u = b[src].cast(pa.string()).combine_chunks()
        v = b[dst].cast(pa.string()).combine_chunks()
        return pa.table(
            {
                "u": pa.concat_arrays([u, v]),
                "v": pa.concat_arrays([v, u]),
            }
        )

    und = (
        exact_dedup(
            batch_local_dedup(
                edges.map_batches(sym, batch_format="pyarrow"), ["u", "v"]
            ),
            ["u", "v"],
            n_buckets=n_buckets,
        )
        .repartition(n_buckets)
        .materialize()
    )

    colors = grouped_agg(
        und.map_batches(
            lambda b: pa.table(
                {
                    "node": b["v"],
                    "one": pa.array([1] * len(b), type=pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ),
        keys=["node"],
        aggs={"d": ("one", "sum")},
        n_buckets=n_buckets,
        partial=True,
    ).map_batches(
        lambda b: pa.table(
            {"node": b["node"], "color": pc.cast(b["d"], pa.string())}
        ),
        batch_format="pyarrow",
    ).repartition(n_buckets).materialize()

    for _ in range(n_rounds):
        neigh = shuffle_join(
            und,
            colors.map_batches(
                lambda b: b.rename_columns(["u", "ncolor"]),
                batch_format="pyarrow",
            ),
            keys="u",
            n_buckets=n_buckets,
            left_schema={"u": pa.string(), "v": pa.string()},
            right_schema={"u": pa.string(), "ncolor": pa.string()},
            # neighbor colors keyed by the receiving node
            bucket_post=lambda j: pa.table(
                {"node": j["v"], "ncolor": j["ncolor"]}
            ),
        )

        def refine(sides: list[pd.DataFrame]) -> pd.DataFrame:
            own = sides[0].set_index("node")["color"]
            ng = sides[1].sort_values(["node", "ncolor"], kind="mergesort")
            agg = ng.groupby("node", sort=False)["ncolor"].agg(",".join)
            composed = (own + "|" + agg.reindex(own.index)).to_numpy()
            new = stable_hash_u64(list(composed))
            return pd.DataFrame(
                {
                    "node": own.index.to_numpy(),
                    "color": [str(int(x)) for x in new],
                }
            )

        colors = (
            cogroup(
                [colors, neigh],
                ["node"],
                refine,
                n_buckets,
                batch_format="pandas",
                schemas=[
                    {"node": pa.string(), "color": pa.string()},
                    {"node": pa.string(), "ncolor": pa.string()},
                ],
            )
            .repartition(n_buckets)
            .materialize()
        )
    return colors


# Shared with oracle.ktruss_sql: the Ray side RAISES if peeling has not
# converged by this many rounds, exactly where the unrolled SQL stops —
# a loud failure instead of a silent two-engines-disagree mismatch.
K_TRUSS_MAX_ROUNDS = 12


def k_truss(
    edges: ray.data.Dataset,
    k: int,
    src: str = "src",
    dst: str = "dst",
    n_buckets: int = 16,
    max_rounds: int = K_TRUSS_MAX_ROUNDS,
) -> ray.data.Dataset:
    """k-truss of an undirected graph → the surviving canonical edge set
    (u < v): the maximal subgraph where every edge closes ≥ k−2
    triangles (Cohen 2008) — a stronger cohesion core than k-core,
    standard for KG community backbones.

    Synchronous peeling with all-distributed state: per round the
    two-exchange wedge-close plan of ``kg_triangles`` (edges ⋈ edges on
    the middle vertex, multi-key semi join closes each wedge) computes
    per-edge support — every triangle (a < m < c) contributes to its
    three edges via a per-batch combiner + one grouped sum — then edges
    below k−2 drop.  The edge set shrinks monotonically and the truss
    fixpoint is UNIQUE (independent of peel order), so a SQL oracle can
    unroll any round count ≥ the convergence depth: converged rounds are
    no-ops on both engines.  Convergence test is one row count."""
    from .dedup import batch_local_dedup, exact_dedup
    from .join import shuffle_join, shuffle_semi_join
    from .rollup import grouped_agg

    if k < 3:
        # k <= 2 truss is the whole graph; the support-table filter below
        # would wrongly drop triangle-free edges at thresh <= 0
        raise ValueError("k_truss requires k >= 3")

    def canon(b: pa.Table) -> pa.Table:
        u = b[src].to_numpy(zero_copy_only=False)
        v = b[dst].to_numpy(zero_copy_only=False)
        keep = u != v
        u, v = u[keep], v[keep]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        return pa.table({"u": pa.array(lo), "v": pa.array(hi)})

    e = (
        exact_dedup(
            batch_local_dedup(
                edges.map_batches(canon, batch_format="pyarrow"), ["u", "v"]
            ),
            ["u", "v"],
            n_buckets=n_buckets,
        )
        .repartition(n_buckets)
        .materialize()
    )
    n = e.count()
    if n == 0:
        return e
    _s = e.schema()
    id_type = _s.types[_s.names.index("u")]
    thresh = k - 2

    for _ in range(max_rounds):
        wedges = shuffle_join(
            e.map_batches(
                lambda b: pa.table({"a": b["u"], "mid": b["v"]}),
                batch_format="pyarrow",
            ),
            e.map_batches(
                lambda b: pa.table({"mid": b["u"], "c": b["v"]}),
                batch_format="pyarrow",
            ),
            keys="mid",
            n_buckets=n_buckets,
            left_schema={"a": id_type, "mid": id_type},
            right_schema={"mid": id_type, "c": id_type},
        )
        tris = shuffle_semi_join(
            wedges,
            e.map_batches(
                lambda b: pa.table({"a": b["u"], "c": b["v"]}),
                batch_format="pyarrow",
            ),
            keys=["a", "c"],
            left_schema={"a": id_type, "mid": id_type, "c": id_type},
        )

        def edge_contribs(b: pa.Table) -> pa.Table:
            us = pa.concat_arrays(
                [b["a"].combine_chunks(), b["mid"].combine_chunks(),
                 b["a"].combine_chunks()]
            )
            vs = pa.concat_arrays(
                [b["mid"].combine_chunks(), b["c"].combine_chunks(),
                 b["c"].combine_chunks()]
            )
            t = pa.table(
                {
                    "u": us,
                    "v": vs,
                    "one": pa.array([1] * len(us), type=pa.int64()),
                }
            )
            g = t.group_by(["u", "v"]).aggregate([("one", "sum")])
            return pa.table({"u": g["u"], "v": g["v"], "s": g["one_sum"]})

        survivors = (
            grouped_agg(
                tris.map_batches(edge_contribs, batch_format="pyarrow"),
                keys=["u", "v"],
                aggs={"s": ("s", "sum")},
                n_buckets=n_buckets,
                partial=True,
            )
            .filter(expr=f"s >= {thresh}")
            .select_columns(["u", "v"])
            .repartition(n_buckets)
            .materialize()
        )
        m = survivors.count()
        if m == n:
            return survivors
        e = survivors
        if m == 0:
            return e
        n = m
    raise RuntimeError(f"k_truss did not converge in {max_rounds} rounds")


def personalized_pagerank(
    edges: ray.data.Dataset,
    seeds: "list[str]",
    src: str = "subj",
    dst: str = "obj",
    damping: float = 0.85,
    n_iters: int = 12,
) -> ray.data.Dataset:
    """Personalized PageRank (random walk with restart to a seed set) →
    (node, rank): the local-relevance score behind seed-anchored
    recommendation and local community detection (Jeh & Widom WWW'02).
    Recurrence per round: rank = ((1−d) + d·dangling_mass)·p + d·Aᵀrank
    with p uniform over ``seeds`` — dangling mass restarts at the seeds,
    so total mass stays exactly 1.

    Broadcast-iteration contract (same as ``pagerank``): the rank vector
    is a node-vocabulary-bounded dict broadcast per round while edges
    stream with per-batch contribution partials; unlike global PageRank
    only the restart vector differs, so the bucketed swap for
    billion-node graphs is ``_pagerank_bucketed`` with a per-node seed
    flag in the ranks table and a per-round dangling partial — the
    machinery is in place, parameterize when needed.  Fixed ``n_iters``
    keeps the output a pure function of topology, so the SQL oracle
    unrolls the identical recurrence (``oracle.ppr_sql``)."""
    import collections

    edges = edges.materialize()

    def outdeg_partial(batch: pa.Table) -> pa.Table:
        s = [str(x) for x in batch[src].to_pylist()]
        acc: dict = {}
        for k in s:
            acc[k] = acc.get(k, 0.0) + 1.0
        d = [str(x) for x in batch[dst].to_pylist()]
        return pa.table(
            {
                "node": pa.array(list(acc) + sorted(set(d) - set(acc))),
                "od": pa.array(
                    list(acc.values()) + [0.0] * len(set(d) - set(acc)),
                    type=pa.float64(),
                ),
            }
        )

    outdeg: dict = collections.defaultdict(float)
    for row in edges.map_batches(
        outdeg_partial, batch_format="pyarrow"
    ).take_all():
        outdeg[row["node"]] += row["od"]
    nodes = sorted(outdeg)
    n = len(nodes)
    if n == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], type=pa.string()),
                    "rank": pa.array([], type=pa.float64()),
                }
            )
        )
    seed_set = {str(s) for s in seeds} & set(nodes)
    if not seed_set:
        raise ValueError("personalized_pagerank: no seed is a graph node")
    p = {v: (1.0 / len(seed_set) if v in seed_set else 0.0) for v in nodes}
    ranks = dict(p)
    od_ref = ray.put(dict(outdeg))

    def contrib_partial(ranks_ref):
        def fn(batch: pa.Table) -> pa.Table:
            r = ray.get(ranks_ref)
            od = ray.get(od_ref)
            s = [str(x) for x in batch[src].to_pylist()]
            d = [str(x) for x in batch[dst].to_pylist()]
            acc: dict = {}
            for si, di in zip(s, d):
                acc[di] = acc.get(di, 0.0) + r[si] / od[si]
            return pa.table(
                {
                    "node": pa.array(list(acc)),
                    "c": pa.array(list(acc.values()), type=pa.float64()),
                }
            )

        return fn

    for _ in range(n_iters):
        ranks_ref = ray.put(ranks)
        contrib: dict = collections.defaultdict(float)
        for row in edges.map_batches(
            contrib_partial(ranks_ref), batch_format="pyarrow"
        ).take_all():
            contrib[row["node"]] += row["c"]
        dangling = sum(r for v, r in ranks.items() if outdeg[v] == 0.0)
        common = (1.0 - damping) + damping * dangling
        ranks = {
            v: common * p[v] + damping * contrib.get(v, 0.0) for v in nodes
        }

    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, type=pa.string()),
                "rank": pa.array([ranks[v] for v in nodes], type=pa.float64()),
            }
        )
    )


def maximal_independent_set(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_rounds: int = 6,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Luby-style synchronous maximal-independent-set rounds over an int64
    digraph (symmetrized internally) — the classic distributed
    symmetry-breaking primitive (Luby 1986), hash-derandomized: node
    priority is ``splitmix64(node)``, a BIJECTION on uint64, so the total
    order is strict (no ties, no RNG) and — being a pure function — the
    per-edge neighbor priority needs NO join: each exchange computes
    ``min(splitmix64(dst))`` per src directly.

    Per round (all state distributed, kcore-style): a node joins the MIS
    if its priority beats every remaining neighbor's (or it is isolated);
    MIS neighbors are removed; both sets leave the alive node/edge tables
    via anti semi joins.  Exactly ``n_rounds`` rounds run — the SQL
    oracle unrolls the identical recurrence, so results match even if
    the graph is not exhausted (leftovers emit in_mis = -1).

    Returns (node, in_mis, round_decided): in_mis 1 = MIS member,
    0 = removed neighbor, -1 = undecided after n_rounds (round_decided
    -1)."""
    from ..functions.hashing import _splitmix64
    from .dedup import exact_dedup
    from .join import shuffle_semi_join
    from .rollup import grouped_agg

    def sym(b: pa.Table) -> pa.Table:
        s = b[src].combine_chunks()
        d = b[dst].combine_chunks()
        return pa.table(
            {
                "u": pa.concat_arrays([s, d]),
                "v": pa.concat_arrays([d, s]),
            }
        )

    e = exact_dedup(
        edges.map_batches(sym, batch_format="pyarrow"),
        ["u", "v"],
        n_buckets=n_buckets,
    ).materialize()
    alive = exact_dedup(
        e.map_batches(
            lambda b: pa.table({"node": b["u"]}), batch_format="pyarrow"
        ),
        ["node"],
        n_buckets=n_buckets,
    ).materialize()

    def prio(arr: "pa.Array | np.ndarray") -> np.ndarray:
        a = (
            arr.to_numpy(zero_copy_only=False)
            if not isinstance(arr, np.ndarray)
            else arr
        )
        return _splitmix64(a.astype(np.uint64))

    decided_parts: list[ray.data.Dataset] = []

    for r in range(1, n_rounds + 1):
        def nbr_prio(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": b["u"],
                    # stored as int64 bit pattern; min over uint64 order
                    # == min over the shifted int64 order, so flip the
                    # sign bit to keep grouped_agg's signed min correct
                    "p": pa.array(
                        (prio(b["v"]) ^ np.uint64(1 << 63)).astype(np.int64)
                    ),
                }
            )

        mn = grouped_agg(
            e.map_batches(nbr_prio, batch_format="pyarrow"),
            keys=["node"],
            aggs={"m": ("p", "min")},
            n_buckets=n_buckets,
            partial=True,
        ).materialize()

        def edge_winners(b: pa.Table) -> pa.Table:
            own = (prio(b["node"]) ^ np.uint64(1 << 63)).astype(np.int64)
            keep = own < b["m"].to_numpy(zero_copy_only=False)
            return pa.table({"node": b["node"].filter(pa.array(keep))})

        win_e = mn.map_batches(edge_winners, batch_format="pyarrow")
        iso = shuffle_semi_join(
            alive,
            mn.select_columns(["node"]),
            keys="node",
            anti=True,
            n_buckets=n_buckets,
            left_schema={"node": pa.int64()},
        )
        # unions + semi joins compound block counts (hundreds of empty
        # blocks by round 4 — measured 176 s/round); coalesce every
        # node-scale table back to n_buckets blocks
        winners = win_e.union(iso).repartition(n_buckets).materialize()
        removed = exact_dedup(
            shuffle_semi_join(
                e,
                winners.map_batches(
                    lambda b: b.rename_columns(["u"]), batch_format="pyarrow"
                ),
                keys="u",
                n_buckets=n_buckets,
                left_schema={"u": pa.int64(), "v": pa.int64()},
            ).map_batches(
                lambda b: pa.table({"node": b["v"]}), batch_format="pyarrow"
            ),
            ["node"],
            n_buckets=n_buckets,
        ).materialize()

        def tag(flag: int, rnd: int):
            def _tag(b: pa.Table) -> pa.Table:
                n = b.num_rows
                return pa.table(
                    {
                        "node": pc.cast(b["node"], pa.int64()),
                        "in_mis": pa.array(np.full(n, flag, dtype=np.int64)),
                        "round_decided": pa.array(
                            np.full(n, rnd, dtype=np.int64)
                        ),
                    }
                )

            return _tag

        for tbl, flag in ((winners, 1), (removed, 0)):
            decided_parts.append(
                tbl.map_batches(tag(flag, r), batch_format="pyarrow")
            )
        gone = winners.union(removed).repartition(n_buckets).materialize()
        alive = (
            shuffle_semi_join(
                alive, gone, keys="node", anti=True, n_buckets=n_buckets,
                left_schema={"node": pa.int64()},
            )
            .repartition(n_buckets)
            .materialize()
        )
        for end in ("u", "v"):
            e = shuffle_semi_join(
                e,
                gone.map_batches(
                    lambda b, _e=end: b.rename_columns([_e]),
                    batch_format="pyarrow",
                ),
                keys=end,
                anti=True,
                n_buckets=n_buckets,
                left_schema={"u": pa.int64(), "v": pa.int64()},
            )
        e = e.repartition(n_buckets).materialize()
        # once nothing is alive, every later round decides nothing on
        # BOTH sides (the SQL unrolls them as empty sets), so stopping
        # early is output-identical and skips dead exchanges
        if alive.count() == 0:
            break

    def tag_left(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "node": pc.cast(b["node"], pa.int64()),
                "in_mis": pa.array(np.full(n, -1, dtype=np.int64)),
                "round_decided": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    out = alive.map_batches(tag_left, batch_format="pyarrow")
    for part in decided_parts:
        out = out.union(part)
    return out


def maximal_matching(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_rounds: int = 6,
    n_buckets: int = 32,
    key_base: int = 1_000_000,
) -> ray.data.Dataset:
    """Hash-greedy maximal matching over an int64 graph (canonicalized to
    u < v) — the distributed matching primitive (Israeli & Itai 1986
    shape), derandomized like ``maximal_independent_set``: edge priority
    is ``splitmix64(u·key_base + v)``, injective for node ids below
    ``key_base``, so priorities are a strict total order with no RNG.

    Round r: every node picks its minimum-priority incident edge (one
    bucketed arg-min exchange — a node's endpoint rows co-locate in its
    hash bucket); an edge is MATCHED iff BOTH endpoints picked it, which
    is one grouped count == 2 — no join, because only an edge's two
    endpoints can ever pick it.  Matched endpoints leave the edge table
    via anti semi joins.  The loop stops early once no edges remain
    (output-identical: later unrolled rounds match nothing).

    Returns (u, v, round_matched) for the matched edges only."""
    from .dedup import exact_dedup
    from .join import shuffle_semi_join
    from .rollup import grouped_agg

    def canon(b: pa.Table) -> pa.Table:
        s = b[src].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        keep = u != v
        return pa.table(
            {"u": pa.array(u[keep]), "v": pa.array(v[keep])}
        )

    e = exact_dedup(
        edges.map_batches(canon, batch_format="pyarrow"),
        ["u", "v"],
        n_buckets=n_buckets,
    ).materialize()

    matched_parts: list[ray.data.Dataset] = []
    for r in range(1, n_rounds + 1):

        def ends(b: pa.Table) -> pa.Table:
            u = b["u"].to_numpy(zero_copy_only=False)
            v = b["v"].to_numpy(zero_copy_only=False)
            ek = u * key_base + v
            p = (
                _splitmix64(ek.astype(np.uint64)) ^ np.uint64(1 << 63)
            ).astype(np.int64)
            return pa.table(
                {
                    "node": pa.array(np.concatenate([u, v])),
                    "p": pa.array(np.concatenate([p, p])),
                    "ek": pa.array(np.concatenate([ek, ek])),
                }
            )

        def node_argmin(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["node", "p"], kind="mergesort")
            first = g.groupby("node", sort=False).head(1)
            return first[["node", "ek"]]

        mn = keyed_exchange(
            e.map_batches(ends, batch_format="pyarrow"),
            ["node"],
            node_argmin,
            n_buckets,
            batch_format="pandas",
        )
        wins = grouped_agg(
            mn,
            keys=["ek"],
            aggs={"n": ("node", "count")},
            n_buckets=n_buckets,
            partial=True,
        ).filter(expr="n == 2")

        def to_edge(b: pa.Table, rnd: int = r) -> pa.Table:
            ek = b["ek"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "u": pa.array(ek // key_base),
                    "v": pa.array(ek % key_base),
                    "round_matched": pa.array(
                        np.full(len(ek), rnd, dtype=np.int64)
                    ),
                }
            )

        we = (
            wins.map_batches(to_edge, batch_format="pyarrow")
            .repartition(n_buckets)
            .materialize()
        )
        matched_parts.append(we)

        def gone_nodes(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": pa.concat_arrays(
                        [
                            b["u"].combine_chunks(),
                            b["v"].combine_chunks(),
                        ]
                    )
                }
            )

        gone = (
            we.map_batches(gone_nodes, batch_format="pyarrow")
            .repartition(n_buckets)
            .materialize()
        )
        for end in ("u", "v"):
            e = shuffle_semi_join(
                e,
                gone.map_batches(
                    lambda b, _e=end: b.rename_columns([_e]),
                    batch_format="pyarrow",
                ),
                keys=end,
                anti=True,
                n_buckets=n_buckets,
                left_schema={"u": pa.int64(), "v": pa.int64()},
            )
        e = e.repartition(n_buckets).materialize()
        if e.count() == 0:
            break

    out = matched_parts[0]
    for part in matched_parts[1:]:
        out = out.union(part)
    return out


def multi_source_bfs(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    max_iters: int = 6,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """All-sources BFS over an int64 digraph with DISTRIBUTED (seed, node)
    state — the all-pairs-distances-within-horizon engine op behind exact
    (bounded-radius) centralities: every node is a seed, the settled set
    and the frontier are Datasets of (seed, node[, dist]) pairs, and each
    level costs one frontier⋈edges shuffle join plus one composite-key
    anti semi join — the `_bfs_bucketed` recurrence lifted to pair state,
    so the O(V²)-worst-case distance table never touches the driver.

    Exactly ``max_iters`` levels run (early exit on an empty frontier is
    output-identical); distances beyond the horizon are absent, which is
    the bounded-radius semantics the SQL oracle's depth-guarded recursive
    CTE replays.  Returns (seed, node, dist) including dist = 0 self
    rows."""
    from .dedup import exact_dedup
    from .join import shuffle_join, shuffle_semi_join

    def to_e(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "u": pc.cast(b[src], pa.int64()),
                "v": pc.cast(b[dst], pa.int64()),
            }
        )

    e = exact_dedup(
        edges.map_batches(to_e, batch_format="pyarrow"), ["u", "v"],
        n_buckets=n_buckets,
    ).materialize()

    def node_rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [b["u"].combine_chunks(), b["v"].combine_chunks()]
                )
            }
        )

    nodes = exact_dedup(
        e.map_batches(node_rows, batch_format="pyarrow"), ["node"],
        n_buckets=n_buckets,
    ).materialize()

    def seed_self(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "seed": b["node"],
                "node": b["node"],
                "dist": pa.array(
                    np.zeros(b.num_rows, dtype=np.int64)
                ),
            }
        )

    settled = nodes.map_batches(seed_self, batch_format="pyarrow").materialize()
    frontier = settled.select_columns(["seed", "node"]).materialize()

    for level in range(1, max_iters + 1):

        def pair_dedup(joined: pa.Table) -> pa.Table:
            t = pa.table({"seed": joined["seed"], "node": joined["v"]})
            return t.group_by(["seed", "node"]).aggregate([])

        cand = shuffle_join(
            frontier.map_batches(
                lambda b: pa.table({"seed": b["seed"], "u": b["node"]}),
                batch_format="pyarrow",
            ),
            e,
            keys="u",
            n_buckets=n_buckets,
            left_schema={"seed": pa.int64(), "u": pa.int64()},
            right_schema={"u": pa.int64(), "v": pa.int64()},
            bucket_post=pair_dedup,
        )
        new = shuffle_semi_join(
            cand,
            settled.select_columns(["seed", "node"]),
            keys=["seed", "node"],
            anti=True,
            n_buckets=n_buckets,
            left_schema={"seed": pa.int64(), "node": pa.int64()},
            bucket_post=lambda kept: kept.group_by(
                ["seed", "node"]
            ).aggregate([]),
        ).map_batches(
            lambda b, _l=level: b.append_column(
                "dist", pa.array(np.full(b.num_rows, _l, dtype=np.int64))
            ),
            batch_format="pyarrow",
        ).materialize()  # semi-join output is already ≤ n_buckets blocks
        if new.count() == 0:
            break
        settled = settled.union(new).repartition(n_buckets).materialize()
        frontier = new.select_columns(["seed", "node"]).materialize()

    return settled
