"""Force the streamed (non-broadcast) scale branches under the oracles.

Every operator with a ``max_broadcast_ids`` auto-threshold (minhash verify,
edit-distance re-fetch, ER verify, cluster_dedup drop set) is run here with
the threshold forced to 0, so the shuffle-join branch — the one that matters
at 100 TB — is value-checked end-to-end, not just the broadcast fast path
that the default-parameter oracle queries exercise.  ``dedup_minhash`` on a
corpus that fits one bucket verifies in one task with no broadcast gate, so
its shuffle-join verify is forced with two buckets in its own test.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

import __ray_entry__ as entrymod

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype in (np.float64, np.float32):
            df[c] = df[c].astype(np.float64).round(9)
    return df.sort_values(list(df.columns), kind="stable").reset_index(
        drop=True
    )


FORCED = [
    # fits one bucket at this scale, where the verify runs inside the one
    # task and ignores max_broadcast_ids; its shuffle-join verify is forced
    # by test_minhash_shuffle_join_verify_matches_oracle
    "dedup_minhash",
    "supplier_name_neardup",
    "supplier_name_clusters",
    "er_entity_clusters",
]


@pytest.mark.parametrize("name", FORCED)
def test_streamed_branch_matches_oracle(name, con):
    from bioie_llm_ray.pipelines import analytics as A

    fn = getattr(A, name)
    got = _canon(fn(SF, max_broadcast_ids=0))
    want = _canon(con.sql(entrymod.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(
        got, want, check_dtype=False, rtol=0, atol=1e-9
    )


def test_minhash_shuffle_join_verify_matches_oracle(con):
    """``dedup_minhash`` at this scale fits one bucket and verifies inside
    its one task, so the forced run above no longer reaches the join
    verify: run the pair query with two buckets and the threshold at 0."""
    from bioie_llm_ray.stages.neardup import minhash_neardup_pairs

    ds = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    got = minhash_neardup_pairs(
        ds, threshold=0.5, n_hash_buckets=2, n_buckets=2, max_broadcast_ids=0
    ).to_pandas()
    got["jaccard"] = got["jaccard"].round(6)
    want = con.sql(entrymod.oracle_sql()["dedup_minhash"]).df()
    assert len(want) > 0
    pd.testing.assert_frame_equal(
        _canon(got[list(want.columns)]), _canon(want),
        check_dtype=False, rtol=0, atol=1e-9,
    )


class TestDistributedQuantileReadoff:
    """Force max_driver_rows=0 so the two-phase distributed selection runs
    instead of the driver-side cumulative read-off; results must match the
    oracle exactly (the selection is exact, not approximate)."""

    def test_price_quantiles_cont_distributed(self, con):
        from bioie_llm_ray.pipelines.analytics import price_quantiles_cont

        got = price_quantiles_cont(SF, max_driver_rows=0)
        want = con.sql(entrymod.oracle_sql()["price_quantiles_cont"]).df()
        pd.testing.assert_frame_equal(
            _canon(got), _canon(want), check_dtype=False, rtol=0, atol=1e-9
        )

    def test_quantity_quantiles_distributed(self, con):
        from bioie_llm_ray.pipelines.analytics import quantity_quantiles

        got = quantity_quantiles(SF, max_driver_rows=0)
        want = con.sql(entrymod.oracle_sql()["quantity_quantiles"]).df()
        pd.testing.assert_frame_equal(
            _canon(got), _canon(want), check_dtype=False, rtol=0, atol=1e-9
        )

    def test_values_at_ranks_extremes(self):
        from bioie_llm_ray.stages.sketch import (
            exact_quantiles_cont,
            exact_quantiles_discrete,
        )

        vals = np.concatenate(
            [np.full(100, 3.5), np.linspace(0, 1, 900)]
        )
        ds = ray.data.from_arrow(
            pa.table({"x": pa.array(vals, type=pa.float64())})
        )
        for fn in (exact_quantiles_cont, exact_quantiles_discrete):
            a = fn(ds, "x", [0.0, 0.5, 1.0])
            b = fn(ds, "x", [0.0, 0.5, 1.0], max_driver_rows=0)
            assert a == b, fn.__name__


class TestClusterDedupBranches:
    def _fixture(self, n=3000, dup_every=3):
        # amplified corpus: every dup_every-th doc duplicates its
        # predecessor's component via an explicit pair edge
        docs = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(n), type=pa.int64()),
                    "text": [f"doc {i}" for i in range(n)],
                }
            )
        )
        edges = [
            {"id_a": i, "id_b": i - 1}
            for i in range(1, n)
            if i % dup_every == 0
        ]
        pairs = ray.data.from_items(edges)
        return docs, pairs

    def test_forced_shuffle_branch_equals_broadcast(self):
        from bioie_llm_ray.stages.graph import cluster_dedup

        docs, pairs = self._fixture()
        kept_b = sorted(
            r["doc_id"]
            for r in cluster_dedup(docs, pairs, max_broadcast_ids=10**9)
            .take_all()
        )
        kept_s = sorted(
            r["doc_id"]
            for r in cluster_dedup(docs, pairs, max_broadcast_ids=0)
            .take_all()
        )
        assert kept_b == kept_s
        # each pair (i-1, i) collapses to min(i-1): exactly one drop per edge
        assert len(kept_b) == 3000 - 999

    def test_string_ids_shuffle_branch(self):
        from bioie_llm_ray.stages.graph import cluster_dedup

        docs = ray.data.from_items(
            [{"doc_id": f"d{i:03d}", "text": f"t{i}"} for i in range(8)]
        )
        pairs = ray.data.from_items(
            [
                {"id_a": "d001", "id_b": "d002"},
                {"id_a": "d002", "id_b": "d005"},
                {"id_a": "d006", "id_b": "d007"},
            ]
        )
        kept = sorted(
            r["doc_id"]
            for r in cluster_dedup(docs, pairs, max_broadcast_ids=0)
            .take_all()
        )
        assert kept == ["d000", "d001", "d003", "d004", "d006"]


class TestNearDedupDocsBranches:
    def test_both_branches_agree(self):
        from bioie_llm_ray.stages.neardup import near_dedup_docs

        base = "the quick brown fox jumps over the lazy dog again and again"
        docs = [{"doc_id": i, "text": f"{base} variant {i}"} for i in range(20)]
        # plant near-duplicates of doc 0
        docs.append({"doc_id": 100, "text": f"{base} variant 0"})
        docs.append({"doc_id": 101, "text": f"{base} variant 0 "})
        ds = ray.data.from_items(docs)
        kept_b = sorted(
            r["doc_id"] for r in near_dedup_docs(ds).take_all()
        )
        kept_s = sorted(
            r["doc_id"]
            for r in near_dedup_docs(ds, max_broadcast_ids=0).take_all()
        )
        assert kept_b == kept_s
        assert 100 not in kept_b and 101 not in kept_b and 0 in kept_b
