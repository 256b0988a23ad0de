"""Near-dup family + similarity search + multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from bioie_llm_ray.stages.neardup import (
    embedding_neardup_pairs,
    minhash_lsh_candidates,
    ngram_jaccard,
    simhash_dedup,
    verify_jaccard_pairs,
)
from bioie_llm_ray.stages.similarity import brute_force_topk, ivf_topk


def _corpus():
    base = "the quick brown fox jumps over the lazy dog again and again today"
    rows = []
    for i in range(40):
        rows.append({"doc_id": i, "text": f"{base} variant {i} " + "filler word " * (i % 5)})
    # near-identical pair (one token changed) and an exact duplicate
    rows.append({"doc_id": 100, "text": base + " extra"})
    rows.append({"doc_id": 101, "text": base + " extras"})
    rows.append({"doc_id": 102, "text": rows[0]["text"]})
    return rows


class TestMinHash:
    def test_finds_near_duplicates(self):
        rows = _corpus()
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        cand = minhash_lsh_candidates(ds, n_perm=64, n_bands=16)
        texts = {r["doc_id"]: r["text"] for r in rows}
        verified = verify_jaccard_pairs(cand, texts, threshold=0.7)
        pairs = {(r["id_a"], r["id_b"]) for r in verified.take_all()}
        assert (100, 101) in pairs  # near-identical
        assert (0, 102) in pairs  # exact duplicate
        # verified pairs really exceed the threshold
        for a, b in pairs:
            assert ngram_jaccard(texts[a], texts[b]) >= 0.7

    def test_jaccard_kernel(self):
        assert ngram_jaccard("a b c d", "a b c d") == 1.0
        assert ngram_jaccard("a b c d", "x y z w") == 0.0


class TestMinHashJoinVerify:
    def test_join_verify_matches_broadcast_verify(self):
        """The distributed (shuffle-join) verify path returns the same pairs
        as the broadcast-dict path — no driver materialization needed."""
        from bioie_llm_ray.stages.neardup import verify_jaccard_pairs_join

        rows = _corpus()
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        cand = minhash_lsh_candidates(ds, n_perm=64, n_bands=16)
        texts = {r["doc_id"]: r["text"] for r in rows}
        want = {
            (r["id_a"], r["id_b"]): round(r["jaccard"], 9)
            for r in verify_jaccard_pairs(cand, texts, threshold=0.7).take_all()
        }
        got = {
            (r["id_a"], r["id_b"]): round(r["jaccard"], 9)
            for r in verify_jaccard_pairs_join(
                cand, ds, threshold=0.7, id_col="doc_id", text_col="text"
            ).take_all()
        }
        assert got == want and (100, 101) in got

    def test_string_ids_preserved(self):
        """ADVICE: candidate pairing must not hard-cast string ids to int64."""
        rows = [
            {"doc_id": f"doc-{i:03d}", "text": r["text"]}
            for i, r in enumerate(_corpus())
        ]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        cand = minhash_lsh_candidates(ds, n_perm=64, n_bands=16)
        texts = {r["doc_id"]: r["text"] for r in rows}
        verified = verify_jaccard_pairs(cand, texts, threshold=0.7).take_all()
        assert verified and all(
            isinstance(r["id_a"], str) and r["id_a"] in texts for r in verified
        )


class TestNearDedupDocs:
    def test_keeps_min_id_representative(self):
        from bioie_llm_ray.stages.neardup import near_dedup_docs

        # 20 genuinely-distinct docs (disjoint vocabularies) + two planted
        # duplicate clusters: {0, 100(exact), 101(near)} and {5, 105(near)}
        rows = [
            {
                "doc_id": i,
                "text": " ".join(f"w{i}_{j}" for j in range(30)),
            }
            for i in range(20)
        ]
        base0 = rows[0]["text"]
        base5 = rows[5]["text"]
        rows.append({"doc_id": 100, "text": base0})
        rows.append({"doc_id": 101, "text": base0 + " w0_30"})
        rows.append({"doc_id": 105, "text": base5.replace("w5_7", "CHANGED")})
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        kept = {
            r["doc_id"]
            for r in near_dedup_docs(ds, threshold=0.7).take_all()
        }
        assert 0 in kept and 100 not in kept and 101 not in kept
        assert 5 in kept and 105 not in kept
        # every genuinely-distinct doc survives
        assert set(range(20)) <= kept


class TestSimHash:
    def test_exact_duplicates_collapse(self):
        rows = _corpus()
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        out = simhash_dedup(ds).take_all()
        ids = {r["doc_id"] for r in out}
        # doc 102 duplicates doc 0 → only the smaller id survives
        assert 0 in ids and 102 not in ids
        # simhash also collapses near-identical variants (its purpose):
        # strictly fewer survivors than inputs, but far more than 1
        assert 1 < len(out) < len(rows)

    def test_hamming_band_candidates_find_bit_flips(self):
        """Near-dup fingerprints within Hamming < n_bands share ≥1 band by
        pigeonhole and must surface as verified candidate pairs.

        Word-level simhash needs long documents for stability (on a 14-token
        doc a single word flips ~half the bits — each bit's vote margin is
        tiny), so the planted pairs are 200-word docs with 1-2 changed
        words, which land within distance ≤3 of their originals.
        """
        from bioie_llm_ray.stages.neardup import SimHasher, simhash_neardup_pairs

        rows = []
        for i in range(20):  # background: disjoint vocabularies (simhash is
            # word-set-based — rotations of one vocab would all collide)
            rows.append(
                {
                    "doc_id": i,
                    "text": " ".join(f"tok{i}_{j}" for j in range(200)),
                }
            )
        # planted cluster around doc 0: verbatim copy + 1- and 2-word edits
        base = rows[0]["text"]
        rows.append({"doc_id": 100, "text": base})
        rows.append(
            {"doc_id": 101, "text": base.replace("tok0_50", "CHANGED", 1)}
        )
        rows.append(
            {
                "doc_id": 102,
                "text": base.replace("tok0_50", "CHANGED", 1).replace(
                    "tok0_80", "ALTERED", 1
                ),
            }
        )
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        hashed = {
            r["doc_id"]: r["simhash"]
            for r in ds.map_batches(
                SimHasher, batch_format="pyarrow", concurrency=1
            ).take_all()
        }
        cluster = [0, 100, 101, 102]
        for a in cluster:
            for b in cluster:
                d = bin(hashed[a] ^ hashed[b]).count("1")
                assert d < 8, (a, b, d)  # long docs keep edit distance small
        pairs = {
            (r["id_a"], r["id_b"]): r["hamming"]
            for r in simhash_neardup_pairs(
                ds, max_hamming=7, n_bands=8
            ).take_all()
        }
        # the planted cluster comes back CONNECTED (chain pairing emits m-1
        # edges per band run, not all m^2/2 pairs)
        parent = {i: i for i in cluster}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in pairs:
            if a in parent and b in parent:
                parent[find(a)] = find(b)
        assert len({find(i) for i in cluster}) == 1, pairs
        assert pairs[(0, 100)] == 0  # exact dup is adjacent in every run
        assert all(h <= 7 for h in pairs.values())
        # no cross-vocabulary false positives
        assert all(
            a in cluster and b in cluster or abs(a - b) < 100
            for a, b in pairs
        )


class TestEmbeddingNearDup:
    def test_planted_duplicate_found(self):
        rng = np.random.RandomState(0)
        emb = rng.randn(50, 32).astype(np.float32)
        emb[40] = emb[7] + rng.randn(32).astype(np.float32) * 0.01  # near-dup
        df = pd.DataFrame(
            {"vec_id": range(50), "embedding": [e.tolist() for e in emb]}
        )
        ds = ray.data.from_pandas(df)
        pairs = embedding_neardup_pairs(ds, dim=32, threshold=0.98).take_all()
        assert any(r["id_a"] == 7 and r["id_b"] == 40 for r in pairs)

    def test_multi_table_recall_dominates_single(self):
        """T=4 hash tables find every planted near-dup; a pair can straddle
        one table's hyperplane, so T=1 recall ⊆ T=4 recall by construction."""
        rng = np.random.RandomState(7)
        emb = rng.randn(300, 32).astype(np.float32)
        planted = [(i, 200 + i) for i in range(30)]
        for a, b in planted:
            emb[b] = emb[a] + rng.randn(32).astype(np.float32) * 0.01
        df = pd.DataFrame(
            {"vec_id": range(300), "embedding": [e.tolist() for e in emb]}
        )
        ds = ray.data.from_pandas(df)

        def found(n_tables):
            return {
                (r["id_a"], r["id_b"])
                for r in embedding_neardup_pairs(
                    ds, dim=32, threshold=0.98, n_tables=n_tables
                ).take_all()
            }

        single, multi = found(1), found(4)
        assert single <= multi
        assert set(planted) <= multi  # full recall on planted pairs at T=4
        # every reported pair really verifies (no false positives survive)
        norm = emb.astype(np.float64)
        norm /= np.linalg.norm(norm, axis=1, keepdims=True)
        for a, b in multi:
            assert float(norm[a] @ norm[b]) >= 0.98


class TestSimilarity:
    @pytest.fixture(scope="class")
    def emb_ds(self):
        rng = np.random.RandomState(1)
        emb = rng.randn(200, 16).astype(np.float32)
        df = pd.DataFrame(
            {"vec_id": range(200), "embedding": [e.tolist() for e in emb]}
        )
        return ray.data.from_pandas(df), emb

    def test_brute_force_matches_numpy(self, emb_ds):
        ds, emb = emb_ds
        q = emb[:3].astype(np.float64)
        out = brute_force_topk(ds, q, [0, 1, 2], k=4).to_pandas()
        # independent numpy reference
        norm = emb.astype(np.float64)
        norm = norm / np.linalg.norm(norm, axis=1, keepdims=True)
        sims = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ norm.T
        for qi in range(3):
            row = sims[qi].copy()
            row[qi] = -np.inf  # exclude self
            expect = np.argsort(-row, kind="stable")[:4].tolist()
            got = out[out.query_id == qi].sort_values("rank")["neighbor_id"].tolist()
            assert got == expect

    def test_self_join_exact_matches_brute_force(self, emb_ds):
        """n_probe = n_centroids makes the self-join exact: identical to
        per-query brute force over all 200 vectors."""
        from bioie_llm_ray.stages.similarity import knn_self_join

        ds, emb = emb_ds
        got = (
            knn_self_join(ds, k=3, n_centroids=8, n_probe=8)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        q = emb.astype(np.float64)
        want = (
            brute_force_topk(ds, q, list(range(200)), k=3)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["query_id", "neighbor_id", "rank"]],
            want[["query_id", "neighbor_id", "rank"]],
        )

    def test_self_join_approximate_recall(self, emb_ds):
        from bioie_llm_ray.stages.similarity import knn_self_join

        ds, emb = emb_ds
        approx = knn_self_join(ds, k=3, n_centroids=8, n_probe=4).to_pandas()
        exact = brute_force_topk(
            ds, emb.astype(np.float64), list(range(200)), k=3
        ).to_pandas()
        e = set(map(tuple, exact[["query_id", "neighbor_id"]].values))
        a = set(map(tuple, approx[["query_id", "neighbor_id"]].values))
        assert len(e & a) / len(e) >= 0.6

    def test_self_join_hot_cell_salting_stays_exact(self):
        """80% of the corpus collapses into one centroid cell; sub-cell
        salting splits it and the exact-mode result is unchanged."""
        from bioie_llm_ray.stages.similarity import knn_self_join

        rng = np.random.RandomState(9)
        hot = rng.randn(32).astype(np.float64)
        emb = np.vstack(
            [
                hot + rng.randn(160, 32) * 0.05,  # hot cluster (80%)
                rng.randn(40, 32),  # scattered tail
            ]
        )
        df = pd.DataFrame(
            {"vec_id": range(200), "embedding": [e.tolist() for e in emb]}
        )
        ds = ray.data.from_pandas(df)
        got = (
            knn_self_join(ds, k=3, n_centroids=8, n_probe=8)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        want = (
            brute_force_topk(ds, emb, list(range(200)), k=3)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["query_id", "neighbor_id", "rank"]],
            want[["query_id", "neighbor_id", "rank"]],
        )

    def test_ivf_recall_reasonable(self, emb_ds):
        ds, emb = emb_ds
        q = emb[:5].astype(np.float64)
        exact = brute_force_topk(ds, q, list(range(5)), k=5).to_pandas()
        approx = ivf_topk(ds, q, list(range(5)), k=5, n_centroids=8, n_probe=4).to_pandas()
        # recall@5 of the IVF variant with half the buckets probed
        hits = 0
        for qi in range(5):
            e = set(exact[exact.query_id == qi]["neighbor_id"])
            a = set(approx[approx.query_id == qi]["neighbor_id"])
            hits += len(e & a)
        assert hits / 25 >= 0.5

    def test_ivf_probed_recall_and_full_probe_exact(self, emb_ds):
        from bioie_llm_ray.stages.similarity import ivf_probed_topk

        ds, emb = emb_ds
        q = emb[:5].astype(np.float64)
        exact = brute_force_topk(ds, q, list(range(5)), k=5).to_pandas()
        # probing EVERY list must reproduce the exact ranking
        full = (
            ivf_probed_topk(
                ds, q, list(range(5)), k=5, n_centroids=8, n_probe=8
            )
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            full[["query_id", "neighbor_id", "rank"]],
            exact.sort_values(["query_id", "rank"]).reset_index(drop=True)[
                ["query_id", "neighbor_id", "rank"]
            ],
        )
        # partial probing keeps reasonable recall
        approx = ivf_probed_topk(
            ds, q, list(range(5)), k=5, n_centroids=8, n_probe=4
        ).to_pandas()
        hits = 0
        for qi in range(5):
            e = set(exact[exact.query_id == qi]["neighbor_id"])
            a = set(approx[approx.query_id == qi]["neighbor_id"])
            hits += len(e & a)
        assert hits / 25 >= 0.5


class TestMultimodal:
    def test_stub_raises_without_fake(self):
        # real mode constructs fine (stdlib PNG/WAV codecs exist) but
        # raises per-payload when no pure-python codec covers the type
        from bioie_llm_ray.stages.multimodal import DecodeStub

        stub = DecodeStub(fake=False)
        with pytest.raises(NotImplementedError):
            stub(
                pa.table(
                    {
                        "media_id": ["v"],
                        "media_type": ["video/mp4"],
                        "payload": [b"not-a-png-or-wav"],
                    }
                )
            )

    def test_resize_replaces_payload_and_meta(self):
        import json

        from bioie_llm_ray.stages.multimodal import ResizeStub, resize_images

        # real mode constructs (stdlib PNG codec); fake mode used below
        ResizeStub(32, 32, fake=False)
        ds = ray.data.from_items(
            [
                {
                    "media_id": "a",
                    "media_type": "image/png",
                    "payload": b"img-bytes-a",
                    "meta_json": json.dumps({"width": 640, "height": 480}),
                }
            ]
        )
        out = resize_images(ds, 32, 32, fake=True).take_all()
        assert len(out) == 1
        m = json.loads(out[0]["meta_json"])
        assert (m["width"], m["height"]) == (32, 32)
        assert out[0]["payload"] != b"img-bytes-a"
        # deterministic
        out2 = resize_images(ds, 32, 32, fake=True).take_all()
        assert out2[0]["payload"] == out[0]["payload"]

    def test_frame_sampler_explodes_rows(self):
        import json

        from bioie_llm_ray.stages.multimodal import (
            FrameSampleStub,
            decode_features,
            sample_frames,
        )

        with pytest.raises(NotImplementedError):
            FrameSampleStub(fake=False)
        ds = ray.data.from_items(
            [
                {
                    "media_id": "v1",
                    "media_type": "video/mp4",
                    "payload": b"video-bytes",
                    "meta_json": json.dumps({"duration_ms": 3500}),
                },
                {
                    "media_id": "v2",
                    "media_type": "video/mp4",
                    "payload": b"other-bytes",
                    "meta_json": json.dumps({"duration_ms": 20000}),
                },
            ]
        )
        frames = sample_frames(ds, every_ms=1000, max_frames=8, fake=True)
        rows = frames.take_all()
        by_id = {}
        for r in rows:
            by_id.setdefault(r["media_id"], []).append(r)
        assert len(by_id["v1"]) == 3  # 3500 ms // 1000
        assert len(by_id["v2"]) == 8  # capped at max_frames
        assert [r["ts_ms"] for r in sorted(by_id["v1"], key=lambda r: r["frame_idx"])] == [0, 1000, 2000]
        # frame rows feed the image decode stage unchanged
        feats = decode_features(frames, feature_dim=4, fake=True).take_all()
        assert len(feats) == 11 and all(len(r["feature"]) == 4 for r in feats)

    def test_fake_decode_deterministic(self):
        from bioie_llm_ray.stages.multimodal import DecodeStub

        stub = DecodeStub(feature_dim=8, fake=True)
        t = pa.table(
            {
                "media_id": ["a", "b"],
                "payload": [b"payload-1", b"payload-2"],
            }
        )
        f1 = stub(t)["feature"].to_pylist()
        f2 = stub(t)["feature"].to_pylist()
        assert f1 == f2
        assert len(f1[0]) == 8
        assert "payload" not in stub(t).column_names


class TestJoins:
    def test_shuffle_join_matches_pandas(self):
        rng = np.random.RandomState(3)
        left = pd.DataFrame(
            {"k": rng.randint(0, 50, 300), "v": rng.randn(300).round(6)}
        )
        right = pd.DataFrame({"k": range(0, 60, 2), "w": range(30)})
        from bioie_llm_ray.stages.join import broadcast_join, shuffle_join

        lds = ray.data.from_pandas(left)
        rds = ray.data.from_pandas(right)
        got = (
            shuffle_join(lds, rds, keys="k", n_buckets=8)
            .to_pandas()
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        want = (
            left.merge(right, on="k")
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["k", "v", "w"]], want[["k", "v", "w"]], check_dtype=False
        )
        got_b = (
            broadcast_join(lds, pa.Table.from_pandas(right), keys="k")
            .to_pandas()
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got_b[["k", "v", "w"]], want[["k", "v", "w"]], check_dtype=False
        )

    def test_packed_join_matches_widened(self):
        """The IPC-blob shuffle join returns exactly the widened-union
        join's rows (including buckets with keys on only one side)."""
        from bioie_llm_ray.stages.join import shuffle_join_packed

        rng = np.random.RandomState(4)
        left = pd.DataFrame(
            {"k": rng.randint(0, 50, 500), "v": rng.randn(500).round(6)}
        )
        right = pd.DataFrame({"k": range(0, 90, 2), "w": range(45)})
        got = (
            shuffle_join_packed(
                ray.data.from_pandas(left),
                ray.data.from_pandas(right),
                keys="k",
                n_buckets=8,
            )
            .to_pandas()
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        want = (
            left.merge(right, on="k")
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["k", "v", "w"]], want[["k", "v", "w"]], check_dtype=False
        )

    def test_anti_semi(self):
        from bioie_llm_ray.stages.join import anti_semi_filter

        ds = ray.data.from_items([{"k": str(i)} for i in range(10)])
        keep = anti_semi_filter(ds, {"1", "3"}, keys="k")
        drop = anti_semi_filter(ds, {"1", "3"}, keys="k", anti=True)
        assert sorted(r["k"] for r in keep.take_all()) == ["1", "3"]
        assert len(drop.take_all()) == 8

    def test_shuffle_semi_join_matches_pandas(self):
        """Distributed semi/anti vs pandas isin over a many-rows-per-key
        right side (the combiner dedup must not change the answer)."""
        from bioie_llm_ray.stages.join import shuffle_semi_join

        rng = np.random.RandomState(7)
        left = pd.DataFrame(
            {"k": rng.randint(0, 40, 200), "v": rng.randn(200).round(6)}
        )
        right = pd.DataFrame({"k": rng.randint(0, 25, 500)})  # dup-heavy
        lds = ray.data.from_pandas(left)
        rds = ray.data.from_pandas(right)
        schema = {"k": pa.int64(), "v": pa.float64()}
        in_right = left["k"].isin(set(right["k"]))
        for anti, want_mask in ((False, in_right), (True, ~in_right)):
            got = (
                shuffle_semi_join(
                    lds, rds, keys="k", anti=anti, n_buckets=8,
                    left_schema=schema,
                )
                .to_pandas()
                .sort_values(["k", "v"])
                .reset_index(drop=True)
            )
            want = (
                left[want_mask].sort_values(["k", "v"]).reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(
                got[["k", "v"]], want[["k", "v"]], check_dtype=False
            )

    def test_shuffle_semi_join_multikey_and_bucket_post(self):
        from bioie_llm_ray.stages.join import shuffle_semi_join

        left = pd.DataFrame(
            {
                "a": ["x", "x", "y", "y", "z"],
                "b": [1, 2, 1, 2, 1],
                "grp": ["g1", "g1", "g2", "g2", "g2"],
            }
        )
        right = pd.DataFrame({"a": ["x", "y", "x"], "b": [1, 2, 1]})
        schema = {"a": pa.string(), "b": pa.int64(), "grp": pa.string()}

        def rollup(kept: pa.Table) -> pa.Table:
            return (
                kept.group_by("grp")
                .aggregate([("b", "count")])
                .rename_columns(["grp", "n"])
            )

        got = (
            shuffle_semi_join(
                ray.data.from_pandas(left),
                ray.data.from_pandas(right),
                keys=["a", "b"],
                n_buckets=4,
                left_schema=schema,
                bucket_post=rollup,
            )
            .to_pandas()
            .groupby("grp", as_index=False)
            .agg(n=("n", "sum"))
            .sort_values("grp")
            .reset_index(drop=True)
        )
        # matches: (x,1) and (y,2) → g1 has 1 row, g2 has 1 row
        assert got.to_dict("records") == [
            {"grp": "g1", "n": 1},
            {"grp": "g2", "n": 1},
        ]


class TestAsofJoin:
    def test_matches_pandas_merge_asof(self):
        import pandas as pd

        from bioie_llm_ray.stages.join import asof_join

        rng = np.random.RandomState(5)
        left = pd.DataFrame(
            {
                "u": rng.randint(0, 10, 100),
                "ts": rng.randint(0, 1000, 100),
                "val": rng.randn(100).round(4),
            }
        ).astype({"ts": "int64"})
        right = pd.DataFrame(
            {
                "u": rng.randint(0, 10, 40),
                "ts": rng.randint(0, 1000, 40),
            }
        ).astype({"ts": "int64"})
        got = (
            asof_join(
                ray.data.from_pandas(left),
                ray.data.from_pandas(right),
                by="u",
                on="ts",
            )
            .to_pandas()
            .sort_values(["u", "ts", "val"])
            .reset_index(drop=True)
        )
        want = pd.merge_asof(
            left.sort_values("ts"),
            right.sort_values("ts").assign(ts_right=lambda d: d.ts),
            on="ts",
            by="u",
            direction="backward",
        )
        want = (
            want[want["ts_right"].notna()]
            .sort_values(["u", "ts", "val"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["u", "ts", "val", "ts_right"]],
            want[["u", "ts", "val", "ts_right"]],
            check_dtype=False,
        )


class TestNgramJaccardExact:
    """ngram_jaccard_pairs is EXACT (prefix-filtered AllPairs): output must
    equal a brute-force all-pairs Jaccard scan, including moderate-similarity
    pairs that probabilistic LSH chain pairing can miss."""

    @staticmethod
    def _truth(rows, threshold, n_shingle=3):
        import itertools

        def sh(text):
            toks = text.split()
            k = min(n_shingle, len(toks)) if toks else 0
            if not toks:
                return frozenset([""])
            return frozenset(
                " ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)
            )

        S = {r["doc_id"]: sh(r["text"]) for r in rows}
        out = {}
        for a, b in itertools.combinations(sorted(S), 2):
            sa, sb = S[a], S[b]
            inter = len(sa & sb)
            if not inter:
                continue
            j = inter / (len(sa) + len(sb) - inter)
            if j >= threshold:
                out[(a, b)] = j
        return out

    def test_matches_brute_force_exactly(self):
        from bioie_llm_ray.stages.neardup import ngram_jaccard_pairs

        rows = _corpus()
        # a moderate pair (~0.5-0.7 Jaccard): shares half its shingles
        half = "the quick brown fox jumps over the lazy dog again and again"
        rows.append({"doc_id": 200, "text": half + " one two three four five"})
        rows.append({"doc_id": 201, "text": half + " six seven eight nine ten"})
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        got = {
            (r["id_a"], r["id_b"]): r["jaccard"]
            for r in ngram_jaccard_pairs(ds, threshold=0.5).take_all()
        }
        want = self._truth(rows, 0.5)
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-9)

    def test_threshold_prunes(self):
        from bioie_llm_ray.stages.neardup import ngram_jaccard_pairs

        rows = _corpus()
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        got = {
            (r["id_a"], r["id_b"])
            for r in ngram_jaccard_pairs(ds, threshold=0.95).take_all()
        }
        want = set(self._truth(rows, 0.95))
        assert got == want
        assert (0, 102) in got  # exact duplicate always survives

    def test_random_corpus_property(self):
        """Random word soup: exactness holds with no planted structure."""
        from bioie_llm_ray.stages.neardup import ngram_jaccard_pairs

        rng = np.random.RandomState(7)
        vocab = [f"w{i}" for i in range(30)]
        rows = [
            {
                "doc_id": i,
                "text": " ".join(rng.choice(vocab, size=rng.randint(5, 25))),
            }
            for i in range(60)
        ]
        ds = ray.data.from_pandas(pd.DataFrame(rows))
        got = {
            (r["id_a"], r["id_b"])
            for r in ngram_jaccard_pairs(ds, threshold=0.3).take_all()
        }
        assert got == set(self._truth(rows, 0.3))


class TestIntervalJoin:
    @staticmethod
    def _data(ts_as_datetime: bool):
        rng = np.random.RandomState(11)
        left = pd.DataFrame(
            {
                "u": rng.randint(0, 8, 120),
                "ts": rng.randint(0, 5000, 120),
                "val": rng.randn(120).round(4),
            }
        ).astype({"ts": "int64"})
        starts = rng.randint(0, 4500, 50)
        right = pd.DataFrame(
            {
                "u": rng.randint(0, 8, 50),
                "start": starts,
                "end": starts + rng.randint(0, 800, 50),
                "tag": [f"w{i}" for i in range(50)],
            }
        ).astype({"start": "int64", "end": "int64"})
        if ts_as_datetime:
            base = pd.Timestamp("2024-01-01")
            for df, cols in ((left, ["ts"]), (right, ["start", "end"])):
                for c in cols:
                    df[c] = base + pd.to_timedelta(df[c], unit="m")
        return left, right

    @staticmethod
    def _truth(left, right):
        m = left.merge(right, on="u", how="inner")
        m = m[(m["start"] <= m["ts"]) & (m["ts"] <= m["end"])]
        return (
            m.sort_values(["u", "ts", "val", "tag"]).reset_index(drop=True)
        )

    def test_matches_pandas_between(self):
        from bioie_llm_ray.stages.join import interval_join

        left, right = self._data(ts_as_datetime=False)
        got = (
            interval_join(
                ray.data.from_pandas(left),
                ray.data.from_pandas(right),
                by="u",
                on="ts",
                start="start",
                end="end",
            )
            .to_pandas()
            .sort_values(["u", "ts", "val", "tag"])
            .reset_index(drop=True)
        )
        want = self._truth(left, right)
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)]
        )

    def test_time_chunk_replication_stays_exact(self):
        """Hot-key path: intervals replicate per overlapped chunk, yet each
        matched pair surfaces exactly once."""
        from bioie_llm_ray.stages.join import interval_join

        left, right = self._data(ts_as_datetime=True)
        kwargs = dict(by="u", on="ts", start="start", end="end")
        plain = (
            interval_join(
                ray.data.from_pandas(left), ray.data.from_pandas(right), **kwargs
            )
            .to_pandas()
            .sort_values(["u", "ts", "val", "tag"])
            .reset_index(drop=True)
        )
        chunked = (
            interval_join(
                ray.data.from_pandas(left),
                ray.data.from_pandas(right),
                time_chunk="2h",
                **kwargs,
            )
            .to_pandas()
            .sort_values(["u", "ts", "val", "tag"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            plain[sorted(plain.columns)], chunked[sorted(chunked.columns)]
        )
        assert len(plain) == len(self._truth(left, right))


class TestDistributedKmeans:
    def _serial_lloyd(self, X, k, n_iters):
        cent = X[:k].astype(np.float64).copy()
        for _ in range(n_iters):
            d2 = ((X[:, None, :] - cent[None, :, :]) ** 2).sum(axis=-1)
            a = np.argmin(d2, axis=1)
            for c in range(k):
                if (a == c).any():
                    cent[c] = X[a == c].mean(axis=0)
        d2 = ((X[:, None, :] - cent[None, :, :]) ** 2).sum(axis=-1)
        return cent, np.argmin(d2, axis=1)

    def test_matches_serial_lloyd(self):
        from bioie_llm_ray.stages.similarity import (
            assign_clusters,
            distributed_kmeans,
        )

        rng = np.random.RandomState(41)
        # well-separated blobs so float order-of-summation can't flip labels
        centers = rng.randn(4, 16) * 10
        X = np.concatenate(
            [c + rng.randn(50, 16) for c in centers]
        ).astype(np.float32)
        order = rng.permutation(len(X))
        X = X[order]
        ds = ray.data.from_items(
            [
                {"vec_id": i, "embedding": X[i].tolist()}
                for i in range(len(X))
            ]
        ).repartition(5)

        cent = distributed_kmeans(ds, k=4, n_iters=3)
        want_cent, want_assign = self._serial_lloyd(
            X.astype(np.float64), 4, 3
        )
        np.testing.assert_allclose(cent, want_cent, rtol=1e-9)
        got = (
            assign_clusters(ds, cent)
            .to_pandas()
            .sort_values("vec_id")["cluster"]
            .to_numpy()
        )
        assert (got == want_assign).all()

    def test_empty_cluster_keeps_centroid(self):
        from bioie_llm_ray.stages.similarity import distributed_kmeans

        # two far blobs, k=3 seeded with two points from blob A and one from
        # B: after one round the duplicate-A centroid empties and must stay
        X = np.array(
            [[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0],
             [0.05, 0.0], [10.05, 10.0]],
            dtype=np.float32,
        )
        ds = ray.data.from_items(
            [{"vec_id": i, "embedding": X[i].tolist()} for i in range(len(X))]
        )
        cent = distributed_kmeans(ds, k=3, n_iters=2)
        assert cent.shape == (3, 2)
        assert np.isfinite(cent).all()


class TestSemanticDedup:
    def _serial(self, X, assign, threshold):
        """Reference drop rule: within a cluster, drop i iff some j < i has
        cosine(i, j) >= threshold (ids are row indices)."""
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        kept = np.ones(len(X), dtype=bool)
        for i in range(len(X)):
            for j in range(i):
                if assign[j] == assign[i] and Xn[i] @ Xn[j] >= threshold:
                    kept[i] = False
                    break
        return kept

    def test_planted_duplicates_dropped_min_id_survives(self):
        from bioie_llm_ray.stages.similarity import (
            distributed_kmeans,
            semantic_dedup_flags,
        )

        rng = np.random.RandomState(7)
        base = rng.randn(40, 16).astype(np.float32)
        # plant: 41 == 5 exactly, 42 = tiny perturbation of 12
        dup_a = base[5]
        dup_b = base[12] + rng.randn(16).astype(np.float32) * 1e-3
        X = np.concatenate([base, dup_a[None], dup_b[None]])
        ds = ray.data.from_items(
            [{"vec_id": i, "embedding": X[i].tolist()} for i in range(len(X))]
        ).repartition(4)

        cent = distributed_kmeans(ds, k=4, n_iters=2)
        out = (
            semantic_dedup_flags(ds, cent, threshold=0.99)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        assert len(out) == 42
        # originals keep (lower id), planted copies drop
        assert bool(out.loc[5, "kept"])
        assert not bool(out.loc[40, "kept"])  # exact copy of 5
        assert bool(out.loc[12, "kept"])
        assert not bool(out.loc[41, "kept"])  # near-copy of 12

    def test_matches_serial_rule(self):
        from bioie_llm_ray.stages.similarity import (
            assign_clusters,
            distributed_kmeans,
            semantic_dedup_flags,
        )

        rng = np.random.RandomState(13)
        X = rng.randn(120, 8).astype(np.float32)
        ds = ray.data.from_items(
            [{"vec_id": i, "embedding": X[i].tolist()} for i in range(len(X))]
        ).repartition(6)
        cent = distributed_kmeans(ds, k=5, n_iters=2)
        assign = (
            assign_clusters(ds, cent)
            .to_pandas()
            .sort_values("vec_id")["cluster"]
            .to_numpy()
        )
        # random 8-dim vectors collide often enough at 0.55 to exercise drops
        got = (
            semantic_dedup_flags(ds, cent, threshold=0.55)
            .to_pandas()
            .sort_values("vec_id")
        )
        want = self._serial(X.astype(np.float64), assign, 0.55)
        assert (got["kept"].to_numpy() == want).all()
        assert (~want).sum() > 0, "fixture must exercise at least one drop"
        assert (got["cluster"].to_numpy() == assign).all()


class TestShuffleJoinSchemaFidelity:
    def test_int64_above_2pow53_survives_exchange(self):
        """Null-widened int64 payloads must not ride through double."""
        from bioie_llm_ray.stages.join import shuffle_join

        big = (1 << 60) + 12345  # not representable in float64
        left = pd.DataFrame(
            {"k": [1, 2], "payload_id": pd.array([big, big + 1], dtype="int64")}
        )
        right = pd.DataFrame({"k": [1, 2, 3], "w": ["a", "b", "c"]})
        out = shuffle_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            keys="k",
            n_buckets=4,
        ).to_pandas()
        assert str(out["payload_id"].dtype) == "int64"
        assert sorted(out["payload_id"]) == [big, big + 1]

    def test_one_sided_buckets_do_not_crash(self):
        """Buckets containing only one side's rows join to empty, not a
        null-typed Arrow error."""
        from bioie_llm_ray.stages.join import shuffle_join

        left = pd.DataFrame({"k": [100], "v": [7]})
        right = pd.DataFrame({"k": [200, 300, 400], "w": [1, 2, 3]})
        out = shuffle_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            keys="k",
            n_buckets=8,
        )
        assert out.count() == 0
        # every bucket (including one-sided ones) emits the declared schema
        s = out.schema()
        assert set(s.names) == {"k", "v", "w"}


class TestContainmentPairs:
    def test_matches_brute_force_and_finds_planted(self):
        from bioie_llm_ray.stages.neardup import (
            _token_hashes,
            ngram_containment_pairs,
        )

        rng = np.random.RandomState(31)
        vocab = [f"w{i}" for i in range(40)]
        docs = [
            " ".join(rng.choice(vocab, rng.randint(5, 25)))
            for _ in range(80)
        ]
        docs.append(docs[0] + " tail words appended beyond the base")
        docs.append(" ".join(docs[1].split()[:8]))
        df = pd.DataFrame(
            {"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs}
        )
        t = 0.8
        out = ngram_containment_pairs(
            ray.data.from_pandas(
                df.sample(frac=1.0, random_state=4)
            ).repartition(5),
            threshold=t,
        ).to_pandas()
        got = set(zip(out.id_sub.astype(int), out.id_super.astype(int)))
        sets = [set(map(int, _token_hashes(s, 3))) for s in docs]
        want = {
            (a, b)
            for a in range(len(docs))
            for b in range(len(docs))
            if a != b and sets[a]
            and len(sets[a] & sets[b]) / len(sets[a]) >= t
        }
        assert got == want
        assert (0, len(docs) - 2) in got  # base contained in extended
        assert (len(docs) - 1, 1) in got  # prefix contained in original

    def test_asymmetry(self):
        from bioie_llm_ray.stages.neardup import ngram_containment_pairs

        short = "alpha beta gamma delta epsilon"
        long = short + " " + " ".join(f"x{i}" for i in range(30))
        df = pd.DataFrame(
            {"doc_id": np.array([0, 1], dtype=np.int64),
             "text": [short, long]}
        )
        out = ngram_containment_pairs(
            ray.data.from_pandas(df), threshold=0.9
        ).to_pandas()
        got = set(zip(out.id_sub.astype(int), out.id_super.astype(int)))
        assert got == {(0, 1)}  # short in long, NOT long in short


class TestEmbeddingCovariance:
    def test_matches_numpy_and_partition_invariant(self):
        from bioie_llm_ray.stages.similarity import embedding_covariance

        rng = np.random.RandomState(33)
        x = rng.randn(300, 8)
        df = pd.DataFrame({"embedding": [row for row in x]})
        cov_a, mean_a, n_a = embedding_covariance(
            ray.data.from_pandas(df).repartition(1)
        )
        cov_b, mean_b, n_b = embedding_covariance(
            ray.data.from_pandas(
                df.sample(frac=1.0, random_state=5)
            ).repartition(9)
        )
        want_cov = np.cov(x, rowvar=False, bias=True)
        want_mean = x.mean(axis=0)
        assert n_a == n_b == 300
        assert np.allclose(cov_a, want_cov, atol=1e-12)
        assert np.allclose(cov_b, want_cov, atol=1e-12)
        assert np.allclose(mean_a, want_mean, atol=1e-12)


class TestPCAProject:
    def test_matches_numpy_pca(self):
        from bioie_llm_ray.stages.similarity import pca_project

        rng = np.random.RandomState(41)
        # anisotropic cloud: variance concentrated in one direction
        base = rng.randn(400, 6) * np.array([10, 3, 1, 0.5, 0.2, 0.1])
        df = pd.DataFrame(
            {
                "vec_id": np.arange(400, dtype=np.int64),
                "embedding": [row for row in base],
            }
        )
        ds = ray.data.from_pandas(df).repartition(7)
        proj_ds, comps, ev = pca_project(ds, k=2)
        assert comps.shape == (2, 6)
        assert ev[0] >= ev[1] > 0
        # explained variance of PC1 dominates (the 10x axis)
        assert ev[0] > 5 * ev[1]
        # projection matches a serial numpy computation up to the same
        # sign convention
        x = base - base.mean(axis=0)
        want_cov = np.cov(base, rowvar=False, bias=True)
        vals, vecs = np.linalg.eigh(want_cov)
        order = np.argsort(vals)[::-1][:2]
        c = vecs[:, order].T
        for r in range(2):
            j = int(np.argmax(np.abs(c[r])))
            if c[r, j] < 0:
                c[r] = -c[r]
        want = x @ c.T
        got = (
            proj_ds.to_pandas().sort_values("vec_id")["pc"].tolist()
        )
        got = np.array([np.asarray(g) for g in got])
        assert np.allclose(got, want, atol=1e-8)

    def test_projection_reduces_dim(self):
        from bioie_llm_ray.stages.similarity import pca_project

        rng = np.random.RandomState(43)
        df = pd.DataFrame(
            {
                "vec_id": np.arange(50, dtype=np.int64),
                "embedding": [row for row in rng.randn(50, 12)],
            }
        )
        proj_ds, comps, _ = pca_project(ray.data.from_pandas(df), k=3)
        row = proj_ds.take(1)[0]
        assert len(row["pc"]) == 3


class TestProductQuantization:
    """Fused PQ training == per-subspace distributed_kmeans (bit parity)."""

    @staticmethod
    def _blob_ds(n=120, dim=16, seed=19):
        rng = np.random.RandomState(seed)
        X = (rng.randn(n, dim) * 3).astype(np.float32)
        return (
            ray.data.from_items(
                [{"vec_id": i, "embedding": X[i].tolist()} for i in range(n)]
            ).repartition(4),
            X,
        )

    def test_fused_equals_per_subspace_kmeans(self):
        from bioie_llm_ray.stages.similarity import (
            distributed_kmeans,
            train_pq,
        )

        ds, X = self._blob_ds()
        m, k, iters = 4, 3, 2
        books = train_pq(ds, m=m, k=k, n_iters=iters)
        dsub = X.shape[1] // m
        for s in range(m):
            sliced = ds.map_batches(
                lambda b, s=s: pa.table(
                    {
                        "vec_id": b["vec_id"],
                        "embedding": pa.array(
                            [
                                v[s * dsub : (s + 1) * dsub]
                                for v in b["embedding"].to_pylist()
                            ]
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            want = distributed_kmeans(sliced, k=k, n_iters=iters)
            np.testing.assert_allclose(books[s], want, rtol=0, atol=0)

    def test_encode_matches_brute_argmin(self):
        from bioie_llm_ray.stages.similarity import pq_encode, train_pq

        ds, X = self._blob_ds(n=60)
        books = train_pq(ds, m=4, k=4, n_iters=2)
        got = (
            pq_encode(ds, books)
            .to_pandas()
            .sort_values(["vec_id", "sub"])["code"]
            .to_numpy()
            .reshape(60, 4)
        )
        dsub = X.shape[1] // 4
        for s in range(4):
            xs = X[:, s * dsub : (s + 1) * dsub].astype(np.float64)
            d2 = ((xs[:, None, :] - books[s][None, :, :]) ** 2).sum(-1)
            assert (got[:, s] == np.argmin(d2, axis=1)).all()

    def test_indivisible_dim_raises(self):
        from bioie_llm_ray.stages.similarity import train_pq

        ds, _ = self._blob_ds(dim=10)
        with pytest.raises(ValueError):
            train_pq(ds, m=4, k=2, n_iters=1)


class TestHashEmbedder:
    def test_actor_pool_stage_matches_driver_twin(self):
        import pyarrow as pa

        from bioie_llm_ray.stages.embed import HashEmbedder, embed_texts

        texts = ["spark join stream", "", "hash table scan"]
        ds = ray.data.from_arrow(
            pa.table({"chunk_text": texts, "chunk_key": [0, 1, 2]})
        )
        out = (
            ds.map_batches(
                HashEmbedder,
                fn_constructor_kwargs={"text_col": "chunk_text", "dim": 8},
                concurrency=1,
                batch_format="pyarrow",
            )
            .to_pandas()
            .sort_values("chunk_key")
        )
        got = np.stack(out["embedding"].to_numpy())
        want = embed_texts(texts, dim=8)
        np.testing.assert_array_equal(got, want)
        # every component is a digest byte / 256 — bounded in [0, 1)
        assert (got >= 0).all() and (got < 1).all()

    def test_dim_cap(self):
        import pytest as _pytest

        from bioie_llm_ray.stages.embed import HashEmbedder

        with _pytest.raises(ValueError):
            HashEmbedder(dim=17)


class TestRagScaleStress:
    def test_200k_doc_retrieval_planted_hit(self):
        """200k documents stream through chunk -> actor-pool embed ->
        broadcast-query top-k: nothing corpus-sized reaches the driver
        (the merge sees <= (k+1) rows per block), and the planted doc whose
        chunk text equals the query ranks first at cosine 1.0."""
        import pyarrow.compute as pc_

        from bioie_llm_ray.functions.text import chunk_documents
        from bioie_llm_ray.stages.embed import HashEmbedder, embed_texts
        from bioie_llm_ray.stages.similarity import brute_force_topk

        n_docs, planted = 200_000, 123_457

        def make(batch):
            ids = np.asarray(batch["id"], dtype=np.int64)
            texts = [
                "spark join stream"
                if i == planted
                else f"w{i} x{i % 97} y{i % 31} z{i % 7}"
                for i in ids
            ]
            return pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})

        docs = ray.data.range(n_docs).map_batches(make, batch_format="numpy")
        chunks = docs.map_batches(
            lambda b: chunk_documents(b), batch_format="pyarrow"
        )

        def add_key(b: pa.Table) -> pa.Table:
            key = pc_.add(
                pc_.multiply(
                    pc_.cast(b["doc_id"], pa.int64()),
                    pa.scalar(100000, type=pa.int64()),
                ),
                b["chunk_id"],
            )
            return b.append_column("chunk_key", key)

        embedded = (
            chunks.map_batches(add_key, batch_format="pyarrow")
            .map_batches(
                HashEmbedder,
                fn_constructor_kwargs={"text_col": "chunk_text", "dim": 8},
                concurrency=2,
                batch_format="pyarrow",
            )
            .select_columns(["chunk_key", "embedding"])
        )
        q = embed_texts(["spark join stream"], dim=8)
        out = brute_force_topk(
            embedded,
            q,
            [0],
            k=3,
            emb_col="embedding",
            id_col="chunk_key",
            exclude_self=False,
        ).to_pandas()
        assert len(out) == 3
        top = out[out["rank"] == 1].iloc[0]
        assert top["neighbor_id"] == planted * 100000
        assert abs(top["cosine"] - 1.0) < 1e-12


class TestLshTopk:
    """Sign-LSH banded ANN (`similarity.lsh_topk`)."""

    def test_sign_margin_is_safe(self, sf_dir):
        """Every plane dot over the corpus clears summation-reorder noise
        by >= 9 orders of magnitude, so BLAS (Ray) and sequential
        (DuckDB list_dot_product) summation produce identical sign bits."""
        import pyarrow.parquet as pq

        from bioie_llm_ray.stages.similarity import lsh_signs

        t = pq.read_table(f"{sf_dir}/embeddings.parquet")
        emb = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        signs = lsh_signs(16, emb.shape[1])
        dots = emb @ signs.T
        assert np.abs(dots).min() > 1e-6

    def test_candidates_share_a_band_and_recall(self, sf_dir):
        import pyarrow.parquet as pq

        from bioie_llm_ray.pipelines.analytics import knn_bruteforce, knn_lsh
        from bioie_llm_ray.stages.similarity import _band_values, lsh_signs

        ann = knn_lsh(sf_dir)
        exact = knn_bruteforce(sf_dir)
        assert list(ann.columns) == ["query_id", "neighbor_id", "rank", "cosine"]

        t = pq.read_table(f"{sf_dir}/embeddings.parquet")
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        emb = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        bands = _band_values(emb, lsh_signs(16, emb.shape[1]), 4)
        by_id = {int(i): bands[j] for j, i in enumerate(ids)}
        for q, n in zip(ann["query_id"], ann["neighbor_id"]):
            assert (by_id[int(q)] == by_id[int(n)]).any()

        key = lambda df: set(zip(df["query_id"], df["neighbor_id"]))
        recall = len(key(ann) & key(exact)) / len(key(exact))
        assert 0.3 <= recall <= 1.0


class TestLshStore:
    def test_store_equals_scan(self, sf_dir, tmp_path):
        """The persisted per-band LSH index returns exactly the scan-side
        lsh_topk answer (same candidate rule, cosines, tie-breaks), while
        only reading the queries' (band, bval) partitions."""
        import os

        import ray.data

        from bioie_llm_ray.stages.similarity import lsh_topk
        from bioie_llm_ray.state.lsh_store import (
            build_lsh_store,
            lsh_store_topk,
        )

        ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
        store = str(tmp_path / "lsh")
        build_lsh_store(ds, store)
        rows = sorted(
            ds.filter(expr="vec_id < 6").take_all(), key=lambda r: r["vec_id"]
        )
        q = np.stack([np.asarray(r["embedding"]) for r in rows])
        qids = [r["vec_id"] for r in rows]
        got = lsh_store_topk(store, q, qids, k=5).to_pandas()
        want = lsh_topk(ds, q, qids, k=5).to_pandas()
        pd.testing.assert_frame_equal(got, want)
        # the layout really is one hash table per band
        bands = [d for d in os.listdir(store) if d.startswith("band=")]
        assert len(bands) == 4


class TestBatchVectorizedMinhash:
    def test_batch_shingles_match_per_doc(self):
        """The batch-vectorized shingle builder returns, per doc, exactly
        the ``_token_hashes`` array (order included) across every token
        regime: empty, whitespace-only, 1/2-token, duplicates, unicode
        whitespace, long docs."""
        import pyarrow as pa

        from bioie_llm_ray.stages.neardup import (
            _batch_shingle_hashes,
            _token_hashes,
        )

        docs = [
            "",
            "  \t\n",
            "one",
            "one two",
            "a b c d e f g",
            " lead\ttab\n",
            "x " + "y " * 60,
            "dup dup dup dup",
            "uni space here",
            "a  b   c",
        ]
        S, soff = _batch_shingle_hashes(pa.array(docs), 3)
        for d, t in enumerate(docs):
            want = _token_hashes(t, 3)
            got = S[soff[d] : soff[d + 1]]
            assert np.array_equal(got, want), (d, t)

    def test_bands_match_per_doc_reference(self, sf_dir):
        """minhash_bands_batch (vectorized) is bit-identical to the
        per-doc ``minhash_signature`` + md5 reference path."""
        import hashlib

        import pyarrow as pa
        import pyarrow.parquet as pq

        from bioie_llm_ray.stages.neardup import (
            _cached_minhash_params,
            minhash_bands_batch,
            minhash_signature,
        )

        tbl = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ).slice(0, 120)
        a, b = _cached_minhash_params(64)
        got = minhash_bands_batch(tbl)
        out_id, out_band, out_hash = [], [], []
        for i, t in zip(
            tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()
        ):
            sig = minhash_signature(t, a, b, 3)
            bands = sig.reshape(16, 4)
            for bi in range(16):
                out_id.append(i)
                out_band.append(bi)
                # band key = first 8 md5 bytes big-endian as wrapped int64
                out_hash.append(
                    np.uint64(
                        int.from_bytes(
                            hashlib.md5(bands[bi].tobytes()).digest()[:8],
                            "big",
                        )
                    ).astype(np.int64)
                )
        want = pa.table(
            {
                "doc_id": pa.array(out_id),
                "band_id": pa.array(out_band, type=pa.int32()),
                "band_hash": pa.array(
                    np.array(out_hash, dtype=np.int64)
                ),
            }
        )
        assert got.equals(want)

    @pytest.mark.parametrize("chunk", [7, 1 << 14])
    def test_long_doc_sliced_equals_unsliced(self, monkeypatch, chunk):
        """A doc longer than ``_SIG_CHUNK`` is hashed one slice at a time;
        its bands, its neighbours' bands and its ``minhash_signature``
        equal one unsliced pass."""
        from bioie_llm_ray.stages import neardup

        rng = np.random.RandomState(3)
        long_doc = " ".join(f"w{i}" for i in rng.randint(0, 3000, 2 * chunk + 5))
        texts = pa.array(["short doc here", long_doc, "tiny", "", long_doc[:200]])
        a, b = neardup._minhash_params(64)
        args = (list(range(5)), texts, a, b, "doc_id", 16, 4, 3)
        monkeypatch.setattr(neardup, "_SIG_CHUNK", chunk)
        sliced = neardup._bands_table(*args)
        sliced_sig = neardup.minhash_signature(long_doc, a, b, 3)
        monkeypatch.setattr(neardup, "_SIG_CHUNK", 1 << 40)
        assert sliced.equals(neardup._bands_table(*args))
        assert np.array_equal(
            sliced_sig, neardup.minhash_signature(long_doc, a, b, 3)
        )

    def test_long_doc_peak_rss_is_bounded(self):
        """One 8 MB doc through ``_bands_table`` raised peak RSS by about
        1.5 GiB when a whole doc was hashed in one (n_perm × shingles)
        matrix; the sliced kernel must stay under a quarter of that."""
        import os
        import subprocess
        import sys
        import textwrap

        code = textwrap.dedent(
            """
            import resource
            import numpy as np
            import pyarrow as pa
            from bioie_llm_ray.stages.neardup import _bands_table, _minhash_params
            rng = np.random.RandomState(0)
            block = " ".join(f"w{i}" for i in rng.randint(0, 5000, 20000)) + " "
            texts = pa.array([block * (8_000_000 // len(block))])
            a, b = _minhash_params(64)
            base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _bands_table([0], texts, a, b, "doc_id", 16, 4, 3)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((peak - base) // 1024)
            """
        )
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=repo, capture_output=True,
            text=True, timeout=300, check=True,
        )
        assert int(out.stdout.split()[-1]) <= 1572 // 4, out.stdout
