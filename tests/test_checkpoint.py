"""Resumable checkpoints: atomicity, skip-completed, lineage manifests."""

import json
import os

import pyarrow.parquet as pq
import pytest
import ray

from bioie_llm_ray import fixtures
from bioie_llm_ray.pipelines.kg import run_flagship_resumable
from bioie_llm_ray.state import checkpoint


def _mini_ds(n: int):
    return ray.data.from_items([{"x": i, "part": n} for i in range(5)])


class TestCheckpointCore:
    def test_write_and_read_back(self, tmp_path):
        root = str(tmp_path / "ck")
        m = checkpoint.write_partition(root, "p0", _mini_ds(0), {"src": "a"})
        assert m["n_rows"] == 5
        assert checkpoint.is_complete(root, "p0")
        assert checkpoint.completed_partitions(root) == ["p0"]
        ds = checkpoint.read_checkpoint(root)
        assert ds.count() == 5
        with open(os.path.join(root, "part=p0", "MANIFEST.json")) as f:
            manifest = json.load(f)
        assert manifest["lineage"] == {"src": "a"}
        assert manifest["rows_per_sec"] is not None

    def test_resume_skips_completed(self, tmp_path):
        root = str(tmp_path / "ck")
        calls = []

        def make(i):
            def build():
                calls.append(i)
                return _mini_ds(i)

            return build

        out1 = checkpoint.run_resumable(
            root, [("a", make(1)), ("b", make(2))]
        )
        assert out1["completed"] == ["a", "b"]
        out2 = checkpoint.run_resumable(
            root, [("a", make(1)), ("b", make(2)), ("c", make(3))]
        )
        assert out2["skipped"] == ["a", "b"]
        assert out2["completed"] == ["c"]
        assert calls == [1, 2, 3]  # a and b built exactly once

    def test_crash_mid_partition_leaves_no_partial(self, tmp_path):
        root = str(tmp_path / "ck")

        def boom():
            raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            checkpoint.run_resumable(root, [("a", _mini_ds_ok), ("b", boom)])
        # a completed, b left nothing visible
        assert checkpoint.completed_partitions(root) == ["a"]
        visible = [d for d in os.listdir(root) if d.startswith("part=")]
        assert visible == ["part=a"]
        # resume finishes b
        out = checkpoint.run_resumable(
            root, [("a", _mini_ds_ok), ("b", _mini_ds_ok)]
        )
        assert out["skipped"] == ["a"] and out["completed"] == ["b"]

    def test_lineage_mismatch_refuses_silent_skip(self, tmp_path):
        """ADVICE: a rerun with a different vocab/model against the same out
        dir must not mix configurations under a stale manifest."""
        root = str(tmp_path / "ck")
        v1 = lambda p: {"vocab": "v1", "model": "m"}  # noqa: E731
        v2 = lambda p: {"vocab": "v2", "model": "m"}  # noqa: E731
        checkpoint.run_resumable(root, [("a", _mini_ds_ok)], lineage_fn=v1)
        # same lineage → clean skip
        out = checkpoint.run_resumable(root, [("a", _mini_ds_ok)], lineage_fn=v1)
        assert out["skipped"] == ["a"]
        # changed lineage → hard error by default
        with pytest.raises(checkpoint.LineageMismatch, match="vocab"):
            checkpoint.run_resumable(root, [("a", _mini_ds_ok)], lineage_fn=v2)
        # or explicit recompute
        out = checkpoint.run_resumable(
            root,
            [("a", _mini_ds_ok)],
            lineage_fn=v2,
            on_lineage_mismatch="recompute",
        )
        assert out["completed"] == ["a"]
        assert checkpoint.read_manifest(root, "a")["lineage"]["vocab"] == "v2"


def _mini_ds_ok():
    return ray.data.from_items([{"x": 1}])


class TestFlagshipResumable:
    def test_partition_per_file_with_lineage(self, tmp_path):
        base = str(tmp_path / "fx")
        kb = fixtures.write_all(base, n_docs=40)
        docs_path = os.path.join(base, "docs", "docs.parquet")
        # split the docs file into two partition files
        t = pq.read_table(docs_path)
        p1 = str(tmp_path / "docs_a.parquet")
        p2 = str(tmp_path / "docs_b.parquet")
        pq.write_table(t.slice(0, 20), p1)
        pq.write_table(t.slice(20), p2)

        root = str(tmp_path / "out")
        res = run_flagship_resumable([p1, p2], vocab=kb.proteins, out_root=root)
        assert len(res["completed"]) == 2
        for m in res["manifests"].values():
            assert m["lineage"]["vocab_sha256"]
            assert m["lineage"]["model_id"] == "mock-vocab-scorer"
            assert m["lineage"]["source_path"] in (p1, p2)

        # rerun: everything skipped, outputs unchanged
        before = checkpoint.read_checkpoint(root).count()
        res2 = run_flagship_resumable([p1, p2], vocab=kb.proteins, out_root=root)
        assert len(res2["skipped"]) == 2 and not res2["completed"]
        assert checkpoint.read_checkpoint(root).count() == before
        # triples match the single-shot pipeline over the full file
        from bioie_llm_ray.pipelines.kg import run_flagship

        whole = {
            (r["subj"], r["pred"], r["obj"])
            for r in run_flagship(docs_path, vocab=kb.proteins).take_all()
        }
        parts = {
            (r["subj"], r["pred"], r["obj"])
            for r in checkpoint.read_checkpoint(root).take_all()
        }
        assert parts == whole


class TestCompaction:
    def test_compacts_small_files_preserving_content(self, tmp_path):
        import os

        import pandas as pd
        import ray

        from bioie_llm_ray.state import checkpoint as cp

        root = str(tmp_path)
        df = pd.DataFrame({"k": range(200), "v": [f"s{i}" for i in range(200)]})
        # 16 tiny files
        ds = ray.data.from_pandas(df).repartition(16)
        cp.write_partition(root, "p0", ds, lineage={"src": "test"})
        before = [
            f for f in os.listdir(os.path.join(root, "part=p0"))
            if f.endswith(".parquet")
        ]
        assert len(before) > 2

        man = cp.compact_partition(root, "p0", target_bytes_per_file=1 << 30)
        after = [
            f for f in os.listdir(os.path.join(root, "part=p0"))
            if f.endswith(".parquet")
        ]
        assert len(after) == 1
        assert man["compaction"]["files_before"] == len(before)
        assert man["compaction"]["files_after"] == 1
        assert man["lineage"] == {"src": "test"}  # lineage untouched
        # content identical ("part" is hive-path inference, not data)
        got = (
            cp.read_checkpoint(root, columns=["k", "v"])
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, df)
        # stored manifest reflects the compaction
        assert cp.read_manifest(root, "p0")["compaction"]["files_after"] == 1

    def test_noop_when_already_compact(self, tmp_path):
        import os

        import pandas as pd
        import ray

        from bioie_llm_ray.state import checkpoint as cp

        root = str(tmp_path)
        ds = ray.data.from_pandas(pd.DataFrame({"k": range(10)})).repartition(1)
        cp.write_partition(root, "p0", ds)
        man = cp.compact_partition(root, "p0")
        assert "compaction" not in man


class TestSchemaEvolution:
    def test_old_partitions_null_fill_new_columns(self, tmp_path):
        """Partitions written before a column existed read back with it
        null-filled and typed; extra on-disk columns drop; values cast."""
        import pyarrow as pa

        root = str(tmp_path / "ck")
        old = ray.data.from_items([{"x": i, "legacy": "old"} for i in range(3)])
        new = ray.data.from_items(
            [{"x": 10 + i, "score": float(i)} for i in range(2)]
        )
        checkpoint.write_partition(root, "p0", old, {"v": 1})
        checkpoint.write_partition(root, "p1", new, {"v": 2})
        target = pa.schema(
            [("x", pa.int64()), ("score", pa.float64())]
        )
        out = checkpoint.read_checkpoint(root, evolve_schema=target)
        df = out.to_pandas().sort_values("x").reset_index(drop=True)
        assert list(df.columns) == ["x", "score"]
        assert df["score"].isna().sum() == 3  # old partition null-filled
        assert df["score"].dropna().tolist() == [0.0, 1.0]
        assert "legacy" not in df.columns


class TestEmptyPartition:
    def test_zero_row_partition_completes_and_is_skipped(self, tmp_path):
        root = str(tmp_path / "ck")
        calls = []

        def build():
            calls.append(1)
            return _mini_ds(0).filter(lambda r: r["x"] < 0)

        out1 = checkpoint.run_resumable(root, [("empty", build)])
        assert out1["completed"] == ["empty"]
        assert out1["manifests"]["empty"]["n_rows"] == 0
        assert checkpoint.read_manifest(root, "empty")["n_rows"] == 0
        out2 = checkpoint.run_resumable(root, [("empty", build)])
        assert out2["skipped"] == ["empty"]
        assert calls == [1]
