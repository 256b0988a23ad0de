"""The flagship's one-task path (``pipelines.kg.run_flagship_resumable``).

A shard that fits one bucket is one plain Ray task: read → sha256 →
extract + link → first-per-key → write.  These tests hold it to the
streaming Dataset path, which a caller's ``n_buckets`` still forces:

- per partition the same distinct triples, the same manifest keys and the
  same row counts as the Dataset path;
- each kept ``src_sha`` is its triple's first occurrence in file order;
- a shard with no mention commits zero rows and is skipped on rerun;
- a failing shard leaves every other partition committed, no ``part=``
  directory of its own, and a resume rebuilds only it;
- passes run no Dataset, so Ray Data's driver-side function cache does
  not grow from pass to pass.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bioie_llm_ray import fixtures
from bioie_llm_ray.functions.hashing import add_sha256_column
from bioie_llm_ray.pipelines.kg import TripleExtractor, run_flagship_resumable
from bioie_llm_ray.stages.linker import build_alias_index
from bioie_llm_ray.state import checkpoint

_TRIPLE = ["subj", "pred", "obj"]


def _pid(path: str) -> str:
    return hashlib.md5(path.encode()).hexdigest()[:12]


def _partition(root: str, pid: str) -> pd.DataFrame:
    d = os.path.join(root, f"part={pid}")
    files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    if not files:
        return pd.DataFrame(columns=["src_sha"] + _TRIPLE)
    return pd.concat(
        [pq.read_table(os.path.join(d, f)).to_pandas() for f in files],
        ignore_index=True,
    )


def _triples(df: pd.DataFrame) -> set:
    return set(map(tuple, df[_TRIPLE].values.tolist()))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Three docs shards with hub entities and an alias index, plus one
    shard that mentions no vocabulary term."""
    base = tmp_path_factory.mktemp("shards")
    kb = fixtures.make_kb(n_proteins=120, seed=7)
    docs, _ = fixtures.make_docs_table(kb, n_rows=450, seed=8)
    paths = []
    for i in range(3):
        p = str(base / f"docs_{i}.parquet")
        pq.write_table(docs.slice(i * 150, 150), p)
        paths.append(p)
    empty = str(base / "docs_empty.parquet")
    pq.write_table(pa.table({"content": ["no protein here", "nor here"]}), empty)
    alias_index = build_alias_index(
        {p: kb.protein_ids[p] for p in kb.proteins}
    )
    return {"paths": paths + [empty], "vocab": kb.proteins, "alias": alias_index}


def _run(corpus, root: str, **kwargs) -> dict:
    return run_flagship_resumable(
        corpus["paths"], corpus["vocab"], root, alias_index=corpus["alias"], **kwargs
    )


def test_one_task_path_matches_dataset_path(corpus, tmp_path):
    tasks_root, ds_root = str(tmp_path / "tasks"), str(tmp_path / "ds")
    tasks = _run(corpus, tasks_root)
    streamed = _run(corpus, ds_root, n_buckets=16)
    pids = sorted(_pid(p) for p in corpus["paths"])
    assert sorted(tasks["completed"]) == sorted(streamed["completed"]) == pids

    for pid in pids:
        mt, ms = tasks["manifests"][pid], streamed["manifests"][pid]
        assert mt.keys() == ms.keys()
        assert mt["n_rows"] == ms["n_rows"]
        assert mt["lineage"] == ms["lineage"]
        assert checkpoint.read_manifest(tasks_root, pid) == mt
        got = _partition(tasks_root, pid)
        assert _triples(got) == _triples(_partition(ds_root, pid))
        assert not got.duplicated(_TRIPLE).any()

    # each kept src_sha is its triple's first occurrence in file order
    extract = TripleExtractor(corpus["vocab"], alias_index=corpus["alias"])
    for path in corpus["paths"]:
        raw = extract(add_sha256_column(pq.read_table(path))).to_pandas()
        want = (
            raw.rename(columns={"content_sha256": "src_sha"})
            .drop_duplicates(_TRIPLE, keep="first")
            .reset_index(drop=True)
        )
        got = _partition(tasks_root, _pid(path))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_zero_mention_shard_commits_empty_and_is_skipped(corpus, tmp_path):
    root = str(tmp_path / "out")
    empty = _pid(corpus["paths"][-1])
    first = _run(corpus, root)
    assert first["manifests"][empty]["n_rows"] == 0
    again = _run(corpus, root)
    assert again["completed"] == []
    assert sorted(again["skipped"]) == sorted(_pid(p) for p in corpus["paths"])


def test_failed_shard_leaves_others_committed(corpus, tmp_path):
    paths = list(corpus["paths"][:3])
    bad = str(tmp_path / "docs_bad.parquet")
    with open(bad, "wb") as f:
        f.write(b"not a parquet file")
    root = str(tmp_path / "out")

    def run():
        return run_flagship_resumable(
            paths + [bad], corpus["vocab"], root, alias_index=corpus["alias"]
        )

    with pytest.raises(Exception, match="(?i)parquet"):
        run()
    good = sorted(_pid(p) for p in paths)
    assert checkpoint.completed_partitions(root) == good
    assert sorted(d for d in os.listdir(root) if d.startswith("part=")) == [
        f"part={pid}" for pid in good
    ]

    shutil.copy(paths[0], bad)
    res = run()
    assert res["completed"] == [_pid(bad)]
    assert sorted(res["skipped"]) == good


def test_text_col_matches_dataset_path(tmp_path):
    path = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({"text": ["TP53 binds MDM2 and BRCA1", "MDM2 with TP53", "none"]}),
        path,
    )
    vocab = ["TP53", "MDM2", "BRCA1"]
    out = {}
    for name, kw in (("tasks", {}), ("ds", {"n_buckets": 1})):
        root = str(tmp_path / name)
        res = run_flagship_resumable([path], vocab, root, text_col="text", **kw)
        assert res["completed"] == [_pid(path)]
        out[name] = _partition(root, _pid(path))
    pd.testing.assert_frame_equal(out["tasks"], out["ds"], check_dtype=False)
    assert _triples(out["tasks"]) == {
        ("TP53", "interacts_with", "MDM2"),
        ("TP53", "interacts_with", "BRCA1"),
        ("MDM2", "interacts_with", "TP53"),
    }


def test_passes_leave_ray_data_function_cache_alone(corpus, tmp_path):
    from ray.data._internal import remote_fn

    root = str(tmp_path / "out")
    _run(corpus, root)
    n = len(remote_fn.CACHED_FUNCTIONS)
    for _ in range(5):
        shutil.rmtree(root)
        _run(corpus, root)
    assert len(remote_fn.CACHED_FUNCTIONS) == n
