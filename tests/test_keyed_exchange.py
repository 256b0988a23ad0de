"""The keyed exchange (``stages.exchange.keyed_exchange``) and the dedup
family built on it.

- The one-bucket path (no exchange) gives the same rows as the bucketed
  groupby for every stage that takes a bucket count, in both batch formats.
- At testdata scale the dedup queries run with no exchange and no actor
  pool, each near-dup pair query is one plan with one task after the
  read, and ``dedup_simhash`` finishes on a 1- and a 2-CPU session.
- Empty results keep their declared columns.
- The vectorized prefix-filter kernels of ``ngram_jaccard_pairs`` equal
  the per-doc and per-run loops, and the one-bucket MinHash pair query
  hashes in slices, so its peak RSS stays bounded on a large block.
- The vectorized SimHash kernel equals the per-doc vote loop, and
  ``simhash_dedup`` drops docs without a word token as its oracle does.
- The flagship dedup: ``salted_dedup`` at B = 1 equals B = 64, the
  vectorized dedup key equals the per-row join, and a checkpointed
  flagship partition that fits one bucket runs with no Dataset at all.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

import __ray_entry__
from bioie_llm_ray.pipelines import analytics
from bioie_llm_ray.pipelines.kg import dedup_buckets, run_flagship_resumable
from bioie_llm_ray.stages.dedup import _add_key_column, exact_dedup, salted_dedup
from bioie_llm_ray.stages.exchange import (
    _BYTES_PER_BUCKET,
    _PARQUET_EXPANSION,
    keyed_exchange,
    n_buckets_for_bytes,
)
from bioie_llm_ray.stages.blocking import token_blocking_pairs
from bioie_llm_ray.stages.editdist import edit_distance_pairs
from bioie_llm_ray.stages.neardup import (
    _EMPTY_HASH,
    _SIG_CHUNK,
    SimHasher,
    _prefix_pairs,
    _prefix_rows,
    _token_hashes,
    embedding_neardup_pairs,
    minhash_lsh_candidates,
    minhash_neardup_pairs,
    ngram_containment_pairs,
    ngram_jaccard_pairs,
    simhash_dedup,
    simhash_fingerprints,
    simhash_neardup_pairs,
    verify_jaccard_pairs_join,
)
from bioie_llm_ray.stages.rollup import grouped_agg, pivot_counts
from bioie_llm_ray.stages.sketch import (
    grouped_quantiles_cont,
    grouped_quantiles_discrete,
)
from bioie_llm_ray.stages.window import (
    funnel_counts,
    grouped_ranks,
    grouped_top_k,
    sessionize,
    sliding_window_counts,
)

DEDUP_QUERIES = ["doc_dedup_exact", "dedup_minhash", "dedup_simhash", "dedup_jaccard"]


def _table(sf: str, table: str, columns: list[str]) -> ray.data.Dataset:
    return ray.data.read_parquet(
        os.path.join(sf, f"{table}.parquet"),
        columns=columns,
        override_num_blocks=4,
    )


def _docs(sf: str) -> ray.data.Dataset:
    return _table(sf, "documents", ["doc_id", "text"])


def _events(sf: str, columns: list[str]) -> ray.data.Dataset:
    return _table(sf, "events", columns)


def _rows(out) -> pd.DataFrame:
    """A stage's rows in a canonical order.  Floats are rounded to 9
    places: a pair's cosine is a BLAS dot product whose last bit may
    depend on the shape of the block it was computed in."""
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    df = df.round(9)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _embedding_pairs(sf: str, b: int) -> ray.data.Dataset:
    ds = _table(sf, "embeddings", ["vec_id", "embedding"])
    dim = len(ds.take(1)[0]["embedding"])
    # the test corpus's closest pair has cosine 0.51: wide LSH buckets and
    # a low threshold so that the stage finds pairs at all
    return embedding_neardup_pairs(
        ds, dim=dim, threshold=0.4, n_planes=4, n_hash_buckets=b
    )


def _len_keyed(sf: str) -> ray.data.Dataset:
    # nested, so that Ray ships the function by value: workers cannot
    # import this test module
    def key(t: pa.Table) -> pa.Table:
        lens = [len(x) % 17 for x in t["text"].to_pylist()]
        return pa.table({"k": pa.array(lens, type=pa.int64()), "doc_id": t["doc_id"]})

    return _docs(sf).map_batches(key, batch_format="pyarrow")


# Each entry runs one stage with bucket count b on the corpus in sf.
# exact_dedup keeps whichever copy of a key it meets first, so its input
# is the text column alone: every copy of a key is then the same row.
STAGES = {
    "exact_dedup": lambda sf, b: exact_dedup(
        _docs(sf).select_columns(["text"]), ["text"], b
    ),
    "grouped_agg": lambda sf, b: grouped_agg(
        _len_keyed(sf),
        keys=["k"],
        aggs={
            "n": ("doc_id", "count"),
            "lo": ("doc_id", "min"),
            "hi": ("doc_id", "max"),
            "total": ("doc_id", "sum"),
        },
        n_buckets=b,
        partial=True,
    ),
    "minhash_lsh_candidates": lambda sf, b: minhash_lsh_candidates(
        _docs(sf), n_hash_buckets=b
    ),
    "minhash_neardup_pairs": lambda sf, b: minhash_neardup_pairs(
        _docs(sf), threshold=0.5, n_hash_buckets=b, n_buckets=b
    ),
    "simhash_dedup": lambda sf, b: simhash_dedup(_docs(sf), n_hash_buckets=b),
    "ngram_jaccard_pairs": lambda sf, b: ngram_jaccard_pairs(
        _docs(sf), threshold=0.5, n_hash_buckets=b, n_buckets=b
    ),
    "verify_jaccard_pairs_join[broadcast]": lambda sf, b: verify_jaccard_pairs_join(
        minhash_lsh_candidates(_docs(sf)), _docs(sf), threshold=0.5, n_buckets=b
    ),
    "verify_jaccard_pairs_join[shuffle_join]": lambda sf, b: verify_jaccard_pairs_join(
        minhash_lsh_candidates(_docs(sf)),
        _docs(sf),
        threshold=0.5,
        n_buckets=b,
        max_broadcast_ids=0,
    ),
    "simhash_neardup_pairs": lambda sf, b: simhash_neardup_pairs(
        _docs(sf), n_hash_buckets=b
    ),
    "embedding_neardup_pairs": _embedding_pairs,
    "ngram_containment_pairs": lambda sf, b: ngram_containment_pairs(
        _docs(sf), threshold=0.6, n_hash_buckets=b, n_buckets=b
    ),
    "ngram_containment_pairs[shuffle_join]": lambda sf, b: ngram_containment_pairs(
        _docs(sf), threshold=0.6, n_hash_buckets=b, n_buckets=b,
        max_broadcast_ids=0,
    ),
    "token_blocking_pairs": lambda sf, b: token_blocking_pairs(
        _docs(sf), n_buckets=b
    ),
    "edit_distance_pairs[deletion]": lambda sf, b: edit_distance_pairs(
        _table(sf, "supplier", ["s_suppkey", "s_name"]),
        "s_name", "s_suppkey", n_buckets=b,
    ),
    "edit_distance_pairs[segment]": lambda sf, b: edit_distance_pairs(
        _table(sf, "supplier", ["s_suppkey", "s_name"]),
        "s_name", "s_suppkey", n_buckets=b, method="segment",
    ),
    "pivot_counts": lambda sf, b: pivot_counts(
        _events(sf, ["user_id", "event_type"]),
        "user_id",
        "event_type",
        values=["view", "click", "purchase", "signup", "error"],
        n_buckets=b,
    ),
    "grouped_top_k": lambda sf, b: grouped_top_k(
        _events(sf, ["event_id", "user_id", "value"]),
        "user_id", "value", 3, tie_cols=["event_id"], n_buckets=b,
    ),
    "grouped_ranks": lambda sf, b: grouped_ranks(
        _events(sf, ["event_id", "user_id", "value"]),
        "user_id", "value", tiebreak=["event_id"], n_buckets=b,
    ),
    "sessionize": lambda sf, b: sessionize(
        _events(sf, ["user_id", "ts"]), "user_id", "ts", n_buckets=b
    ),
    "sliding_window_counts": lambda sf, b: sliding_window_counts(
        _events(sf, ["user_id", "ts"]), "user_id", "ts", n_buckets=b
    ),
    "funnel_counts": lambda sf, b: funnel_counts(
        _events(sf, ["user_id", "ts", "event_type"]),
        ["view", "click", "purchase"],
        n_buckets=b,
    ),
    "grouped_quantiles_discrete": lambda sf, b: grouped_quantiles_discrete(
        _events(sf, ["event_type", "value"]),
        "event_type", "value", [0.25, 0.5, 0.9], n_buckets=b,
    ),
    "grouped_quantiles_cont": lambda sf, b: grouped_quantiles_cont(
        _events(sf, ["event_type", "value"]),
        "event_type", "value", [0.25, 0.5, 0.9], n_buckets=b,
    ),
}


class TestExchangePathParity:
    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_one_bucket_equals_sixteen(self, stage, sf_dir_mid):
        one = _rows(STAGES[stage](sf_dir_mid, 1))
        sixteen = _rows(STAGES[stage](sf_dir_mid, 16))
        assert len(one) > 0
        pd.testing.assert_frame_equal(one, sixteen)

    @pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
    @pytest.mark.parametrize("n_buckets", [1, 16])
    def test_empty_input(self, n_buckets, batch_format):
        ds = ray.data.from_arrow(pa.table({"k": pa.array([], type=pa.int64())}))
        out = keyed_exchange(
            ds, ["k"], lambda t: t, n_buckets, batch_format=batch_format
        )
        assert out.count() == 0

    @pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
    def test_one_bucket_calls_kernel_once_over_all_rows(self, batch_format):
        ds = ray.data.range(100, override_num_blocks=5)
        out = keyed_exchange(
            ds,
            ["id"],
            lambda t: pd.DataFrame({"rows": [len(t)]}),
            1,
            batch_format=batch_format,
        )
        assert [r["rows"] for r in out.take_all()] == [100]

    @pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
    def test_kernel_sees_every_row_of_a_key_and_no_bucket_id(self, batch_format):
        """Rows route by the named key columns: each kernel call holds
        whole keys, for one key column and for two, and never the
        bucket column."""
        t = pa.table(
            {
                "a": pa.array([i % 7 for i in range(200)], type=pa.int64()),
                "b": pa.array([f"s{i % 3}" for i in range(200)]),
            }
        )
        ds = ray.data.from_arrow(t).repartition(5)

        def per_key(batch):
            df = batch if isinstance(batch, pd.DataFrame) else batch.to_pandas()
            assert list(df.columns) == ["a", "b"]
            return df.groupby(["a", "b"], as_index=False).size()

        for keys in (["a"], ["a", "b"]):
            out = keyed_exchange(ds, keys, per_key, 4, batch_format=batch_format)
            got = out.to_pandas()
            # a key split across two calls would show as two rows
            assert not got.duplicated(["a", "b"]).any()
            assert got["size"].sum() == 200


def _bucket_exchange_functions(path: str) -> set:
    """Top-level functions of ``path`` that build an exchange of their own:
    they group by, or append, a ``"__bucket"`` column (given as a literal
    or a module constant), or they run ``.groupby(...).map_groups`` on a
    Dataset derived from a ``.union`` (directly, through a chain of calls,
    or through a local name), whatever the bucket column is called."""
    import ast

    with open(path) as f:
        tree = ast.parse(f.read())
    consts = {
        t.id: n.value.value
        for n in tree.body
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.Constant)
        for t in n.targets
        if isinstance(t, ast.Name)
    }

    def is_bucket(node) -> bool:
        if isinstance(node, ast.Name):
            return consts.get(node.id) == "__bucket"
        return isinstance(node, ast.Constant) and node.value == "__bucket"

    def from_union(node, unions: set) -> bool:
        return any(
            (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "union"
            )
            or (isinstance(n, ast.Name) and n.id in unions)
            for n in ast.walk(node)
        )

    found = set()
    for top in tree.body:
        # local names bound to a value derived from a union, to a fixpoint
        unions: set = set()
        while True:
            more = {
                t.id
                for n in ast.walk(top)
                if isinstance(n, ast.Assign) and from_union(n.value, unions)
                for t in n.targets
                if isinstance(t, ast.Name)
            }
            if more <= unions:
                break
            unions |= more
        for n in ast.walk(top):
            tags = []
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                if n.func.attr in ("groupby", "append_column") and n.args:
                    tags.append(n.args[0])
                # Dataset.groupby(...).map_groups: pandas has no map_groups
                grouped = n.func.value
                if (
                    n.func.attr == "map_groups"
                    and isinstance(grouped, ast.Call)
                    and isinstance(grouped.func, ast.Attribute)
                    and grouped.func.attr == "groupby"
                    and from_union(grouped.func.value, unions)
                ):
                    found.add(top.name)
            elif isinstance(n, ast.Dict):
                tags.extend(k for k in n.keys if k is not None)
            if any(is_bucket(t) for t in tags):
                found.add(top.name)
    return found


def test_no_hand_rolled_bucket_exchange():
    """Every hash-keyed regroup, of one input or several, goes through
    ``keyed_exchange`` or ``cogroup``: no module but
    ``stages/exchange.py`` builds a ``"__bucket"`` exchange or groups a
    union of its own."""
    pkg = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "bioie_llm_ray",
    )
    found = {}
    for root, _, files in os.walk(pkg):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, pkg).replace(os.sep, "/")
            if name.endswith(".py") and rel != "stages/exchange.py":
                fns = _bucket_exchange_functions(path)
                if fns:
                    found[rel] = fns
    assert found == {}


def test_dedup_queries_run_without_exchange_or_actor_pool(executed_plans, sf_dir_mid):
    """At testdata scale every dedup query fits one bucket: its plans hold
    no shuffle, sort or aggregate operator and no actor pool."""
    with executed_plans() as plans:
        for q in DEDUP_QUERIES:
            getattr(analytics, q)(sf_dir_mid)
    assert any("MapBatches(SimHasher)" in p for p in plans), plans
    for p in plans:
        for op in ("ActorPool", "Sort", "Shuffle", "Aggregate"):
            assert op not in p, p


@pytest.mark.parametrize("query", ["dedup_minhash", "dedup_jaccard"])
def test_pair_query_is_one_task(executed_plans, sf_dir_mid, query):
    """Candidates, pair distinct and verify run in the one task after the
    read: one executed plan, one ``Repartition``, no driver round trip."""
    with executed_plans() as plans:
        getattr(analytics, query)(sf_dir_mid)
    assert len(plans) == 1, plans
    assert plans[0].count("Repartition") == 1, plans


SESSION_SCRIPT = """
import json, sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
from bioie_llm_ray.pipelines import analytics
print(json.dumps({"rows": len(analytics.dedup_simhash(sys.argv[2]))}))
"""


def _oracle(sf_dir: str, query: str) -> pd.DataFrame:
    con = duckdb.connect()
    path = os.path.join(sf_dir, "documents.parquet")
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    try:
        return con.sql(__ray_entry__.oracle_sql()[query]).df()
    finally:
        con.close()


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_dedup_simhash_finishes_on_small_session(num_cpus, sf_dir_mid):
    """SimHash must not hold the CPUs that the read tasks feeding it need."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = subprocess.Popen(
        [sys.executable, "-c", SESSION_SCRIPT, str(num_cpus), sf_dir_mid],
        cwd=repo,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = p.communicate(timeout=240)
    finally:
        # the group holds the script's whole Ray node (GCS, raylet, agents,
        # workers): end what is left of it, whether the script hung or not
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait(timeout=30)
    assert p.returncode == 0, stdout
    rows = json.loads(stdout.strip().splitlines()[-1])["rows"]
    assert rows == len(_oracle(sf_dir_mid, "dedup_simhash"))


def _write_docs(path, doc_ids, texts) -> str:
    os.makedirs(path, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
            }
        ),
        os.path.join(path, "documents.parquet"),
    )
    return str(path)


@pytest.fixture(scope="module")
def no_dup_dir(tmp_path_factory):
    # disjoint vocabularies: no two docs share a word 3-shingle
    texts = [" ".join(f"w{i}_{j}" for j in range(30)) for i in range(20)]
    return _write_docs(tmp_path_factory.mktemp("nodup"), list(range(20)), texts)


@pytest.fixture(scope="module")
def zero_row_dir(tmp_path_factory):
    return _write_docs(tmp_path_factory.mktemp("zerorow"), [], [])


class TestTypedEmptyResults:
    @pytest.mark.parametrize("query", ["dedup_minhash", "dedup_jaccard"])
    def test_no_duplicates(self, no_dup_dir, query):
        out = getattr(analytics, query)(no_dup_dir)
        assert len(out) == 0
        assert list(out.columns) == ["id_a", "id_b", "jaccard"]
        assert list(out.columns) == list(_oracle(no_dup_dir, query).columns)
        assert list(out.dtypes) == [np.int64, np.int64, np.float64]

    @pytest.mark.parametrize("query", ["dedup_components", "doc_near_dedup"])
    def test_no_duplicates_matches_oracle(self, no_dup_dir, query):
        out = getattr(analytics, query)(no_dup_dir)
        want = _oracle(no_dup_dir, query)
        assert list(out.columns) == list(want.columns)
        assert sorted(out.iloc[:, 0]) == sorted(want.iloc[:, 0])
        # no pair: no component, and every doc survives near-dedup
        assert len(out) == (20 if query == "doc_near_dedup" else 0)

    @pytest.mark.parametrize(
        "query", DEDUP_QUERIES + ["dedup_components", "doc_near_dedup"]
    )
    def test_zero_row_corpus(self, zero_row_dir, query):
        out = getattr(analytics, query)(zero_row_dir)
        assert len(out) == 0
        assert list(out.columns) == list(_oracle(zero_row_dir, query).columns)


def _simhash_loop(texts) -> list[int]:
    """The per-doc reference: one +1/-1 vote per token and bit, bit b set
    when its vote sum is positive."""
    masks = np.uint64(1) << np.arange(64, dtype=np.uint64)
    out = []
    for t in texts:
        h = _token_hashes(t, 1)
        votes = ((h[:, None] & masks) != 0).sum(axis=0) * 2 - len(h)
        out.append(int("".join("1" if v > 0 else "0" for v in votes[::-1]), 2))
    return out


class TestVectorizedSimHash:
    def test_equals_vote_loop(self):
        rng = np.random.default_rng(7)
        vocab = [f"v{i}" for i in range(300)]
        texts = [
            " ".join(rng.choice(vocab, size=int(rng.integers(1, 40))))
            for _ in range(2000)
        ]
        # empty and whitespace-only docs, and one doc longer than a slice
        # placed so that slices cut through its neighbours too
        texts[3] = ""
        texts[700] = "  \n\t "
        texts[1000] = " ".join(rng.choice(vocab, size=3 * _SIG_CHUNK + 5))
        got = simhash_fingerprints(pa.array(texts))
        assert got.dtype == np.uint64
        assert [int(x) for x in got] == _simhash_loop(texts)

    def test_ties_and_empty_docs(self):
        a, b = (int(_token_hashes(w, 1)[0]) for w in ("alpha", "beta"))
        got = simhash_fingerprints(pa.array(["alpha beta", "", "alpha"]))
        # a 1-1 vote is a tie: only bits both tokens set survive
        assert int(got[0]) == a & b
        # an empty doc votes with the hash of the empty word alone
        assert int(got[1]) == int(_EMPTY_HASH)
        assert int(got[2]) == a
        assert [int(x) for x in got] == _simhash_loop(["alpha beta", "", "alpha"])

    def test_simhasher_column(self):
        texts = ["the quick brown fox", "", "the quick brown fox jumps"]
        out = SimHasher()(pa.table({"doc_id": [1, 2, 3], "text": texts}))
        assert out.column_names == ["doc_id", "text", "simhash"]
        assert out["simhash"].type == pa.int64()
        assert out["simhash"].to_pylist() == [
            int(np.uint64(x).astype(np.int64)) for x in _simhash_loop(texts)
        ]


def _prefix_loop(texts, threshold: float):
    """Per-doc reference prefix rows: (shingle, doc index, n_sh)."""
    rows = []
    for i, t in enumerate(texts):
        u = np.unique(_token_hashes(t, 3))
        plen = len(u) - int(np.ceil(threshold * len(u))) + 1
        rows += [(int(h), i, len(u)) for h in u[:plen]]
    return rows


def _pairs_loop(rows: pa.Table, threshold: float) -> set:
    """Per-run reference: every prefix-sharing pair passing the length filter."""
    by_shingle: dict = {}
    for s, i, n in zip(*(rows[c].to_pylist() for c in ("shingle", "doc_id", "n_sh"))):
        by_shingle.setdefault(s, []).append((i, n))
    out = set()
    for run in by_shingle.values():
        for x, (ia, na) in enumerate(run):
            for ib, nb in run[x + 1 :]:
                if ia != ib and min(na, nb) >= threshold * max(na, nb):
                    out.add((min(ia, ib), max(ia, ib)))
    return out


class TestPrefixKernels:
    @pytest.fixture(scope="class")
    def corpus(self) -> pa.Table:
        rng = np.random.default_rng(11)
        vocab = [f"v{i}" for i in range(60)]
        texts = [
            " ".join(rng.choice(vocab, size=int(rng.integers(0, 30))))
            for _ in range(300)
        ]
        texts[5], texts[6] = "", "  \n "
        texts += texts[:40]  # exact copies share whole prefixes
        return pa.table(
            {
                "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                "text": pa.array(texts),
            }
        )

    @pytest.mark.parametrize("threshold", [0.2, 0.3, 0.5, 0.95])
    def test_equal_per_doc_and_per_run_loops(self, corpus, threshold):
        rows = _prefix_rows(corpus, "text", "doc_id", threshold, 3)
        got_rows = list(
            zip(*(rows[c].to_pylist() for c in ("shingle", "doc_id", "n_sh")))
        )
        assert got_rows == _prefix_loop(corpus["text"].to_pylist(), threshold)
        pairs = _prefix_pairs(rows, "doc_id", threshold, pa.int64())
        got = list(zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()))
        assert len(got) == len(set(got))
        assert set(got) == _pairs_loop(rows, threshold)
        assert len(got) > 0


RSS_SCRIPT = """
import resource, sys
import numpy as np
import pyarrow as pa
from bioie_llm_ray.stages import neardup
rng = np.random.RandomState(0)
words = np.array([f"w{i}" for i in range(5000)])
texts = [" ".join(ws) for ws in words[rng.randint(0, 5000, (50_000, 62))]]
texts[1::50] = texts[::50]  # some near-dup work for the verify
docs = pa.table({"doc_id": np.arange(50_000), "text": texts})
del texts
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
# the hashing map over the table as one block, then the one task
banded = neardup._sliced(
    lambda t: neardup._with_bands(t, "text", "doc_id", 64, 16, 3), docs
)
out = neardup._minhash_pairs_table(banded, 0.5, "text", "doc_id", 3)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(docs["text"].nbytes, len(out), (peak - base) // 1024)
"""


def test_one_task_pair_query_peak_rss_is_bounded():
    """The B = 1 MinHash pair query over a 50k-doc, 17.2 MiB table, run in
    one process: the hashing map over the table as one block, in slices,
    then the one-task kernel.  Hashing the table in one call raised peak
    RSS by 331 MiB."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", RSS_SCRIPT], cwd=repo, capture_output=True,
        text=True, timeout=300, check=True,
    )
    text_bytes, n_pairs, rise_mib = map(int, out.stdout.split()[-3:])
    assert 17 * 2**20 < text_bytes < 19 * 2**20, out.stdout
    assert n_pairs >= 1000, out.stdout
    assert rise_mib <= 120, out.stdout


def test_simhash_dedup_drops_docs_without_tokens(tmp_path):
    """An empty and a whitespace-only doc have no word token: the oracle's
    token filter drops them, and so does ``simhash_dedup`` at any B."""
    d = _write_docs(tmp_path, [1, 2, 3], ["alpha beta gamma", "", "  \n\t "])
    out = analytics.dedup_simhash(d)
    want = _oracle(d, "dedup_simhash")
    assert len(want) == 1
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), want.astype(out.dtypes.to_dict())
    )
    sixteen = simhash_dedup(_docs(d), n_hash_buckets=16).to_pandas()
    assert sixteen["doc_id"].tolist() == [1]


# ------------------------------------------------------------ flagship dedup

_TRIPLE = ["subj", "pred", "obj"]


class TestFlagshipDedup:
    def test_salted_one_bucket_equals_sixty_four_on_hub_key(self):
        # one hub triple stated by 50 source docs, next to 30 plain triples
        rows = [("TP53", "rel", "MDM2", f"sha{i}") for i in range(50)]
        rows += [(f"s{i % 10}", "rel", f"o{i % 3}", f"sha{i}") for i in range(30)]
        df = pd.DataFrame(rows, columns=_TRIPLE + ["src_sha"])
        ds = ray.data.from_pandas(df, override_num_blocks=4)

        def distinct(n_buckets: int) -> pd.DataFrame:
            out = salted_dedup(ds, _TRIPLE, "src_sha", n_buckets=n_buckets)
            got = out.to_pandas()
            # each key is kept exactly once
            assert not got.duplicated(_TRIPLE).any()
            return got[_TRIPLE].sort_values(_TRIPLE).reset_index(drop=True)

        one = distinct(1)
        pd.testing.assert_frame_equal(one, distinct(64))
        want = df[_TRIPLE].drop_duplicates().sort_values(_TRIPLE)
        pd.testing.assert_frame_equal(one, want.reset_index(drop=True))

    def test_string_key_equals_per_row_join(self):
        t = pa.table(
            {
                "subj": pa.chunked_array([["a", None], ["c", "d\x1fe"]]),
                "pred": pa.chunked_array([["r", "r", None], [""]]),
                "obj": ["x", "None", None, "y"],
            }
        )
        got = _add_key_column(t, _TRIPLE, "k")["k"].to_pylist()
        cols = [t[c].to_pylist() for c in _TRIPLE]
        assert got == ["\x1f".join(map(str, vals)) for vals in zip(*cols)]

    def test_sizing_rule_splits_above_one_bucket(self, tmp_path):
        one_bucket = _BYTES_PER_BUCKET // _PARQUET_EXPANSION
        assert n_buckets_for_bytes(0, floor=1) == 1
        assert n_buckets_for_bytes(one_bucket, floor=1) == 1
        assert n_buckets_for_bytes(one_bucket + 1, floor=1) == 2
        assert n_buckets_for_bytes(10 * one_bucket, floor=1) == 10
        p = _write_docs(tmp_path, [1], ["TP53 MDM2"])
        f = os.path.join(p, "documents.parquet")
        assert dedup_buckets(f) == 1
        # a path that is not one local file keeps the bucketed default
        for other in (p, [f], os.path.join(p, "missing.parquet")):
            assert dedup_buckets(other) == 64

    def test_partition_runs_without_exchange(self, executed_plans, tmp_path):
        docs = str(tmp_path / "docs.parquet")
        pq.write_table(
            pa.table({"content": ["TP53 binds MDM2 and BRCA1", "MDM2 with TP53"]}),
            docs,
        )
        out = str(tmp_path / "out")
        with executed_plans() as plans:
            res = run_flagship_resumable(
                [docs], ["TP53", "MDM2", "BRCA1"], out
            )
        assert res["manifests"][res["completed"][0]]["n_rows"] == 3
        # the shard is one plain task: no Dataset executes at all
        assert plans == []
        # a caller's bucket count takes the Dataset path, whose plan is seen
        with executed_plans() as plans:
            run_flagship_resumable(
                [docs], ["TP53", "MDM2", "BRCA1"], str(tmp_path / "ds"), n_buckets=1
            )
        assert any("Write" in p for p in plans), plans
