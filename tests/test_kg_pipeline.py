"""E2E: flagship triple extraction over fixture docs vs the gold oracle."""

import json
import os

import pytest
import ray

from bioie_llm_ray import fixtures
from bioie_llm_ray.pipelines.evaluate import triple_prf
from bioie_llm_ray.pipelines.kg import run_flagship
from bioie_llm_ray.stages.dedup import exact_dedup, salted_dedup
from bioie_llm_ray.stages.linker import EntityLinker, build_alias_index
from bioie_llm_ray.stages.mention import MentionDetector, compile_vocab_pattern


@pytest.fixture(scope="module")
def docs_fixture(tmp_path_factory):
    base = str(tmp_path_factory.mktemp("kgfix"))
    kb = fixtures.write_all(base, n_docs=120)
    with open(os.path.join(base, "docs", "gold_triples.json")) as f:
        gold_rows = json.load(f)
    gold = {tuple(t) for row in gold_rows for t in row}
    return base, kb, gold


class TestMentionDetector:
    def test_boundary_semantics_match_m9(self):
        pat = compile_vocab_pattern(["EB1", "PSD", "PSD-95", "TP53"])
        assert [m.group(0) for m in pat.finditer("TP53 and PSD-95")] == [
            "TP53",
            "PSD-95",
        ]
        assert [m.group(0) for m in pat.finditer("RHEB1 xTP53x")] == []
        assert [m.group(0) for m in pat.finditer("PSD alone")] == ["PSD"]

    def test_stage_over_dataset(self, docs_fixture):
        base, kb, _ = docs_fixture
        from bioie_llm_ray.sources.readers import read_docs

        vocab_ref = ray.put(kb.proteins)
        docs = read_docs(os.path.join(base, "docs", "docs.parquet"))
        mentions = docs.map_batches(
            MentionDetector,
            fn_constructor_kwargs={"vocab": vocab_ref},
            batch_format="pyarrow",
            concurrency=2,
        )
        rows = mentions.take(20)
        assert {"content_sha256", "mention", "span_start", "span_end"} <= set(
            rows[0].keys()
        )
        assert all(r["mention"] in set(kb.proteins) for r in rows)


class TestFlagship:
    def test_triples_match_gold_exactly(self, docs_fixture):
        base, kb, gold = docs_fixture
        triples = run_flagship(
            os.path.join(base, "docs", "docs.parquet"), vocab=kb.proteins
        )
        scores = triple_prf(triples, gold)
        assert scores["precision"] == 1.0, scores
        assert scores["recall"] == 1.0, scores

    def test_linker_canonicalizes_case_variants(self):
        index = build_alias_index({"TP53": "P04637", "p53": "P04637"})
        linker = EntityLinker(index, mention_col="m")
        import pyarrow as pa

        out = linker(pa.table({"m": ["tp53", "P53", "unknown thing"]}))
        assert out["canonical_id"].to_pylist() == [
            "P04637",
            "P04637",
            "unknown thing",
        ]
        assert out["linked"].to_pylist() == [True, True, False]


class TestDedup:
    def test_salted_equals_exact(self):
        import pandas as pd

        rows = []
        for i in range(500):
            # hot key: 60% of rows share one triple (hub skew)
            if i % 5 != 0:
                rows.append(("HUB", "rel", "X", f"sha{i}"))
            else:
                rows.append((f"s{i}", "rel", f"o{i % 17}", f"sha{i}"))
        ds = ray.data.from_pandas(
            pd.DataFrame(rows, columns=["subj", "pred", "obj", "src_sha"])
        )
        exact = exact_dedup(ds, ["subj", "pred", "obj"])
        salted = salted_dedup(ds, ["subj", "pred", "obj"], "src_sha", n_salt=8)
        key = lambda r: (r["subj"], r["pred"], r["obj"])
        assert sorted(map(key, exact.take_all())) == sorted(
            map(key, salted.take_all())
        )
        expected = len({(a, b, c) for a, b, c, _ in rows})
        assert salted.count() == expected


class TestRehydratableActorState:
    """Actor constructor args must be restart-safe (ray#53727): plain
    values inlined in the creation task, or a ParquetState pointer loaded
    from shared storage in __init__ — never user-created ObjectRefs.
    (Ray Data's own map_transformer ref is the framework's to manage;
    these tests pin OUR side of the contract.)"""

    def test_triple_extractor_plain_value_vocab(self):
        import pyarrow as pa

        from bioie_llm_ray.pipelines.kg import TripleExtractor

        tx = TripleExtractor(["aa", "bb", "cc"])
        assert tx.vocab_arr is not None  # vectorized path for class-only vocab
        out = tx(
            pa.table(
                {
                    "content_sha256": pa.array(["s1", "s2"]),
                    "content": pa.array(["aa then bb then aa", "cc alone"]),
                }
            )
        )
        got = list(
            zip(out["content_sha256"].to_pylist(), out["subj"].to_pylist(),
                out["obj"].to_pylist())
        )
        assert got == [("s1", "aa", "bb")]  # second 'aa' == subj → skipped

    def test_parquet_state_rehydrates_vocab_and_alias(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from bioie_llm_ray.stages.linker import EntityLinker
        from bioie_llm_ray.stages.mention import MentionDetector, ParquetState

        pq.write_table(
            pa.table({"term": ["spark", "hash"]}), str(tmp_path / "vocab.parquet")
        )
        pq.write_table(
            pa.table({"alias": ["spark", "hash"], "canon": ["SPARK", "HASH"]}),
            str(tmp_path / "alias.parquet"),
        )
        det = MentionDetector(ParquetState(str(tmp_path / "vocab.parquet")))
        assert det.vocab == ["spark", "hash"]
        out = det(
            pa.table(
                {"content_sha256": pa.array(["x"]),
                 "content": pa.array(["spark hash hashes"])}
            )
        )
        assert out["mention"].to_pylist() == ["spark", "hash"]

        lk = EntityLinker(
            ParquetState(str(tmp_path / "alias.parquet")), mention_col="m",
            out_col="m", add_linked_flag=False,
        )
        got = lk(pa.table({"m": pa.array(["Spark", "other"])}))
        assert got["m"].to_pylist() == ["SPARK", "other"]

    def test_extract_triples_passes_no_objectrefs(self):
        """The flagship builder's constructor kwargs are by-value."""
        import ast
        import inspect
        import textwrap

        from bioie_llm_ray.pipelines import kg

        tree = ast.parse(textwrap.dedent(inspect.getsource(kg.extract_triples)))
        puts = [
            n
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "put"
        ]
        assert not puts


class TestFoldedLinking:
    """``TripleExtractor(alias_index=...)`` links inside the extraction
    call; its output must equal extraction followed by two separate
    ``EntityLinker`` passes, and ``extract_triples`` must never reuse a
    per-process extractor built for other arguments."""

    ALIASES = {
        "TP53": "P04637",
        "p53": "P04637",  # second surface form of one canonical id
        "MDM2": "Q00987",
        "BRCA1": "P38398",
        "tumor protein": "P04637",
    }
    TEXTS = [
        "TP53 binds MDM2 and p53.",
        "p53 with Orphan1, BRCA1 then TP53",
        "MDM2 alone",
        "Orphan1 and MDM2; Orphan1 again",
        "tumor protein meets BRCA1 and MDM2",
    ]

    def _docs(self):
        import pyarrow as pa

        return pa.table(
            {
                "content_sha256": [f"s{i}" for i in range(len(self.TEXTS))],
                "content": self.TEXTS,
            }
        )

    @staticmethod
    def _link_after(triples, index):
        for col in ("subj", "obj"):
            triples = EntityLinker(
                index, mention_col=col, out_col=col, add_linked_flag=False
            )(triples)
        return triples

    @pytest.mark.parametrize("spaced", [False, True], ids=["vectorized", "regex"])
    def test_equals_extract_then_link(self, spaced):
        from bioie_llm_ray.pipelines.kg import TripleExtractor

        vocab = ["TP53", "p53", "MDM2", "BRCA1", "Orphan1"]
        if spaced:
            vocab.append("tumor protein")  # not tokenizable: regex fallback
        index = build_alias_index(self.ALIASES)
        fused = TripleExtractor(vocab, alias_index=index)
        assert (fused.vocab_arr is None) == spaced
        docs = self._docs()
        got = fused(docs)
        # the vectorized path never compiles the regex alternation
        assert ("pattern" in fused.__dict__) == spaced
        want = self._link_after(TripleExtractor(vocab)(docs), index)
        assert got.equals(want), (got.to_pylist(), want.to_pylist())
        rows = set(zip(*(got[c].to_pylist() for c in ("subj", "obj"))))
        # TP53 and p53 both link to P04637; Orphan1 keeps its normalized form
        assert ("P04637", "Q00987") in rows
        assert ("P04637", "P04637") in rows
        assert ("orphan1", "Q00987") in rows
        assert ("P04637", "P38398") in rows
        # 'tumor protein' is a mention only on the regex path
        s4_subj = {
            r["subj"] for r in got.to_pylist() if r["content_sha256"] == "s4"
        }
        assert s4_subj == ({"P04637"} if spaced else {"P38398"})

    def test_distinct_arguments_get_distinct_extractors(self):
        from bioie_llm_ray.pipelines.kg import TripleExtractor, extract_triples

        vocab = ["TP53", "MDM2", "BRCA1", "Orphan1"]
        docs_tbl = self._docs()
        docs = ray.data.from_arrow(docs_tbl)
        index_a = build_alias_index(self.ALIASES)
        index_b = {k: f"alt:{v}" for k, v in index_a.items()}
        runs = [
            (index_a, "interacts_with"),
            (index_b, "interacts_with"),  # differs only in alias_index
            (index_b, "binds"),  # differs only in relation
            (None, "binds"),
            (index_a, "interacts_with"),
        ]
        seen = []
        for index, relation in runs:
            out = extract_triples(
                docs, vocab, alias_index=index, relation=relation, dedup=False
            )
            got = sorted(
                (r["src_sha"], r["subj"], r["pred"], r["obj"])
                for r in out.take_all()
            )
            ref = TripleExtractor(vocab, relation=relation, alias_index=index)
            want_tbl = ref(docs_tbl)
            want = sorted(
                zip(*(want_tbl[c].to_pylist()
                      for c in ("content_sha256", "subj", "pred", "obj")))
            )
            assert got == want, (index is index_b, relation)
            seen.append(tuple(got))
        assert len(set(seen[:4])) == 4
        assert seen[4] == seen[0]

    def test_digest_tracks_content_not_identity(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from bioie_llm_ray.pipelines.kg import _state_digest
        from bioie_llm_ray.stages.mention import ParquetState

        a = _state_digest(vocab=["x", "y"], relation="r", alias_index={"x": "X"})
        assert a == _state_digest(
            vocab=("x", "y"), relation="r", alias_index=dict({"x": "X"})
        )
        assert a != _state_digest(vocab=["x", "y"], relation="r", alias_index=None)
        path = str(tmp_path / "vocab.parquet")
        pq.write_table(pa.table({"term": ["x", "y"]}), path)
        before = _state_digest(
            vocab=ParquetState(path), relation="r", alias_index=None
        )
        pq.write_table(pa.table({"term": ["x", "y", "zzz"]}), path)
        assert before != _state_digest(
            vocab=ParquetState(path), relation="r", alias_index=None
        )
