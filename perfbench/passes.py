"""One pass of each workload family, with its output check.

``run`` is the untraced pass the end-to-end metrics time.  ``traced`` is
the same work split at each layer boundary: every call into a layer's
public function sits in a span and its result is materialized inside the
span, so the span covers execution and not just plan building.

A check that fails raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs, oracles


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ------------------------------------------------------------------ kg_build


class KgBuild:
    """Extraction job: docs shards -> extract -> link -> salted dedup ->
    checkpointed partitions (``pipelines.kg.run_flagship_resumable``)."""

    def __init__(self, seed: int, work: str):
        from bioie_llm_ray.stages.linker import build_alias_index

        inp = inputs.make_kg_build(seed, os.path.join(work, "kg_in"))
        self.paths = inp["paths"]
        self.items = inp["n_docs"]
        aliases = pq.read_table(inp["alias_path"])
        self.vocab = aliases["alias"].to_pylist()
        self.alias_index = build_alias_index(
            dict(zip(self.vocab, aliases["canonical_id"].to_pylist()))
        )
        self.expected = oracles.kg_expected(inp["gold"], self.alias_index)
        self.out_root = os.path.join(work, "kg_out")

    def prepare(self) -> None:
        """Remove the previous pass's partitions (the job skips completed ones)."""
        shutil.rmtree(self.out_root, ignore_errors=True)

    def run(self) -> dict:
        from bioie_llm_ray.pipelines.kg import run_flagship_resumable

        run_flagship_resumable(
            self.paths, self.vocab, self.out_root, alias_index=self.alias_index
        )
        return self.check()

    def check(self) -> dict:
        from bioie_llm_ray.state import checkpoint

        parts = checkpoint.completed_partitions(self.out_root)
        _require(len(parts) == len(self.paths), "one partition per shard")
        distinct: set = set()
        n_written = 0
        for pid in parts:
            d = os.path.join(self.out_root, f"part={pid}")
            t = pa.concat_tables(
                pq.read_table(os.path.join(d, f), columns=["subj", "pred", "obj"])
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            )
            rows = set(zip(*(t[c].to_pylist() for c in ("subj", "pred", "obj"))))
            _require(len(rows) == t.num_rows, "duplicate triple inside a partition")
            distinct |= rows
            n_written += t.num_rows
        _require(distinct == self.expected, "distinct triples differ from gold")
        return {"written": n_written, "distinct": len(distinct)}

    def traced(self, tracer) -> dict:
        """The flagship job split at layer boundaries, one partition per shard."""
        from bioie_llm_ray.pipelines.kg import extract_triples
        from bioie_llm_ray.sources.readers import read_docs
        from bioie_llm_ray.stages.dedup import batch_local_dedup, salted_dedup
        from bioie_llm_ray.stages.linker import EntityLinker
        from bioie_llm_ray.state import checkpoint

        with tracer.span("kg_build.pass"):
            keys = ["subj", "pred", "obj"]
            self.prepare()
            for path in self.paths:
                pid = hashlib.md5(path.encode()).hexdigest()[:12]
                with tracer.span("kg.partition"):
                    with tracer.span("sources.read_docs"):
                        docs = read_docs(path).materialize()
                    with tracer.span("mention.extract") as c:
                        raw = extract_triples(
                            docs, self.vocab, alias_index=None, dedup=False
                        ).materialize()
                        c["rows"] = raw.count()
                    with tracer.span("linker.link"):
                        linked = raw
                        for col in ("subj", "obj"):
                            linked = linked.map_batches(
                                EntityLinker,
                                fn_constructor_kwargs={
                                    "alias_index": self.alias_index,
                                    "mention_col": col,
                                    "out_col": col,
                                    "add_linked_flag": False,
                                },
                                batch_format="pyarrow",
                                batch_size=1024,
                                concurrency=(1, 4),
                            )
                        linked = linked.materialize()
                    with tracer.span("dedup.salted") as c:
                        c["rows_in"] = linked.count()
                        deduped = salted_dedup(
                            batch_local_dedup(linked, keys), keys, salt_col="src_sha", n_salt=16
                        ).materialize()
                        c["rows_out"] = deduped.count()
                    with tracer.span("checkpoint.write_partition") as c:
                        m = checkpoint.write_partition(
                            self.out_root, pid, deduped, {"source_path": path}
                        )
                        c["rows"] = m["n_rows"]
                        c["bytes"] = m["n_bytes"]
            return self.check()

    def layer_metrics(self, tracer, counts: dict) -> dict:
        rows = tracer.count("checkpoint.write_partition", "rows")
        return {
            "sources.read_docs_s": tracer.total("sources.read_docs"),
            "mention.extract_s": tracer.total("mention.extract"),
            "linker.link_s": tracer.total("linker.link"),
            "dedup.salted_s": tracer.total("dedup.salted"),
            "dedup.rows_in": tracer.count("dedup.salted", "rows_in"),
            "dedup.rows_out": tracer.count("dedup.salted", "rows_out"),
            "checkpoint.write_partition_s": tracer.total("checkpoint.write_partition"),
            "checkpoint.bytes_per_row": tracer.count("checkpoint.write_partition", "bytes")
            / max(rows, 1),
            "kg.triples_raw": tracer.count("mention.extract", "rows"),
            "kg.triples_written": counts.get("written", 0),
            "kg.triples_distinct": counts.get("distinct", 0),
        }

    def kernel_batch(self) -> tuple[pa.Table, pa.Table]:
        """The first shard's docs (with their sha256) and raw triples."""
        from bioie_llm_ray.functions.hashing import add_sha256_column
        from bioie_llm_ray.pipelines.kg import TripleExtractor

        docs = add_sha256_column(pq.read_table(self.paths[0]))
        return docs, TripleExtractor(self.vocab)(docs)


# -------------------------------------------------------------- corpus_dedup


class CorpusDedup:
    """Near-duplicate curation: the four ``pipelines.analytics`` dedup
    queries over one ``documents`` table."""

    def __init__(self, seed: int, work: str):
        self.dir = os.path.join(work, "corpus_in")
        self.items = inputs.make_corpus(seed, self.dir)
        oracle_dir = os.path.join(work, "corpus_oracle")
        here = os.path.dirname(os.path.abspath(__file__))
        subprocess.run(
            [sys.executable, os.path.join(here, "oracles.py"), self.dir, oracle_dir],
            check=True,
            timeout=150,
        )
        self.expected = oracles.read_dedup_oracle(oracle_dir)

    def prepare(self) -> None:
        pass

    def run(self, tracer=None) -> dict:
        from bioie_llm_ray.pipelines import analytics

        outs = {}
        for q in oracles.DEDUP_QUERIES:
            if tracer is None:
                outs[q] = getattr(analytics, q)(self.dir)
            else:
                with tracer.span(f"analytics.{q}"):
                    outs[q] = getattr(analytics, q)(self.dir)
        for q, out in outs.items():
            _require(oracles.frames_equal(out, self.expected[q]), f"{q} differs from its DuckDB oracle")
        return outs

    def traced(self, tracer) -> dict:
        import ray

        from bioie_llm_ray.stages.neardup import minhash_lsh_candidates

        with tracer.span("corpus_dedup.pass"):
            outs = self.run(tracer)
        with tracer.span("neardup.minhash_lsh_candidates") as c:
            docs = ray.data.read_parquet(
                os.path.join(self.dir, "documents.parquet"), columns=["doc_id", "text"]
            )
            c["candidates"] = minhash_lsh_candidates(docs).count()
        return {"verified": len(outs["dedup_minhash"])}

    def layer_metrics(self, tracer, counts: dict) -> dict:
        cand = tracer.count("neardup.minhash_lsh_candidates", "candidates")
        out = {
            f"analytics.{q}_s": tracer.total(f"analytics.{q}") for q in oracles.DEDUP_QUERIES
        }
        out.update(
            {
                "neardup.lsh_candidates": cand,
                "neardup.verified_pairs": counts.get("verified", 0),
                "neardup.verify_yield": counts.get("verified", 0) / cand if cand else 0.0,
            }
        )
        return out

    def kernel_batch(self) -> pa.Table:
        """The first 256 documents."""
        t = pq.read_table(os.path.join(self.dir, "documents.parquet"), columns=["doc_id", "text"])
        return t.slice(0, 256)


# ---------------------------------------------------------------- bioie_eval


class BioieEval:
    """The four benchmark tasks with ``MockScorer``, then the scoring calls."""

    def __init__(self, seed: int, work: str):
        self.base = os.path.join(work, "bioie_in")
        self.kb = inputs.make_bioie_eval(seed, self.base)
        self.expected = oracles.bioie_expected(self.kb)

    def _adjacency(self):
        from bioie_llm_ray.sources import readers

        info = readers.read_protein_info(os.path.join(self.base, "STRING/protein.info.txt"))
        id2n = {r["string_protein_id"]: r["preferred_name"] for r in info.take_all()}
        links = readers.read_protein_links(os.path.join(self.base, "STRING/protein.links.txt"))
        return readers.edges_to_adjacency(readers.build_edges(links, id2n))

    def _tasks(self):
        """(name, build) pairs; ``build()`` returns the Dataset the task is
        judged on."""
        from bioie_llm_ray.pipelines import tasks
        from bioie_llm_ray.sources import readers

        kb, base = self.kb, self.base

        def string_entity():
            gold = {s: sorted(nb) for s, nb in kb.adjacency.items()}
            return tasks.string_entity_task(
                self._adjacency(),
                test_size=oracles.STRING_TEST_SIZE,
                n_shots=oracles.STRING_SHOTS,
                scorer_kwargs={"kind": "entity", "kb": gold, "miss_rate": oracles.MISS_RATE},
            ).predictions

        def string_relation():
            pos = {f"{min(a, b)}\x1f{max(a, b)}" for a, nb in kb.adjacency.items() for b in nb}
            neg = readers.read_negatome(os.path.join(base, "STRING/negatome.csv"))
            return tasks.string_relation_task(
                self._adjacency(),
                neg,
                n_pairs_per_side=oracles.PAIRS_PER_SIDE,
                scorer_kwargs={"kind": "relation", "kb": pos, "flip_rate": oracles.FLIP_RATE},
            ).predictions

        def kegg_entity():
            kdir = os.path.join(base, "KEGG")
            pg = readers.read_kegg_pathway_genes(os.path.join(kdir, "kegg.hsa.pathway.genes"))
            genes = readers.read_kegg_genes(os.path.join(kdir, "kegg.hsa.genes"))
            paths = readers.read_kegg_pathways(os.path.join(kdir, "kegg.pathway.hsa"))
            gmap = {r["gene_id"]: list(r["aliases"]) for r in genes.take_all()}
            pmap = {r["pathway_id"]: r["pathway_name"] for r in paths.take_all()}
            ranking = readers.read_dose_ranking(
                os.path.join(kdir, "low_dose_pathways.txt")
            ).map_batches(
                lambda b: pa.table(
                    {
                        "pathway": pa.array([pmap[p] for p in b["pathway_id"].to_pylist()]),
                        "rank": b["rank"],
                    }
                ),
                batch_format="pyarrow",
            )
            gold_map = {
                pmap[pid]: sorted({gmap[g][0] for g in gids})
                for pid, gids in kb.pathway_genes.items()
            }
            return tasks.kegg_entity_task(
                readers.build_pathway_gene_table(pg, gmap, pmap),
                ranking,
                top_n=oracles.KEGG_TOP_N,
                scorer_kwargs={"kind": "entity", "kb": gold_map, "miss_rate": oracles.MISS_RATE},
            ).predictions

        def indra_relation_type():
            labels = {s["id"]: s["rel_type"] for split in kb.indra.values() for s in split}
            stmts = readers.read_indra_statements(os.path.join(base, "INDRA/test.json"))
            return tasks.indra_relation_type_task(
                stmts,
                per_class=oracles.INDRA_PER_CLASS,
                scorer_kwargs={"kind": "relation_type", "kb": labels, "flip_rate": oracles.FLIP_RATE},
            ).triples

        return [
            ("string_entity", string_entity),
            ("string_relation", string_relation),
            ("kegg_entity", kegg_entity),
            ("indra_relation_type", indra_relation_type),
        ]

    def traced(self, tracer) -> dict:
        from bioie_llm_ray.functions.metrics import compute_metrics, metrics_from_predictions
        from bioie_llm_ray.pipelines.evaluate import triple_prf

        results = {}
        for name, build in self._tasks():
            with tracer.span(f"tasks.{name}"):
                ds = build().materialize()
                df = ds.to_pandas()
            results[name] = ds
            if name == "string_relation":
                df["src"] = df["src"].str.replace("\x1f", "|")
            _require(oracles.frames_equal(df, self.expected[name]), f"{name} differs from the serial walk")

        want_rel = self.expected["string_relation"]
        with tracer.span("metrics.metrics_from_predictions"):
            got = metrics_from_predictions(results["string_relation"])
        want = compute_metrics(want_rel["true"].tolist(), want_rel["pred"].tolist())
        _require(
            all(abs(got[k] - want[k]) < 1e-12 for k in want), "metrics differ from the serial walk"
        )

        gold = {
            (s["entity_1"][0], s["rel_type"].lower(), s["entity_2"][0])
            for s in self.kb.indra["test"]
        }
        with tracer.span("evaluate.triple_prf"):
            prf = triple_prf(results["indra_relation_type"], gold)
        emitted = {tuple(r) for r in self.expected["indra_relation_type"][["subj", "pred", "obj"]].values}
        _require(
            prf["n_emitted"] == len(emitted) and prf["n_hit"] == len(emitted & gold),
            "triple_prf differs from the serial walk",
        )
        return {}

    def layer_metrics(self, tracer, counts: dict) -> dict:
        out = {f"tasks.{n}_s": tracer.total(f"tasks.{n}") for n in self.expected}
        out["metrics.from_predictions_s"] = tracer.total("metrics.metrics_from_predictions")
        out["evaluate.triple_prf_s"] = tracer.total("evaluate.triple_prf")
        return out


# ---------------------------------------------------------------- kg_closure


class KgClosure:
    """``stages.graph`` reachability and SCC labels over a sparse digraph."""

    def __init__(self, seed: int, work: str):
        inp = inputs.make_graph(seed, os.path.join(work, "graph_in"))
        self.path = inp["path"]
        self.expected = oracles.tarjan_labels(inp["edges"])

    def traced(self, tracer) -> dict:
        import ray

        from bioie_llm_ray.stages import graph

        edges = ray.data.read_parquet(self.path).materialize()
        with tracer.span("graph.transitive_closure") as c:
            reach = graph.transitive_closure(edges).materialize()
            c["pairs"] = reach.count()
        with tracer.span("graph.strongly_connected_components"):
            labels = graph.strongly_connected_components(edges, closure=reach).to_pandas()
        got = dict(zip(labels["node"].tolist(), labels["scc"].tolist()))
        _require(len(labels) == len(got) and got == self.expected, "SCC labels differ from Tarjan")
        return {}

    def layer_metrics(self, tracer, counts: dict) -> dict:
        return {
            "graph.closure_s": tracer.total("graph.transitive_closure"),
            "graph.closure_pairs": tracer.count("graph.transitive_closure", "pairs"),
            "graph.scc_s": tracer.total("graph.strongly_connected_components"),
        }


WORKLOADS = {"kg_build": KgBuild, "corpus_dedup": CorpusDedup}
FAMILIES = {**WORKLOADS, "bioie_eval": BioieEval, "kg_closure": KgClosure}
