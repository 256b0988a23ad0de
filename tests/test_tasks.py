"""E2E task pipelines with MockScorer: metric parity and triple P/R gate."""

import json
import os
import signal
import subprocess
import sys

import pytest
import ray

from bioie_llm_ray import fixtures
from bioie_llm_ray.functions.metrics import metrics_from_predictions
from bioie_llm_ray.pipelines import tasks
from bioie_llm_ray.pipelines.evaluate import triple_prf
from bioie_llm_ray.sources import readers
from bioie_llm_ray.stages.scorer import MockScorer

PAIR_SEP = "\x1f"


@pytest.fixture(scope="module")
def kb_env(tmp_path_factory):
    base = str(tmp_path_factory.mktemp("taskfix"))
    kb = fixtures.write_all(base, n_docs=20)
    info = readers.read_protein_info(os.path.join(base, "STRING/protein.info.txt"))
    id2n = {r["string_protein_id"]: r["preferred_name"] for r in info.take_all()}
    links = readers.read_protein_links(os.path.join(base, "STRING/protein.links.txt"))
    adjacency = readers.edges_to_adjacency(
        readers.build_edges(links, id2n)
    ).materialize()
    return base, kb, adjacency


class TestStringEntity:
    def test_noise_free_scorer_gives_perfect_parity(self, kb_env):
        base, kb, adjacency = kb_env
        kb_ref = ray.put(kb.adjacency)
        res = tasks.string_entity_task(
            adjacency,
            test_size=20,
            n_shots=2,
            scorer_kwargs={"kind": "entity", "kb": kb_ref, "miss_rate": 0.0},
        )
        m = metrics_from_predictions(res.predictions)
        assert m["micro_f"] == 1.0, m
        gold = {
            (q, "interacts_with", n)
            for q, nbrs in kb.adjacency.items()
            for n in nbrs
        }
        scores = triple_prf(res.triples, gold)
        assert scores["precision"] == 1.0
        # recall < 1: only sampled test queries and top-k=10 per query emit
        assert scores["n_emitted"] > 0

    def test_noisy_scorer_still_meets_gate(self, kb_env):
        base, kb, adjacency = kb_env
        kb_ref = ray.put(kb.adjacency)
        res = tasks.string_entity_task(
            adjacency,
            test_size=20,
            n_shots=2,
            scorer_kwargs={"kind": "entity", "kb": kb_ref, "miss_rate": 0.03},
        )
        gold = {
            (q, "interacts_with", n)
            for q, nbrs in kb.adjacency.items()
            for n in nbrs
        }
        scores = triple_prf(res.triples, gold)
        # mock emits only gold names (minus misses) → precision stays 1.0;
        # the P/R≥0.95 gate is on precision vs reference semantics
        assert scores["precision"] >= 0.95

    def test_determinism_across_runs(self, kb_env):
        base, kb, adjacency = kb_env
        kb_ref = ray.put(kb.adjacency)
        runs = []
        for _ in range(2):
            res = tasks.string_entity_task(
                adjacency,
                test_size=10,
                n_shots=1,
                scorer_kwargs={"kind": "entity", "kb": kb_ref, "miss_rate": 0.05},
            )
            runs.append(
                sorted(
                    (r["src"], r["pred"], r["true"])
                    for r in res.predictions.take_all()
                )
            )
        assert runs[0] == runs[1]


class TestStringRelation:
    def test_balanced_yes_no(self, kb_env):
        base, kb, adjacency = kb_env
        pos_pairs = {
            f"{min(a,b)}{PAIR_SEP}{max(a,b)}"
            for a, nbrs in kb.adjacency.items()
            for b in nbrs
        }
        kb_ref = ray.put(pos_pairs)
        negatome = readers.read_negatome(os.path.join(base, "STRING/negatome.csv"))
        res = tasks.string_relation_task(
            adjacency,
            negatome,
            n_pairs_per_side=30,
            scorer_kwargs={"kind": "relation", "kb": kb_ref, "flip_rate": 0.0},
        )
        m = metrics_from_predictions(res.predictions)
        assert m["micro_f"] == 1.0, m
        rows = res.predictions.take_all()
        assert len(rows) == 60
        assert {r["true"] for r in rows} == {"yes", "no"}
        # triples only for predicted-yes pairs
        n_yes = sum(1 for r in rows if r["pred"] == "yes")
        assert res.triples.count() == n_yes


class TestKeggRelation:
    def test_generated_negatives_balanced(self, kb_env):
        """Latent J4 flow (kegg_processor.py:140-157): positives from
        membership aliases, negatives = gene x pathway minus positives."""
        base, kb, _ = kb_env
        membership = readers.read_kegg_pathway_genes(
            os.path.join(base, "KEGG/kegg.hsa.pathway.genes")
        )
        genes = readers.read_kegg_genes(os.path.join(base, "KEGG/kegg.hsa.genes"))
        paths = readers.read_kegg_pathways(
            os.path.join(base, "KEGG/kegg.pathway.hsa")
        )
        gmap = {r["gene_id"]: list(r["aliases"]) for r in genes.take_all()}
        pmap = {r["pathway_id"]: r["pathway_name"] for r in paths.take_all()}
        pos_keys = {
            f"{g}{PAIR_SEP}{pmap[r['pathway_id']]}"
            for r in membership.take_all()
            for g in gmap[r["gene_id"]]
        }
        res = tasks.kegg_relation_task(
            readers.read_kegg_pathway_genes(
                os.path.join(base, "KEGG/kegg.hsa.pathway.genes")
            ),
            gmap,
            pmap,
            n_pairs_per_side=20,
            scorer_kwargs={
                "kind": "relation",
                "kb": ray.put(pos_keys),
                "flip_rate": 0.0,
            },
        )
        rows = res.predictions.take_all()
        assert len(rows) == 40
        by_true = {"yes": 0, "no": 0}
        for r in rows:
            by_true[r["true"]] += 1
            assert r["pred"] == r["true"]  # noise-free scorer is exact
            gene, pathway = r["src"].split(PAIR_SEP)
            key = f"{gene}{PAIR_SEP}{pathway}"
            assert (key in pos_keys) == (r["true"] == "yes")
        assert by_true == {"yes": 20, "no": 20}
        # triples carry member_of edges for predicted-yes pairs only
        t = res.triples.take_all()
        assert len(t) == 20 and all(r["pred"] == "member_of" for r in t)


class TestKeggEntity:
    def test_top_n_and_parity(self, kb_env):
        base, kb, _ = kb_env
        # build (pathway, genes) with primary names via broadcast joins (J2)
        pg = readers.read_kegg_pathway_genes(
            os.path.join(base, "KEGG/kegg.hsa.pathway.genes")
        )
        genes = readers.read_kegg_genes(os.path.join(base, "KEGG/kegg.hsa.genes"))
        paths = readers.read_kegg_pathways(os.path.join(base, "KEGG/kegg.pathway.hsa"))
        gmap = {r["gene_id"]: list(r["aliases"]) for r in genes.take_all()}
        pmap = {r["pathway_id"]: r["pathway_name"] for r in paths.take_all()}

        import pyarrow as pa

        pathway_genes = readers.build_pathway_gene_table(pg, gmap, pmap)
        ranking_raw = readers.read_dose_ranking(
            os.path.join(base, "KEGG/low_dose_pathways.txt")
        )
        ranking = ranking_raw.map_batches(
            lambda b: pa.table(
                {
                    "pathway": pa.array(
                        [pmap[p] for p in b["pathway_id"].to_pylist()]
                    ),
                    "rank": b["rank"],
                }
            ),
            batch_format="pyarrow",
        )
        gold_map = {
            pmap[pid]: sorted({gmap[g][0] for g in gids})
            for pid, gids in kb.pathway_genes.items()
        }
        kb_ref = ray.put(gold_map)
        res = tasks.kegg_entity_task(
            pathway_genes,
            ranking,
            top_n=5,
            scorer_kwargs={"kind": "entity", "kb": kb_ref, "miss_rate": 0.0},
        )
        m = metrics_from_predictions(res.predictions)
        assert m["micro_f"] == 1.0, m
        srcs = {r["src"] for r in res.predictions.take_all()}
        expected_top = {
            pmap[p] for p in kb.dose_ranking["low"][:5]
        }
        assert srcs == expected_top
        gold_triples = {
            (g, "member_of", p) for p, gs in gold_map.items() for g in gs
        }
        scores = triple_prf(res.triples, gold_triples)
        assert scores["precision"] == 1.0


class TestIndraRelationType:
    def test_balanced_classes_and_parity(self, kb_env):
        base, kb, _ = kb_env
        stmts = readers.read_indra_statements(os.path.join(base, "INDRA/test.json"))
        label_map = {
            s["id"]: s["rel_type"] for split in kb.indra.values() for s in split
        }
        kb_ref = ray.put(label_map)
        res = tasks.indra_relation_type_task(
            stmts,
            per_class=5,
            scorer_kwargs={
                "kind": "relation_type",
                "kb": kb_ref,
                "flip_rate": 0.0,
                "key_col": "entity",
            },
        )
        rows = res.predictions.take_all()
        assert len(rows) == 5 * 6
        from collections import Counter

        per_class = Counter(r["true"] for r in rows)
        assert all(v == 5 for v in per_class.values())
        # noise-free scorer → perfect predictions
        assert all(r["pred"] == r["true"] for r in rows)
        m = metrics_from_predictions(res.predictions)
        assert m["micro_f"] == 1.0
        # triples carry the struct-derived entity names
        t = res.triples.take(3)
        assert all(t_["pred"] in {c.lower() for c in
                                  ["Activation", "Inhibition", "Phosphorylation",
                                   "Dephosphorylation", "Ubiquitination",
                                   "Deubiquitination"]} for t_ in t)


class TestConsensus:
    def test_unanimous(self):
        import pandas as pd

        from bioie_llm_ray.pipelines.evaluate import unanimous_consensus

        a = ray.data.from_pandas(
            pd.DataFrame(
                {"src": ["x", "y"], "pred": ["yes", "no"], "true": ["yes", "no"]}
            )
        )
        b = ray.data.from_pandas(
            pd.DataFrame(
                {"src": ["x", "y"], "pred": ["yes", "yes"], "true": ["yes", "no"]}
            )
        )
        out = unanimous_consensus({"m1": a, "m2": b})
        rows = out.take_all()
        assert [r["src"] for r in rows] == ["x"]


class TestScorerPaths:
    def test_mock_scorer_runs_as_task(self, kb_env, executed_plans):
        _, kb, adjacency = kb_env
        with executed_plans() as plans:
            tasks.string_entity_task(
                adjacency,
                test_size=10,
                n_shots=1,
                scorer_kwargs={"kind": "entity", "kb": kb.adjacency},
            ).predictions.materialize()
        assert any("MapBatches(_mock_score)" in p for p in plans), plans
        assert not any("ActorPool" in p for p in plans), plans

    def test_model_scorer_runs_as_actor_pool(self, kb_env, executed_plans):
        # defined here so that Ray ships the class by value to its workers,
        # which cannot import this test module
        class ModelScorer:
            """Stands in for a model scorer such as ``HFScorer``: MockScorer's
            answers from a class that is not ``MockScorer``."""

            def __init__(self, **kwargs):
                self.mock = MockScorer(**kwargs)

            def __call__(self, batch):
                return self.mock(batch)

        base, kb, adjacency = kb_env
        pos_pairs = {
            f"{min(a, b)}{PAIR_SEP}{max(a, b)}"
            for a, nbrs in kb.adjacency.items()
            for b in nbrs
        }
        negatome = readers.read_negatome(os.path.join(base, "STRING/negatome.csv"))
        kwargs = {"kind": "relation", "kb": pos_pairs, "flip_rate": 0.1}

        def predictions(scorer_cls):
            res = tasks.string_relation_task(
                adjacency, negatome, n_pairs_per_side=20,
                scorer_cls=scorer_cls, scorer_kwargs=kwargs,
            )
            return sorted(
                (r["src"], r["pred"], r["true"])
                for r in res.predictions.take_all()
            )

        with executed_plans() as plans:
            pooled = predictions(ModelScorer)
        assert any(
            "ActorPoolMapOperator[" in p and "MapBatches(ModelScorer)" in p
            for p in plans
        ), plans
        assert len(pooled) == 40
        assert pooled == predictions(MockScorer)


ONE_CPU_SCRIPT = """
import json, os, sys
import ray
from bioie_llm_ray import fixtures
from bioie_llm_ray.pipelines import tasks
from bioie_llm_ray.sources import readers

base = sys.argv[1]
kb = fixtures.write_all(base, n_docs=20)
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
info = readers.read_protein_info(os.path.join(base, "STRING/protein.info.txt"))
id2n = {r["string_protein_id"]: r["preferred_name"] for r in info.take_all()}
links = readers.read_protein_links(os.path.join(base, "STRING/protein.links.txt"))
adjacency = readers.edges_to_adjacency(readers.build_edges(links, id2n))
entity = tasks.string_entity_task(
    adjacency, test_size=10, n_shots=1,
    scorer_kwargs={"kind": "entity", "kb": kb.adjacency, "miss_rate": 0.0},
)
labels = {s["id"]: s["rel_type"] for split in kb.indra.values() for s in split}
indra = tasks.indra_relation_type_task(
    readers.read_indra_statements(os.path.join(base, "INDRA/test.json")),
    per_class=2,
    scorer_kwargs={"kind": "relation_type", "kb": labels, "flip_rate": 0.0},
)
print(json.dumps({"entity": entity.predictions.count(),
                  "indra": indra.triples.count()}))
"""


def test_one_cpu_session_finishes(tmp_path):
    """The scoring stage must not hold the only CPU that the stages around
    it need."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = subprocess.Popen(
        [sys.executable, "-c", ONE_CPU_SCRIPT, str(tmp_path)], cwd=repo,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = p.communicate(timeout=240)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait(timeout=30)
    assert p.returncode == 0, stdout
    assert json.loads(stdout.strip().splitlines()[-1]) == {
        "entity": 100,
        "indra": 12,
    }
