"""Seeded input generators.  Each writes files under a directory and returns
what the output checks need; the engine is handed only the files.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# kg_build: STRING-shaped KB with hub and boundary-adversarial names, and
# a docs table split into shard files (one checkpoint partition each)
KG_PROTEINS = 2000
KG_SHARDS = 4
KG_DOCS_PER_SHARD = 750

# corpus_dedup: word-bag documents of about 300 chars with planted copies
CORPUS_DOCS = 1000
CORPUS_EXACT_SHARE = 0.05
CORPUS_NEAR_SHARE = 0.07
CORPUS_VOCAB = 400

# kg_closure: one giant SCC plus in- and out-tendrils
GRAPH_CORE = 30
GRAPH_TENDRILS = 30


def make_kg_build(seed: int, out_dir: str) -> dict:
    """Docs shards + alias table; returns paths, vocab and gold triples."""
    from bioie_llm_ray import fixtures

    kb = fixtures.make_kb(n_proteins=KG_PROTEINS, seed=seed)
    n = KG_SHARDS * KG_DOCS_PER_SHARD
    docs, gold = fixtures.make_docs_table(kb, n_rows=n, seed=seed + 1)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i in range(KG_SHARDS):
        p = os.path.join(out_dir, f"docs_{i}.parquet")
        pq.write_table(docs.slice(i * KG_DOCS_PER_SHARD, KG_DOCS_PER_SHARD), p)
        paths.append(p)
    alias_path = os.path.join(out_dir, "aliases.parquet")
    pq.write_table(
        pa.table(
            {
                "alias": pa.array(kb.proteins, type=pa.string()),
                "canonical_id": pa.array(
                    [kb.protein_ids[p] for p in kb.proteins], type=pa.string()
                ),
            }
        ),
        alias_path,
    )
    return {
        "paths": paths,
        "alias_path": alias_path,
        "gold": {t for row in gold for t in row},
        "n_docs": n,
    }


def make_bioie_eval(seed: int, out_dir: str):
    """STRING / KEGG / INDRA fixture files at the reference sizes; returns
    the gold KB they encode."""
    from bioie_llm_ray import fixtures

    kb = fixtures.make_kb(seed=seed)
    fixtures.write_string_files(kb, os.path.join(out_dir, "STRING"))
    fixtures.write_kegg_files(kb, os.path.join(out_dir, "KEGG"))
    fixtures.write_indra_files(kb, os.path.join(out_dir, "INDRA"))
    return kb


def make_corpus(seed: int, out_dir: str) -> int:
    """``documents(doc_id, text, lang, source, n_chars)`` with a known share
    of exact copies and near copies; returns the document count."""
    rng = np.random.RandomState(seed)
    words = [f"w{i}" for i in range(CORPUS_VOCAB)]
    texts: list[str] = []
    for i in range(CORPUS_DOCS):
        r = rng.rand()
        if i >= 10 and r < CORPUS_EXACT_SHARE:
            texts.append(texts[rng.randint(i)])
        elif i >= 10 and r < CORPUS_EXACT_SHARE + CORPUS_NEAR_SHARE:
            # 2-20% of the words replaced: Jaccard on both sides of 0.5,
            # so some LSH candidates fail verification
            toks = texts[rng.randint(i)].split()
            for _ in range(max(1, int(len(toks) * rng.uniform(0.02, 0.2)))):
                toks[rng.randint(len(toks))] = words[rng.randint(len(words))]
            texts.append(" ".join(toks))
        else:
            k = rng.randint(50, 80)
            texts.append(" ".join(words[j] for j in rng.randint(0, len(words), k)))
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(CORPUS_DOCS), type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
                "lang": pa.array(["en"] * CORPUS_DOCS, type=pa.string()),
                "source": pa.array(
                    [f"src{i % 7}" for i in range(CORPUS_DOCS)], type=pa.string()
                ),
                "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
            }
        ),
        os.path.join(out_dir, "documents.parquet"),
    )
    return CORPUS_DOCS


def make_graph(seed: int, out_dir: str) -> dict:
    """Sparse digraph: a cycle through the core nodes plus chords (one
    giant SCC), and tendril nodes hanging into or out of the core."""
    rng = np.random.RandomState(seed)
    core = rng.permutation(GRAPH_CORE)
    src = [int(core[i]) for i in range(GRAPH_CORE)]
    dst = [int(core[(i + 1) % GRAPH_CORE]) for i in range(GRAPH_CORE)]
    for _ in range(GRAPH_CORE // 2):
        a, b = rng.randint(GRAPH_CORE, size=2)
        src.append(int(a))
        dst.append(int(b))
    for v in range(GRAPH_CORE, GRAPH_CORE + GRAPH_TENDRILS):
        u = int(rng.randint(v))  # attach to any earlier node
        if rng.rand() < 0.5:
            src.append(u)
            dst.append(v)
        else:
            src.append(v)
            dst.append(u)
    edges = pa.table(
        {"src": pa.array(src, type=pa.int64()), "dst": pa.array(dst, type=pa.int64())}
    )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "edges.parquet")
    pq.write_table(edges, path)
    return {"path": path, "edges": list(zip(src, dst))}
