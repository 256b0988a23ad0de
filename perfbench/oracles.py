"""Expected outputs, computed without Ray.

- kg_build: the generator's gold triples mapped through the alias index.
- bioie_eval: a serial walk of the seeded KB following the recipe of
  ``bioie_llm_ray.oracle.expected_kg_*``, at the sizes the workload uses.
- corpus_dedup: the ``oracle_sql()`` answers from DuckDB.  Run as a script
  (``python3 perfbench/oracles.py CORPUS_DIR OUT_DIR``) so DuckDB's memory
  never counts toward the benchmark process's RSS.
- kg_closure: Tarjan's strongly connected components.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pandas as pd

DEDUP_QUERIES = ["doc_dedup_exact", "dedup_minhash", "dedup_simhash", "dedup_jaccard"]

# bioie_eval task sizes (the __ray_entry__ kg_* reference sizes)
STRING_TEST_SIZE = 30
STRING_SHOTS = 2
PAIRS_PER_SIDE = 50
KEGG_TOP_N = 8
INDRA_PER_CLASS = 8
MISS_RATE = 0.03
FLIP_RATE = 0.03
_SEP = "\x1f"


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Order-insensitive form of a result: columns and rows sorted, floats
    rounded."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].astype(np.float64).round(9)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def frames_equal(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    a, b = canon(got), canon(want)
    return (
        list(a.columns) == list(b.columns)
        and len(a) == len(b)
        and a.astype(str).equals(b.astype(str))
    )


def kg_expected(gold: set, alias_index: dict[str, str]) -> set:
    from bioie_llm_ray.stages.linker import normalize_surface

    def link(s: str) -> str:
        n = normalize_surface(s)
        return alias_index.get(n, n)

    return {(link(s), p, link(o)) for s, p, o in gold}


def tarjan_labels(edges: list[tuple[int, int]]) -> dict[int, int]:
    """node -> smallest node id of its strongly connected component."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    labels: dict[int, int] = {}
    counter = 0
    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            nbrs = adj[v]
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                if w not in index:
                    work.append((v, i))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                m = min(comp)
                for w in comp:
                    labels[w] = m
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return labels


def bioie_expected(kb) -> dict[str, pd.DataFrame]:
    """Serial walk of the four tasks over ``kb``; keys match the pass's."""
    from bioie_llm_ray.functions.align import sort_and_pad
    from bioie_llm_ray.functions.parsing import (
        parse_choice_response,
        parse_entity_response,
    )
    from bioie_llm_ray.oracle import serial_hash_top_n
    from bioie_llm_ray.schemas import INDRA_RELATION_TYPES
    from bioie_llm_ray.stages.scorer import MockScorer

    out: dict[str, pd.DataFrame] = {}

    # STRING entity
    gold = {s: sorted(nb) for s, nb in kb.adjacency.items()}
    scorer = MockScorer(kind="entity", kb=gold, miss_rate=MISS_RATE)
    pool = [s for s, nb in kb.adjacency.items() if len(nb) >= 10]
    picked = serial_hash_top_n(pool, STRING_TEST_SIZE + STRING_SHOTS)
    rows = []
    for src in sorted(picked[STRING_SHOTS:]):
        gold_list = sorted(set(kb.adjacency[src]))
        pred = parse_entity_response(scorer._respond(src), gold_list)
        pred, true = sort_and_pad(pred, gold_list, max_entity_list_len=10)
        rows.extend({"src": src, "pred": p, "true": t} for p, t in zip(pred, true))
    out["string_entity"] = pd.DataFrame(rows, columns=["src", "pred", "true"])

    # STRING relation
    pos_pairs = {
        f"{min(a, b)}{_SEP}{max(a, b)}" for a, nb in kb.adjacency.items() for b in nb
    }
    scorer = MockScorer(kind="relation", kb=pos_pairs, flip_rate=FLIP_RATE)
    pos_keys = [f"{a}{_SEP}{b}" for a, nb in kb.adjacency.items() for b in nb if a < b]
    neg_keys = [f"{a}{_SEP}{b}" for a, b in kb.negatome]
    rows = []
    for keys, label in [(pos_keys, "yes"), (neg_keys, "no")]:
        for key in serial_hash_top_n(keys, PAIRS_PER_SIDE):
            pred = parse_choice_response(scorer._respond(key), ["yes", "no"])
            rows.append({"src": key.replace(_SEP, "|"), "pred": pred, "true": label})
    out["string_relation"] = pd.DataFrame(rows, columns=["src", "pred", "true"])

    # KEGG entity
    gold_map = {
        kb.pathways[pid]: sorted({kb.gene_aliases[g][0] for g in gids})
        for pid, gids in kb.pathway_genes.items()
    }
    scorer = MockScorer(kind="entity", kb=gold_map, miss_rate=MISS_RATE)
    rows = []
    for pathway in sorted(kb.pathways[p] for p in kb.dose_ranking["low"][:KEGG_TOP_N]):
        gold_list = sorted(set(gold_map[pathway]))
        pred = parse_entity_response(scorer._respond(pathway), gold_list)
        pred, true = sort_and_pad(pred, gold_list, max_entity_list_len=10)
        rows.extend({"src": pathway, "pred": p, "true": t} for p, t in zip(pred, true))
    out["kegg_entity"] = pd.DataFrame(rows, columns=["src", "pred", "true"])

    # INDRA relation type (triples)
    label_map = {s["id"]: s["rel_type"] for split in kb.indra.values() for s in split}
    choices = list(INDRA_RELATION_TYPES[:6])
    scorer = MockScorer(kind="relation_type", kb=label_map, flip_rate=FLIP_RATE)
    by_class: dict[str, dict[str, dict]] = {}
    for s in kb.indra["test"]:
        if s["text"].count(s["entity_1"][0]) == 1 and s["text"].count(s["entity_2"][0]) == 1:
            by_class.setdefault(s["rel_type"], {})[s["id"]] = s
    rows = []
    for members in by_class.values():
        for sid in serial_hash_top_n(list(members), INDRA_PER_CLASS):
            s = members[sid]
            (e1, (s1, t1)), (e2, (s2, t2)) = s["entity_1"], s["entity_2"]
            key = _SEP.join([sid, e1, str(s1), str(t1), e2, str(s2), str(t2)])
            pred = parse_choice_response(scorer._respond(key), choices)
            if pred != "none":
                rows.append({"subj": e1, "pred": pred, "obj": e2, "src_sha": sid})
    out["indra_relation_type"] = pd.DataFrame(
        rows, columns=["subj", "pred", "obj", "src_sha"]
    )
    return out


def write_dedup_oracle(corpus_dir: str, out_dir: str) -> None:
    import duckdb

    import __ray_entry__

    sql = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    path = os.path.join(corpus_dir, "documents.parquet")
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    os.makedirs(out_dir, exist_ok=True)
    for q in DEDUP_QUERIES:
        con.sql(sql[q]).df().to_parquet(os.path.join(out_dir, f"{q}.parquet"))
    con.close()


def read_dedup_oracle(out_dir: str) -> dict[str, pd.DataFrame]:
    return {q: pd.read_parquet(os.path.join(out_dir, f"{q}.parquet")) for q in DEDUP_QUERIES}


if __name__ == "__main__":
    sys.path.insert(0, os.getcwd())
    write_dedup_oracle(sys.argv[1], sys.argv[2])
