"""The reference's four benchmark tasks as Ray Data pipelines (SURVEY §3.1).

Each pipeline is: build test split (deterministic, hash-based) → prompt rows
→ ``stages.scorer.score`` → parse → align → predictions Dataset (+ triples).
The scorer is pluggable: ``MockScorer`` (tests/parity) runs as a plain task,
a model scorer such as ``HFScorer`` as an actor pool.  The prompt builders,
parsers and the predictions → triples mapping are shared kernels below;
the tasks differ only in the arguments they pass them.

Task semantics mirrored from the reference:

- STRING entity (string_processor.py:54-135): test pool = proteins with
  ≥ 10 interactors, shot pool ≤ 30 interactors (M3); gold = interactor list;
  parse M9; align M12 (k=10); triples (query, interacts_with, pred).
- STRING relation (string_processor.py:140-330): positive pairs from the
  adjacency (M4), negatives from Negatome; balanced sample; yes/no (M10);
  triples for 'yes'.
- KEGG entity (kegg_processor.py:73-269): top-100 pathways by dose rank
  (O3), gold = primary gene names (x[0] of each alias list); k=10 alignment.
- INDRA relation_type (indra_processor.py:55-236): per-class sample (G3),
  6-class choice (M10); triples (e1, rel, e2).

Splits are hash-based (functions.hashing) rather than seeded ``random.sample``
— deterministic at any partition count (SURVEY §7.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.align import sort_and_pad
from ..functions.hashing import stable_hash_u64
from ..functions.parsing import (
    parse_choice_response,
    parse_containment_response,
    parse_entity_response,
)
from ..functions.prompts import PromptTemplates, get_templates
from ..schemas import INDRA_RELATION_TYPES
from ..stages.scorer import MockScorer, score

_PAIR_SEP = "\x1f"


@dataclass
class TaskResult:
    """Predictions + triples of one task run (both lazy Datasets)."""

    predictions: ray.data.Dataset  # (src, pred, true)
    triples: ray.data.Dataset  # (subj, pred, obj, src_sha)


def _hash_top_n(keys: list[str], n: int) -> list[str]:
    """Deterministic 'sample' of n keys: the n smallest stable hashes."""
    if len(keys) <= n:
        return sorted(keys)
    h = stable_hash_u64(keys)
    order = np.argsort(h, kind="stable")
    return [keys[int(i)] for i in order[:n]]


def _map(ds: ray.data.Dataset, fn, **fn_kwargs) -> ray.data.Dataset:
    return ds.map_batches(fn, fn_kwargs=fn_kwargs, batch_format="pyarrow")


# ------------------------------------------------------------ prompt builders


def _entity_prompts(
    batch: pa.Table, *, key_col: str, gold_col: str, keys: set,
    template: str, prefix: str = "",
) -> pa.Table:
    """Rows whose ``key_col`` is in ``keys`` → generative entity prompts;
    the answer is the sorted distinct ``gold_col`` list."""
    batch = batch.filter(pa.array([e in keys for e in batch[key_col].to_pylist()]))
    entities = batch[key_col].to_pylist()
    return pa.table(
        {
            "entity": pa.array(entities, type=pa.string()),
            "text": pa.array(
                [prefix + template.format(entity=e) for e in entities],
                type=pa.string(),
            ),
            "answer": pa.array(
                [sorted(set(g)) for g in batch[gold_col].to_pylist()],
                type=pa.list_(pa.string()),
            ),
        }
    )


def _pair_prompts(a: list[str], b: list[str], answer, templates) -> pa.Table:
    """(a, b) pairs → yes/no relation prompts keyed ``a\\x1fb``."""
    return pa.table(
        {
            "entity": pa.array(
                [f"{x}{_PAIR_SEP}{y}" for x, y in zip(a, b)], type=pa.string()
            ),
            "text": pa.array(
                [templates.relation_q.format(e1=x, e2=y) for x, y in zip(a, b)],
                type=pa.string(),
            ),
            "answer": answer,
        }
    )


def _type_prompts(
    batch: pa.Table, *, template: str, choices: str, key_col: str = "entity"
) -> pa.Table:
    """(key, [text], answer) rows → classification prompts; ``template``
    may use {entity}, {text} and {choices}."""
    keys = batch[key_col].to_pylist()
    texts = (
        batch["text"].to_pylist()
        if "text" in batch.column_names
        else [None] * len(keys)
    )
    return pa.table(
        {
            "entity": pc.cast(batch[key_col], pa.string()),
            "text": pa.array(
                [
                    template.format(entity=e, text=t, choices=choices)
                    for e, t in zip(keys, texts)
                ],
                type=pa.string(),
            ),
            "answer": batch["answer"],
        }
    )


# -------------------------------------------------------------------- parsers


def _parse_entities(batch: pa.Table, *, k: int, strip_gold: bool) -> pa.Table:
    """Entity responses → k aligned (src, pred, true) rows per query
    (M9 parse, M12 sort-and-pad)."""
    out = {"src": [], "pred": [], "true": []}
    for entity, resp, gold in zip(
        batch["entity"].to_pylist(),
        batch["response"].to_pylist(),
        batch["answer"].to_pylist(),
    ):
        if strip_gold:
            gold = [g.strip() for g in gold]
        pred = parse_entity_response(resp, gold)
        pred, true = sort_and_pad(pred, gold, max_entity_list_len=k)
        out["src"].extend([entity] * len(pred))
        out["pred"].extend(pred)
        out["true"].extend(true)
    return pa.table({c: pa.array(v, type=pa.string()) for c, v in out.items()})


def _parse_choices(
    batch: pa.Table, *, choices: list[str], lower_true: bool = False
) -> pa.Table:
    """Choice responses (M10) → (src, pred, true)."""
    true = batch["answer"]
    if lower_true:
        true = pa.array([t.lower() for t in true.to_pylist()], type=pa.string())
    return pa.table(
        {
            "src": batch["entity"],
            "pred": pa.array(
                [
                    parse_choice_response(r, choices)
                    for r in batch["response"].to_pylist()
                ],
                type=pa.string(),
            ),
            "true": true,
        }
    )


def _parse_containment(batch: pa.Table, *, choices: list[str]) -> pa.Table:
    """Free-form responses → (src, pred, true) by choice containment after
    removing the entity name (M11)."""
    return pa.table(
        {
            "src": batch["entity"],
            "pred": pa.array(
                [
                    parse_containment_response(resp, ent, choices)
                    for resp, ent in zip(
                        batch["response"].to_pylist(),
                        batch["entity"].to_pylist(),
                    )
                ],
                type=pa.string(),
            ),
            "true": batch["answer"],
        }
    )


# --------------------------------------------------------- predictions → KG


def _to_triples(
    batch: pa.Table, *, relation: str | None, subj, obj, src_sha=None,
    drop: str | None = None, only: str | None = None,
) -> pa.Table:
    """Prediction rows → (subj, pred, obj, src_sha) triples.

    Keeps the rows whose ``pred`` differs from ``drop`` (the task's "no
    prediction" sentinel), or equals ``only``.  ``subj``, ``obj`` and
    ``src_sha`` each name a column (``"src"``/``"pred"``) or, as an int, a
    field of the ``\\x1f``-joined ``src``; a missing ``src_sha`` is "".
    ``relation=None`` takes the predicate from ``pred``.
    """
    if only is not None:
        keep = batch.filter(pc.equal(batch["pred"], only))
    else:
        keep = batch.filter(pc.not_equal(batch["pred"], drop))

    def column(spec, fill: str = ""):
        if spec is None:
            return pa.array([fill] * len(keep), type=pa.string())
        if isinstance(spec, str):
            return keep[spec]
        return pc.list_element(pc.split_pattern(keep["src"], _PAIR_SEP), spec)

    return pa.table(
        {
            "subj": column(subj),
            "pred": column("pred") if relation is None else column(None, relation),
            "obj": column(obj),
            "src_sha": column(src_sha),
        }
    )


def _result(predictions: ray.data.Dataset, **triples) -> TaskResult:
    return TaskResult(predictions, _map(predictions, _to_triples, **triples))


def _sample_pairs(
    pos: ray.data.Dataset, neg: ray.data.Dataset, cols: list[str], n: int
) -> pa.Table:
    """``n`` hash-sampled pairs per side, answered 'yes' (pos) / 'no' (neg).

    Distributed hash top-n never materializes a side on the driver (~11.9M
    STRING pairs at real scale, string_processor.py:168); duplicate input
    pairs collapse to one sampled row.
    """
    from ..stages.sample import distributed_hash_top_n

    sides = []
    for ds, label in ((pos, "yes"), (neg, "no")):
        t = distributed_hash_top_n(ds, cols, n).select(cols)
        sides.append(
            t.append_column("answer", pa.array([label] * len(t), type=pa.string()))
        )
    return pa.concat_tables(sides)


# ---------------------------------------------------------------- STRING entity


def string_entity_task(
    adjacency: ray.data.Dataset,
    test_size: int = 100,
    n_shots: int = 2,
    k: int = 10,
    max_shot_list_len: int = 30,
    min_test_list_len: int = 10,
    scorer_cls=MockScorer,
    scorer_kwargs: dict | None = None,
    templates: PromptTemplates | None = None,
    batch_size: int = 256,
) -> TaskResult:
    """Generative PPI task over an adjacency Dataset (src, neighbors)."""
    templates = templates or get_templates("default", "string")

    # split pools with vectorized filters (M3)
    def pool_filter(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(batch["neighbors"])
        return batch.filter(pc.greater_equal(n, min_test_list_len))

    test_pool = adjacency.map_batches(pool_filter, batch_format="pyarrow")
    # the query-key list is small (one row per qualifying entity) — keys only
    # on the driver; hash order replaces the reference's seeded sampling
    pool_keys = [
        r["src"] for r in test_pool.select_columns(["src"]).take_all()
    ]
    picked = _hash_top_n(pool_keys, test_size + n_shots)
    shot_keys = set(picked[:n_shots])  # shots excluded from test (J3 anti-join)
    test_keys = set(picked[n_shots:])

    # shot prefix (A4): fetch only the n_shots rows, build once, broadcast via
    # closure capture (a short string constant)
    shot_prefix = ""
    if n_shots:
        from ..functions.prompts import build_shot_prefix

        shot_rows = test_pool.map_batches(
            lambda b: b.filter(
                pa.array([s in shot_keys for s in b["src"].to_pylist()])
            ),
            batch_format="pyarrow",
        ).take_all()
        shots = [
            {
                "entity": r["src"],
                "answer": sorted(set(r["neighbors"]))[:max_shot_list_len],
            }
            for r in shot_rows
        ]
        shot_prefix = build_shot_prefix(templates, "entity", shots)

    prompts = _map(
        adjacency, _entity_prompts, key_col="src", gold_col="neighbors",
        keys=test_keys, template=templates.entity_q, prefix=shot_prefix,
    )
    predictions = _map(
        score(prompts, scorer_cls, scorer_kwargs, batch_size),
        _parse_entities, k=k, strip_gold=True,
    )
    return _result(
        predictions, relation="interacts_with", subj="src", obj="pred",
        drop="NONE",
    )


# -------------------------------------------------------------- STRING relation


def string_relation_task(
    adjacency: ray.data.Dataset,
    negatome: ray.data.Dataset,
    n_pairs_per_side: int = 100,
    scorer_cls=MockScorer,
    scorer_kwargs: dict | None = None,
    templates: PromptTemplates | None = None,
    batch_size: int = 256,
) -> TaskResult:
    """Yes/no pair-classification with Negatome negatives."""
    templates = templates or get_templates("default", "string")

    # positive pairs by exploding the adjacency list column (M4)
    def explode(batch: pa.Table) -> pa.Table:
        srcs, dsts = [], []
        for s, nbrs in zip(
            batch["src"].to_pylist(), batch["neighbors"].to_pylist()
        ):
            for d in nbrs:
                if s < d:  # one direction; the pair is symmetric
                    srcs.append(s)
                    dsts.append(d)
        return pa.table(
            {
                "p1": pa.array(srcs, type=pa.string()),
                "p2": pa.array(dsts, type=pa.string()),
            }
        )

    pos = adjacency.map_batches(explode, batch_format="pyarrow")
    pairs = _sample_pairs(pos, negatome, ["p1", "p2"], n_pairs_per_side)
    prompts = ray.data.from_arrow(
        _pair_prompts(
            pairs["p1"].to_pylist(), pairs["p2"].to_pylist(), pairs["answer"],
            templates,
        )
    )
    predictions = _map(
        score(prompts, scorer_cls, scorer_kwargs, batch_size),
        _parse_choices, choices=["yes", "no"],
    )
    return _result(
        predictions, relation="interacts_with", subj=0, obj=1, only="yes"
    )


# ----------------------------------------------------------------- KEGG entity


def kegg_entity_task(
    pathway_genes: ray.data.Dataset,
    ranking: ray.data.Dataset,
    top_n: int = 100,
    k: int = 10,
    scorer_cls=MockScorer,
    scorer_kwargs: dict | None = None,
    templates: PromptTemplates | None = None,
    batch_size: int = 256,
) -> TaskResult:
    """Pathway→genes generative task over the top-N dose-ranked pathways.

    ``pathway_genes``: (pathway, genes:list<string>) with primary gene names;
    ``ranking``: (pathway_id→pathway rank) — tiny, joined via broadcast.
    """
    templates = templates or get_templates("default", "kegg")

    rank_map = {
        r["pathway"]: r["rank"] for r in ranking.take_all()
    }
    top = {p for p, rk in rank_map.items() if rk < top_n}

    prompts = _map(
        pathway_genes, _entity_prompts, key_col="pathway", gold_col="genes",
        keys=top, template=templates.entity_q,
    )
    predictions = _map(
        score(prompts, scorer_cls, scorer_kwargs, batch_size),
        _parse_entities, k=k, strip_gold=False,
    )
    return _result(
        predictions, relation="member_of", subj="pred", obj="src", drop="NONE"
    )


def kegg_relation_task(
    membership: ray.data.Dataset,
    gene_alias_map: dict[str, list[str]],
    pathway_name_map: dict[str, str],
    n_pairs_per_side: int = 50,
    scorer_cls=MockScorer,
    scorer_kwargs: dict | None = None,
    templates: PromptTemplates | None = None,
    batch_size: int = 256,
) -> TaskResult:
    """Composed KEGG relation task with GENERATED negatives (the latent J4
    flow, kegg_processor.py:140-157: 17,552 pos / 190,148 neg at real scale).

    Positives: every (gene alias, pathway) membership edge — the reference
    adds every alias of every member gene.  Negatives: the gene × pathway
    cross product minus the positive set, built per-batch against the
    broadcast pathway list and anti-joined against the broadcast positive
    key set (``anti_semi_filter``, J4) — the cross product never
    materializes.  Both sides sample via distributed hash top-n.

    ``membership``: Dataset (gene_id, pathway_id); the alias and
    pathway-name maps are KB-sized broadcast sides (J2).
    """
    templates = templates or get_templates("default", "kegg")

    def explode_pos(batch: pa.Table) -> pa.Table:
        genes, paths = [], []
        for gid, pid in zip(
            batch["gene_id"].to_pylist(), batch["pathway_id"].to_pylist()
        ):
            pname = pathway_name_map[pid]
            for alias in gene_alias_map[gid]:
                genes.append(alias)
                paths.append(pname)
        return pa.table(
            {
                "gene": pa.array(genes, type=pa.string()),
                "pathway": pa.array(paths, type=pa.string()),
            }
        )

    pos = membership.map_batches(explode_pos, batch_format="pyarrow")
    # positive key set: KB-sized like the alias/name maps themselves
    # (17,552 keys at real KEGG scale) — a legitimate broadcast side
    edges = membership.select_columns(["gene_id", "pathway_id"]).take_all()
    pos_keys = ray.put(
        {
            f"{g}{_PAIR_SEP}{pathway_name_map[e['pathway_id']]}"
            for e in edges
            for g in gene_alias_map[e["gene_id"]]
        }
    )

    # negative generation: distinct member aliases × broadcast pathway list,
    # anti-filtered against the positive key set.  The gene vocabulary is
    # KB-sized (run over the distinct gene_id side, not the corpus).
    from ..stages.dedup import exact_dedup
    from ..stages.join import anti_semi_filter

    pathways = sorted(set(pathway_name_map.values()))
    distinct_genes = exact_dedup(
        membership.select_columns(["gene_id"]), ["gene_id"]
    )

    def cross(batch: pa.Table) -> pa.Table:
        genes, paths = [], []
        seen = set()
        for gid in batch["gene_id"].to_pylist():
            for alias in gene_alias_map[gid]:
                if alias in seen:
                    continue
                seen.add(alias)
                for p in pathways:
                    genes.append(alias)
                    paths.append(p)
        return pa.table(
            {
                "gene": pa.array(genes, type=pa.string()),
                "pathway": pa.array(paths, type=pa.string()),
            }
        )

    neg = anti_semi_filter(
        distinct_genes.map_batches(cross, batch_format="pyarrow"),
        pos_keys,
        keys=["gene", "pathway"],
        anti=True,
    )

    pairs = _sample_pairs(pos, neg, ["gene", "pathway"], n_pairs_per_side)
    prompts = ray.data.from_arrow(
        _pair_prompts(
            pairs["gene"].to_pylist(), pairs["pathway"].to_pylist(),
            pairs["answer"], templates,
        )
    )
    predictions = _map(
        score(prompts, scorer_cls, scorer_kwargs, batch_size),
        _parse_choices, choices=["yes", "no"],
    )
    return _result(predictions, relation="member_of", subj=0, obj=1, only="yes")


# ------------------------------------------------------------------ INDRA task


def indra_relation_type_task(
    statements: ray.data.Dataset,
    per_class: int = 10,
    num_classes: int = 6,
    scorer_cls=MockScorer,
    scorer_kwargs: dict | None = None,
    templates: PromptTemplates | None = None,
    batch_size: int = 256,
) -> TaskResult:
    """6-class relation typing with per-class balanced sampling (G3)."""
    templates = templates or get_templates("default", "indra")
    choices = list(INDRA_RELATION_TYPES[:num_classes])
    choices_str = ", ".join(choices)

    # distributed per-class hash top-n: the old groupby("rel_type").map_groups
    # put an entire class in one group (one task holds every statement of a
    # 6-way class split — unbounded at corpus scale); the streaming partial
    # top-n keeps ≤ per_class rows per class per block instead
    from ..stages.sample import distributed_hash_top_n

    sampled = ray.data.from_arrow(
        distributed_hash_top_n(
            statements, ["id"], per_class, group_col="rel_type"
        )
    )

    def format_prompts(batch: pa.Table) -> pa.Table:
        texts, entities = [], []
        for sid, text, e1, e2 in zip(
            batch["id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["entity_1"].to_pylist(),
            batch["entity_2"].to_pylist(),
        ):
            texts.append(
                templates.relation_type_q.format(
                    text=text, e1=e1["name"], e2=e2["name"], choices=choices_str
                )
            )
            entities.append(
                _PAIR_SEP.join(
                    [
                        sid,
                        e1["name"],
                        str(e1["span_start"]),
                        str(e1["span_end"]),
                        e2["name"],
                        str(e2["span_start"]),
                        str(e2["span_end"]),
                    ]
                )
            )
        return pa.table(
            {
                "entity": pa.array(entities, type=pa.string()),
                "text": pa.array(texts, type=pa.string()),
                "answer": batch["rel_type"],
            }
        )

    prompts = sampled.map_batches(format_prompts, batch_format="pyarrow")
    predictions = _map(
        score(prompts, scorer_cls, scorer_kwargs, batch_size),
        _parse_choices, choices=choices, lower_true=True,
    )
    # the entity key packs (id, e1, e1 span, e2, e2 span)
    return _result(
        predictions, relation=None, subj=1, obj=4, src_sha=0, drop="none"
    )


# ------------------------------------- containment and entity_type (kbase)


def _typing_task(
    statements: ray.data.Dataset,
    template: str,
    choices: list[str],
    scorer_cls,
    scorer_kwargs: dict | None,
    batch_size: int,
) -> TaskResult:
    """Classification scored by substring containment (M11), emitting
    (entity, has_type, label) triples."""
    prompts = _map(
        statements, _type_prompts, template=template, choices=", ".join(choices)
    )
    predictions = _map(
        score(prompts, scorer_cls, scorer_kwargs, batch_size),
        _parse_containment, choices=choices,
    )
    return _result(
        predictions, relation="has_type", subj="src", obj="pred", drop="None"
    )


def containment_task(
    statements: ray.data.Dataset,
    choices: list[str],
    scorer_cls=MockScorer,
    scorer_kwargs: dict | None = None,
    question_template: str = "What kind of event does {entity} describe? {choices}",
    batch_size: int = 256,
) -> TaskResult:
    """Containment-parse classification (the reference's kbase variant, M11).

    Input rows: (entity, answer) — the scorer answers free-form text and
    the parser scans for choice-substring containment after removing the
    entity name (base_processor.py:1309-1332).
    """
    return _typing_task(
        statements, question_template, choices, scorer_cls, scorer_kwargs,
        batch_size,
    )


def entity_type_task(
    statements: ray.data.Dataset,
    choices: list[str],
    scorer_cls=MockScorer,
    scorer_kwargs: dict | None = None,
    templates: PromptTemplates | None = None,
    batch_size: int = 256,
) -> TaskResult:
    """kbase ``entity_type`` task (run_model.py:549, dispatch 563-565).

    Input rows: (entity, text, answer).  The prompt is the family's
    ``entity_type_q`` ({entity}, {text}, {choices}); the response is parsed
    by substring containment (M11, base_processor.py:1309-1332).
    """
    templates = templates or get_templates("default", "string")
    return _typing_task(
        statements, templates.entity_type_q, choices, scorer_cls,
        scorer_kwargs, batch_size,
    )


def entity_and_entity_type_task(
    docs: ray.data.Dataset,
    choices: list[str],
    scorer_cls=MockScorer,
    scorer_kwargs: dict | None = None,
    templates: PromptTemplates | None = None,
    batch_size: int = 256,
) -> ray.data.Dataset:
    """kbase ``entity_and_entity_type`` open extraction (run_model.py:549,
    737-739).

    Input rows: (doc_id, text, answer: list<string> of 'Name (type)').
    Output rows: (src, pred_entity, pred_type, hit) — one per extracted
    pair, ``hit`` true when the pair appears in the gold list.  The
    reference does not align/score this task; it dumps raw JSON
    (run_model.py:752-762) — see ``state.legacy.write_raw_results_json``.
    """
    from ..functions.parsing import parse_entity_type_pairs

    templates = templates or get_templates("default", "string")

    def parse(batch: pa.Table) -> pa.Table:
        srcs, ents, typs, hits = [], [], [], []
        for src, resp, gold in zip(
            batch["entity"].to_pylist(),
            batch["response"].to_pylist(),
            batch["answer"].to_pylist(),
        ):
            gold_set = set(gold or [])
            for name, typ in parse_entity_type_pairs(resp):
                srcs.append(src)
                ents.append(name)
                typs.append(typ)
                hits.append(f"{name} ({typ})" in gold_set)
        return pa.table(
            {
                "src": pa.array(srcs, type=pa.string()),
                "pred_entity": pa.array(ents, type=pa.string()),
                "pred_type": pa.array(typs, type=pa.string()),
                "hit": pa.array(hits, type=pa.bool_()),
            }
        )

    prompts = _map(
        docs, _type_prompts, template=templates.entity_and_entity_type_q,
        choices=", ".join(choices), key_col="doc_id",
    )
    return score(prompts, scorer_cls, scorer_kwargs, batch_size).map_batches(
        parse, batch_format="pyarrow"
    )
