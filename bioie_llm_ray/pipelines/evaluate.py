"""Evaluation jobs: triple P/R vs gold, consensus analytics (SURVEY §3.3).

``triple_prf`` is the engine's parity gate: exact-match precision/recall of
emitted (subj, pred, obj) triples against a gold set (BASELINE target
P/R ≥ 0.95).  The gold side is broadcast (small relative to the corpus);
matching is a semi-join inside ``map_batches`` — no shuffle.

Consensus jobs mirror the reference's offline evaluator scripts:
- ``unanimous_consensus`` (G7, binary_task_evaluator.py:72-82): keys where
  every model predicted the same label.
- ``full_match_counts`` lives in functions.metrics (G5).
"""

from __future__ import annotations

import pyarrow as pa
import ray

from ..functions.metrics import from_label_counts  # noqa: F401  (re-export)

TripleKey = tuple[str, str, str]


def _triple_keys(batch: pa.Table) -> list[TripleKey]:
    return list(
        zip(
            batch["subj"].to_pylist(),
            batch["pred"].to_pylist(),
            batch["obj"].to_pylist(),
        )
    )


def triple_prf(
    triples: ray.data.Dataset, gold: set[TripleKey], symmetric_preds: set[str] = frozenset({"interacts_with"})
) -> dict[str, float]:
    """Exact-match P/R/F1 of distinct emitted triples vs a gold triple set.

    Predicates in ``symmetric_preds`` match in either direction (the STRING
    adjacency is symmetric, string_reader.py:112-120).
    """
    gold_norm = set()
    for s, p, o in gold:
        if p in symmetric_preds:
            a, b = sorted((s, o))
            gold_norm.add((a, p, b))
        else:
            gold_norm.add((s, p, o))

    gold_ref = ray.put(gold_norm)

    def tag(batch: pa.Table) -> pa.Table:
        g = ray.get(gold_ref)
        keys = _triple_keys(batch)
        norm_keys = []
        for s, p, o in keys:
            if p in symmetric_preds:
                a, b = sorted((s, o))
                norm_keys.append((a, p, b))
            else:
                norm_keys.append((s, p, o))
        return pa.table(
            {
                "key": pa.array(["\x1f".join(k) for k in norm_keys]),
                "hit": pa.array([k in g for k in norm_keys]),
            }
        )

    tagged = triples.map_batches(tag, batch_format="pyarrow")
    # distinct emitted triples (the pipeline already dedups; be safe) —
    # bucketed exact_dedup, NOT groupby(key).map_groups (one Python call per
    # distinct triple at 10^9 triples); counts reduce distributed.
    from ray.data.aggregate import Count, Sum

    from ..stages.dedup import exact_dedup

    distinct = exact_dedup(tagged, ["key"])
    agg = distinct.map_batches(
        lambda b: b.set_column(
            b.column_names.index("hit"),
            "hit",
            b["hit"].cast(pa.int64()),
        ),
        batch_format="pyarrow",
    ).aggregate(Sum("hit", alias_name="n_hit"), Count(alias_name="n_emitted"))
    n_emitted = int(agg["n_emitted"] or 0)
    n_hit = int(agg["n_hit"] or 0)
    precision = n_hit / n_emitted if n_emitted else 0.0
    recall = n_hit / len(gold_norm) if gold_norm else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "n_emitted": n_emitted,
        "n_gold": len(gold_norm),
        "n_hit": n_hit,
    }


def confusion_matrix(
    ds: ray.data.Dataset,
    labels: list[str],
    true_col: str = "true",
    pred_col: str = "pred",
):
    """Confusion counts over a predictions Dataset (K3 semantics).

    Mirrors evaluator.py:135-165: predictions outside the label set are
    dropped first.  Returns (matrix ndarray [true x pred], labels).  The
    reference renders a PNG via sklearn/matplotlib; the counts matrix is the
    data product — rendering is a driver-side afterthought when matplotlib
    exists.
    """
    import numpy as np

    label_ix = {l: i for i, l in enumerate(labels)}
    n = len(labels)

    def partial(batch: pa.Table) -> pa.Table:
        m = np.zeros((n, n), dtype=np.int64)
        for t, p in zip(
            batch[true_col].to_pylist(), batch[pred_col].to_pylist()
        ):
            if t in label_ix and p in label_ix:
                m[label_ix[t], label_ix[p]] += 1
        # one row per batch: the flattened partial matrix (mergeable sketch)
        return pa.table(
            {"cells": pa.array([m.reshape(-1).tolist()], type=pa.list_(pa.int64()))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    total = np.zeros(n * n, dtype=np.int64)
    for r in parts:
        total += np.asarray(r["cells"], dtype=np.int64)
    return total.reshape(n, n), labels


def full_match_intersection(
    per_model: dict[str, ray.data.Dataset], k: int = 10
) -> dict:
    """G6: cross-model intersection/uniqueness of full-match query sets.

    Mirrors generative_task_evaluator.py:122-175: for each model, the set of
    queries where all k aligned positions agree; reports the common core and
    each model's unique contribution.  Per-model sets are small aggregates —
    the set algebra runs on the driver.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    sets: dict[str, set] = {}
    for name, ds in per_model.items():
        def hits(batch: pa.Table) -> pa.Table:
            eq = pc.cast(pc.equal(batch["pred"], batch["true"]), pa.int64())
            return pa.table({"src": batch["src"], "hit": eq})

        per_src = (
            ds.map_batches(hits, batch_format="pyarrow")
            .groupby("src")
            .aggregate(Sum("hit", alias_name="n_hits"), Count(alias_name="n"))
            .to_pandas()
        )
        sets[name] = set(per_src[per_src["n_hits"] == k]["src"])
    names = list(sets)
    common = set.intersection(*sets.values()) if sets else set()
    return {
        "common": sorted(common),
        "per_model_full": {m: len(s) for m, s in sets.items()},
        "unique": {
            m: sorted(s - set.union(*(sets[o] for o in names if o != m)))
            if len(names) > 1
            else sorted(s)
            for m, s in sets.items()
        },
    }


def chain_entity_to_relation(
    entity_result: "ray.data.Dataset",
    scorer_cls,
    scorer_kwargs: dict,
    templates=None,
    batch_size: int = 256,
):
    """§3.2 stage chaining: entity-task predictions → yes/no verification.

    The reference re-parses a result FILE from a prior run
    (string_reader.py:11-64); here the upstream stage's predictions Dataset
    (or its Parquet checkpoint) feeds directly: each (src, pred) pair with
    pred != NONE becomes a relation question, answered by the scorer.
    Returns a predictions Dataset (src='p1\\x1fp2', pred, true='yes'),
    mirroring the reference's assumption that chained pairs are putative
    positives (string_reader.py:60).
    """
    import pyarrow.compute as pc

    from ..functions.prompts import get_templates
    from ..stages.scorer import score
    from .tasks import _map, _pair_prompts, _parse_choices

    templates = templates or get_templates("default", "string")

    def to_prompts(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.not_equal(batch["pred"], "NONE"))
        return _pair_prompts(
            keep["src"].to_pylist(),
            keep["pred"].to_pylist(),
            pa.array(["yes"] * len(keep), type=pa.string()),
            templates,
        )

    prompts = entity_result.map_batches(to_prompts, batch_format="pyarrow")
    return _map(
        score(prompts, scorer_cls, scorer_kwargs, batch_size),
        _parse_choices,
        choices=["yes", "no"],
    )


def stage_agreement(
    entity_preds: "ray.data.Dataset", relation_preds: "ray.data.Dataset"
) -> dict:
    """Full result_comparer.py:74-128 semantics over the chained dataflow.

    The reference zips two result files positionally into boolean vectors
    (entity row correct?, relation row correct?) and reports:
    1. joint accuracy of the two vectors (+ raw agree count + micro-F1,
       which for this binary positional compare equals the accuracy —
       result_comparer.py:106-108);
    2. the "entity-correct subset" re-comparison: keep positions where the
       entity stage was right, report the relation stage's accuracy there
       (result_comparer.py:110-120);
    3. the yes/no confusion over that subset (result_comparer.py:122-128) —
       row "no" is structurally zero because the subset's truth is all-yes.

    Here the positional zip is a key join: each chained pair key is
    ``src\\x1fpred`` of the entity row that spawned it.  Both sides are task
    outputs (≤ test_size × k rows), so the join runs driver-side.
    """
    import pyarrow.compute as pc

    # (key, ent_ok) for chained rows: entity pred != NONE spawned a pair
    def ent_bits(b: pa.Table) -> pa.Table:
        keep = b.filter(pc.not_equal(b["pred"], "NONE"))
        return pa.table(
            {
                "src": pa.array(
                    [
                        f"{s}\x1f{p}"
                        for s, p in zip(
                            keep["src"].to_pylist(), keep["pred"].to_pylist()
                        )
                    ],
                    type=pa.string(),
                ),
                "ent_ok": pc.equal(keep["pred"], keep["true"]),
            }
        )

    ent = entity_preds.map_batches(ent_bits, batch_format="pyarrow").to_pandas()
    rel = relation_preds.select_columns(["src", "pred"]).to_pandas()
    rel["rel_ok"] = rel["pred"] == "yes"
    merged = ent.merge(rel[["src", "rel_ok"]], on="src", how="inner")

    n = len(merged)
    agree = merged["ent_ok"] == merged["rel_ok"]
    joint_acc = float(agree.mean()) if n else 0.0
    sub = merged[merged["ent_ok"]]
    n_sub = len(sub)
    sub_acc = float(sub["rel_ok"].mean()) if n_sub else 0.0
    n_yes = int(rel["rel_ok"].sum())
    return {
        # original summary keys (kept for callers)
        "n_pairs": len(rel),
        "n_confirmed": n_yes,
        "agreement": n_yes / len(rel) if len(rel) else 0.0,
        # result_comparer parity
        "joint_accuracy": joint_acc,
        "n_joint_agree": int(agree.sum()),
        "joint_micro_f1": joint_acc,
        "n_entity_correct": n_sub,
        "entity_correct_accuracy": sub_acc,
        "entity_correct_micro_f1": sub_acc,
        "confusion_yes_no": {
            "yes_yes": int(sub["rel_ok"].sum()),
            "yes_no": int((~sub["rel_ok"]).sum()),
            "no_yes": 0,
            "no_no": 0,
        },
    }


def unanimous_consensus(per_model: dict[str, ray.data.Dataset]) -> ray.data.Dataset:
    """G7: union tagged per-model predictions, keep keys with one distinct pred.

    Input: model name → predictions Dataset (src, pred, true).
    Output: (src, pred, true) rows on which all models agree.
    """
    tagged = []
    for name, ds in per_model.items():
        tagged.append(
            ds.map_batches(
                lambda b, n=name: b.append_column(
                    "model", pa.array([n] * len(b), type=pa.string())
                ),
                batch_format="pyarrow",
            )
        )
    union = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    n_models = len(per_model)

    # bucket-group: one keyed exchange on src (src cardinality = query
    # count, unbounded), one vectorized pandas pass per bucket instead of
    # one map_groups call per key
    from ..stages.exchange import keyed_exchange

    def consensus_bucket(g):
        stats = g.groupby("src").agg(
            n_pred=("pred", "nunique"), n_model=("model", "nunique")
        )
        ok = stats[(stats["n_pred"] == 1) & (stats["n_model"] == n_models)].index
        kept = g[g["src"].isin(ok)].drop_duplicates(subset=["src"])
        return kept.drop(columns=["model"])

    return keyed_exchange(
        union, ["src"], consensus_bucket, 32, batch_format="pandas"
    )
