"""Floor probes (the benchmark's own tiny Ray pipelines) and single-thread
kernel probes on fixed batches drawn from each workload's input."""

from __future__ import annotations

import os
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

FLOOR_ROWS = 25
FLOOR_REPS = 3
KERNEL_MIN_S = 0.3


def _identity(batch: pa.Table) -> pa.Table:
    return batch


class _IdentityActor:
    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch


def _check_rows(rows: list) -> None:
    if sorted(r["k"] for r in rows) != list(range(FLOOR_ROWS)):
        raise RuntimeError("floor pipeline lost or duplicated rows")


def _median_time(fn, reps: int = FLOOR_REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def floor(work: str) -> dict:
    """25-row read -> map -> N exchanges -> collect, and a one-actor pool."""
    import ray

    path = os.path.join(work, "floor.parquet")
    pq.write_table(pa.table({"k": list(range(FLOOR_ROWS))}), path)

    def exchanges(n: int):
        ds = ray.data.read_parquet(path).map_batches(_identity, batch_format="pyarrow")
        for _ in range(n):
            ds = ds.random_shuffle()
        _check_rows(ds.take_all())

    def actor_pool():
        _check_rows(
            ray.data.read_parquet(path)
            .map_batches(_IdentityActor, batch_format="pyarrow", concurrency=1)
            .take_all()
        )

    one = _median_time(lambda: exchanges(1))
    three = _median_time(lambda: exchanges(3))
    no_exchange = _median_time(lambda: exchanges(0))
    actor = _median_time(actor_pool)
    return {
        "floor.one_exchange_s": one,
        "floor.extra_exchange_s": (three - one) / 2,
        "floor.actor_pool_start_s": actor - no_exchange,
    }


def rate(fn, n_items: int) -> float:
    """Items per second of ``fn`` (which handles ``n_items``), from the
    median call over at least KERNEL_MIN_S of repeated calls."""
    times = []
    t_end = time.perf_counter() + KERNEL_MIN_S
    while len(times) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return n_items / statistics.median(times)


def kernels(families: dict) -> dict:
    from bioie_llm_ray.functions.align import sort_and_pad
    from bioie_llm_ray.functions.hashing import add_sha256_column
    from bioie_llm_ray.functions.parsing import parse_entity_response
    from bioie_llm_ray.stages.linker import EntityLinker
    from bioie_llm_ray.stages.mention import vocab_token_hits
    from bioie_llm_ray.stages.neardup import SimHasher, minhash_bands_batch
    from bioie_llm_ray.stages.scorer import MockScorer

    out = {}
    kg = families["kg_build"]
    docs, triples = kg.kernel_batch()
    plain = docs.drop_columns(["content_sha256"])
    vocab_arr = pa.array(sorted(set(kg.vocab)), type=pa.string())
    linker = EntityLinker(
        kg.alias_index, mention_col="subj", out_col="subj", add_linked_flag=False
    )
    out["hashing.sha256_rows_per_s"] = rate(lambda: add_sha256_column(plain), len(plain))
    out["mention.scan_rows_per_s"] = rate(
        lambda: vocab_token_hits(docs["content"], vocab_arr), len(docs)
    )
    out["linker.rows_per_s"] = rate(lambda: linker(triples), len(triples))

    gold = {s: sorted(nb) for s, nb in families["bioie_eval"].kb.adjacency.items()}
    keys = sorted(gold)
    scorer = MockScorer(kind="entity", kb=gold, miss_rate=0.03)
    prompts = pa.table({"entity": pa.array(keys, type=pa.string())})
    responses = scorer(prompts)["response"].to_pylist()
    out["scorer.mock_rows_per_s"] = rate(lambda: scorer(prompts), len(keys))
    out["parsing.entity_responses_per_s"] = rate(
        lambda: [parse_entity_response(r, gold[k]) for r, k in zip(responses, keys)],
        len(keys),
    )
    preds = [parse_entity_response(r, gold[k]) for r, k in zip(responses, keys)]
    out["align.sort_and_pad_per_s"] = rate(
        lambda: [sort_and_pad(p, gold[k]) for p, k in zip(preds, keys)], len(keys)
    )

    corpus = families["corpus_dedup"].kernel_batch()
    simhasher = SimHasher()
    out["neardup.minhash_docs_per_s"] = rate(lambda: minhash_bands_batch(corpus), len(corpus))
    out["neardup.simhash_docs_per_s"] = rate(lambda: simhasher(corpus), len(corpus))
    return out
