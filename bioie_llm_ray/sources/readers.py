"""Ray Data readers for the reference's input formats (SURVEY §2.1 S1-S12).

Each reader returns a ``ray.data.Dataset`` with one of the explicit schemas in
``bioie_llm_ray.schemas``; parsing happens in vectorized pyarrow kernels, not
Python row loops.  Tiny ordered side-inputs (dose rankings, ≤ a few hundred
rows) are read on the driver — they are broadcast constants, not data.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from pyarrow import csv as pacsv

from ..functions.hashing import add_sha256_column


def read_docs(path, columns=None, text_col: str = "content") -> ray.data.Dataset:
    """Primary input table; appends the sha256(``text_col``) invariant
    column ``content_sha256``."""
    ds = ray.data.read_parquet(path, columns=columns)
    return ds.map_batches(
        add_sha256_column, fn_kwargs={"column": text_col}, batch_format="pyarrow"
    )


def read_protein_info(path: str) -> ray.data.Dataset:
    """S1: STRING protein-info TSV (header row) → (string_protein_id, preferred_name).

    Format per string_reader.py:91-98: 4 tab-separated columns, first line
    skipped.
    """
    ds = ray.data.read_csv(
        path,
        read_options=pacsv.ReadOptions(
            column_names=[
                "string_protein_id",
                "preferred_name",
                "protein_size",
                "annotation",
            ],
            skip_rows=1,
        ),
        parse_options=pacsv.ParseOptions(delimiter="\t"),
    )
    return ds.select_columns(["string_protein_id", "preferred_name"])


def read_protein_links(path: str) -> ray.data.Dataset:
    """S2 (read part): STRING links, space-delimited with header."""
    return ray.data.read_csv(
        path,
        read_options=pacsv.ReadOptions(
            column_names=["protein_1_id", "protein_2_id", "combined_score"],
            skip_rows=1,
        ),
        parse_options=pacsv.ParseOptions(delimiter=" "),
    )


def read_negatome(path: str) -> ray.data.Dataset:
    """S4: headerless 2-column CSV, utf-8-sig (string_reader.py:82-86)."""
    ds = ray.data.read_csv(
        path,
        read_options=pacsv.ReadOptions(column_names=["p1", "p2"]),
    )

    def strip_bom(batch: pa.Table) -> pa.Table:
        p1 = pc.replace_substring(batch["p1"], "﻿", "")
        return pa.table(
            {"p1": pc.utf8_trim_whitespace(p1), "p2": pc.utf8_trim_whitespace(batch["p2"])}
        )

    return ds.map_batches(strip_bom, batch_format="pyarrow")


def build_edges(links: ray.data.Dataset, id_to_name: dict[str, str]) -> ray.data.Dataset:
    """S2 (build part): id→name substitution + symmetric edge emission.

    The id→name map (~19K entries for real STRING) is a broadcast small side
    (SURVEY §2.5 J1): captured once, shipped to each task by Ray's closure
    serialization — no shuffle.  Output has both directions of every link,
    matching string_reader.py:112-120 which inserts both.
    """

    def _map_ids(col) -> pa.Array:
        # dictionary-encode: the Python dict lookup runs once per UNIQUE id
        # in the batch (≤ vocabulary size), then a take() fans the mapped
        # names back out over all rows at C speed.
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = pc.dictionary_encode(col)
        uniq_names = pa.array(
            [id_to_name[x] for x in enc.dictionary.to_pylist()],
            type=pa.string(),
        )
        return uniq_names.take(enc.indices)

    def substitute(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": _map_ids(batch["protein_1_id"]),
                "dst": _map_ids(batch["protein_2_id"]),
            }
        )

    return links.map_batches(substitute, batch_format="pyarrow")


def edges_to_adjacency(edges: ray.data.Dataset, n_buckets: int = 64) -> ray.data.Dataset:
    """G1: symmetric edge stream → (src, sorted distinct neighbors).

    The canonicalization/grouping shuffle (SURVEY §2.6 G1).  Grouped by
    a hash of ``src`` into ``n_buckets`` rather than by ``src`` itself: one
    pandas groupby-agg per bucket instead of one Python call per entity (at
    a 10^6-entity vocabulary the per-key variant would make 10^6 UDF calls).
    """
    from ..stages.exchange import keyed_exchange

    def collect_bucket(group: pa.Table):
        import pandas as pd

        df = group.select(["src", "dst"]).to_pandas()
        agg = df.groupby("src", sort=True)["dst"].agg(
            lambda s: sorted(set(s))
        )
        return pd.DataFrame({"src": agg.index, "neighbors": agg.values})

    return keyed_exchange(edges, ["src"], collect_bucket, n_buckets)


def read_kegg_pathways(path: str) -> ray.data.Dataset:
    """S6: KEGG pathway TSV; strips 'path:' prefix and species suffix."""
    ds = ray.data.read_csv(
        path,
        read_options=pacsv.ReadOptions(column_names=["pathway_id", "pathway_name"]),
        parse_options=pacsv.ParseOptions(delimiter="\t"),
    )

    def norm(batch: pa.Table) -> pa.Table:
        pid = pc.utf8_trim_whitespace(
            pc.replace_substring(batch["pathway_id"], "path:", "")
        )
        name = pc.utf8_trim_whitespace(
            pc.replace_substring(batch["pathway_name"], " - Homo sapiens (human)", "")
        )
        return pa.table({"pathway_id": pid, "pathway_name": name})

    return ds.map_batches(norm, batch_format="pyarrow")


def read_kegg_genes(path: str) -> ray.data.Dataset:
    """S7: gene TSV → (gene_id, aliases list).

    Per kegg_reader.py:136-138: take the part before '; ', split on ', '.
    """
    ds = ray.data.read_csv(
        path,
        read_options=pacsv.ReadOptions(column_names=["gene_id", "gene_names"]),
        parse_options=pacsv.ParseOptions(delimiter="\t"),
    )

    def norm(batch: pa.Table) -> pa.Table:
        head = pc.list_element(
            pc.split_pattern(batch["gene_names"], "; ", max_splits=1), 0
        )
        aliases = pc.split_pattern(head, ", ")
        return pa.table(
            {
                "gene_id": pc.utf8_trim_whitespace(batch["gene_id"]),
                "aliases": aliases,
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


def read_kegg_pathway_genes(path: str) -> ray.data.Dataset:
    """S8: membership TSV → (gene_id, pathway_id) edges, 'path:' stripped."""
    ds = ray.data.read_csv(
        path,
        read_options=pacsv.ReadOptions(column_names=["gene_id", "pathway_id"]),
        parse_options=pacsv.ParseOptions(delimiter="\t"),
    )

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "gene_id": pc.utf8_trim_whitespace(batch["gene_id"]),
                "pathway_id": pc.utf8_trim_whitespace(
                    pc.replace_substring(batch["pathway_id"], "path:", "")
                ),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


def read_dose_ranking(path: str) -> ray.data.Dataset:
    """S5: line-per-pathway-id file; line order = rank (kegg_reader.py:108-117).

    Ordered tiny side input (≤ a few hundred rows) → driver read, explicit
    rank column so downstream stages never depend on block order.
    """
    with open(path) as f:
        pids = [line.strip() for line in f if line.strip()]
    return ray.data.from_items(
        [{"pathway_id": p, "rank": i} for i, p in enumerate(pids)]
    )


def read_indra_statements(path: str) -> ray.data.Dataset:
    """S9: INDRA JSONL → statements with struct entities + unique-mention filter.

    Shape per indra_reader.py:42-79: first element of ``relation`` is used;
    rows where either entity surface form does not occur exactly once in the
    text are dropped (M2).
    """
    ds = ray.data.read_json(path)

    def extract(batch: pa.Table) -> pa.Table:
        rel0 = pc.list_element(batch["relation"], 0)
        e1_name = pc.struct_field(rel0, "entity_1")
        e2_name = pc.struct_field(rel0, "entity_2")
        e1_idx = pc.struct_field(rel0, "entity_1_idx")
        e2_idx = pc.struct_field(rel0, "entity_2_idx")
        rel_type = pc.struct_field(rel0, "relation_type")

        def mention_struct(names, idx):
            starts = pc.cast(pc.list_element(idx, 0), pa.int32())
            ends = pc.cast(pc.list_element(idx, 1), pa.int32())
            return pc.make_struct(
                names, starts, ends, field_names=["name", "span_start", "span_end"]
            )

        out = pa.table(
            {
                "id": batch["id"],
                "text": batch["text"],
                "entity_1": mention_struct(e1_name, e1_idx),
                "entity_2": mention_struct(e2_name, e2_idx),
                "rel_type": rel_type,
            }
        )
        # unique-mention filter (M2): count occurrences of each name in text
        texts = out["text"].to_pylist()
        n1 = [t.count(n) for t, n in zip(texts, e1_name.to_pylist())]
        n2 = [t.count(n) for t, n in zip(texts, e2_name.to_pylist())]
        mask = pa.array([a == 1 and b == 1 for a, b in zip(n1, n2)])
        return out.filter(mask)

    return ds.map_batches(extract, batch_format="pyarrow")


def read_legacy_result_file(path: str) -> ray.data.Dataset:
    """S11: parse the reference's K2 result-txt into a predictions Dataset.

    Stage-chaining compatibility reader (string_reader.py:32-61): lines after
    the ``****`` delimiter are ``num, src, pred, true`` (4 fields; the
    entity-task writer at evaluator.py:115-119 always writes the leading
    number).  ``,,`` is collapsed to ``,`` first, malformed lines skipped.
    Legacy-format files are small reports; parsed on the driver.
    """
    rows = []
    with open(path) as f:
        lines = f.readlines()
    try:
        start = next(
            i for i, line in enumerate(lines) if set(line.strip()) == {"*"}
        )
    except StopIteration:
        return ray.data.from_items([])
    for line in lines[start + 1 :]:
        if line.startswith("#"):
            break
        line = line.replace(",,", ",").strip()
        parts = [p.strip() for p in line.split(",")]
        if len(parts) == 4:
            _, src, pred, true = parts
        elif len(parts) == 3:
            src, pred, true = parts
        else:
            continue
        rows.append({"src": src, "pred": pred, "true": true})
    return ray.data.from_items(rows)


def build_pathway_gene_table(
    pathway_genes: ray.data.Dataset,
    gene_alias_map: dict[str, list[str]],
    pathway_name_map: dict[str, str],
) -> ray.data.Dataset:
    """J2: compose the pathway→genes table via two broadcast lookups + groupby.

    Mirrors kegg_reader.py:152-171: membership edges (gene_id, pathway_id)
    resolve through the gene-alias and pathway-name maps (small broadcast
    sides), then group per pathway into a sorted distinct primary-name list.
    Output schema: (pathway: string, genes: list<string>).
    """

    def to_named(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pathway": pa.array(
                    [
                        pathway_name_map[p]
                        for p in batch["pathway_id"].to_pylist()
                    ],
                    type=pa.string(),
                ),
                "gene": pa.array(
                    [
                        gene_alias_map[g][0]
                        for g in batch["gene_id"].to_pylist()
                    ],
                    type=pa.string(),
                ),
            }
        )

    def collect(group: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pathway": group.slice(0, 1)["pathway"],
                "genes": pa.array(
                    [sorted(set(group["gene"].to_pylist()))],
                    type=pa.list_(pa.string()),
                ),
            }
        )

    return (
        pathway_genes.map_batches(to_named, batch_format="pyarrow")
        .groupby("pathway")
        .map_groups(collect, batch_format="pyarrow")
    )
