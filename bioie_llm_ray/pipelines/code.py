"""KG construction and table ops over the source-code repository table.

The north rule's primary input (BASELINE.json input_hint) is a Parquet table
of source-code repositories — columns (repo, path, commit, lang, content) —
at 10^12-file scale.  This module gives that table first-class pipelines:

- ``latest_snapshot``: last-writer-wins per (repo, path) by commit_ts —
  ``argmax_dedup``, the bucketed arg-max shuffle (one vectorized pass per
  hash bucket, never one Python call per file path).
- ``import_edges``: (repo, module) import-graph edges extracted from the
  latest snapshot with a compiled line-anchored regex, exact-deduped.
  This is the code-table analogue of the reference's entity-pair extraction
  (a file "mentions" the modules it imports).
- ``vendored_files``: byte-identical content appearing in ≥2 repos, found
  by grouping on the content sha256 (the per-row invariant the north rule
  pins) — the code-corpus form of exact near-dup detection.

Each query-shaped wrapper takes the fixture parquet path and returns a
small pandas DataFrame; the DuckDB oracles re-run the same logic in SQL
over the same file (see ``__ray_entry__.oracle_sql``).

All stages stream: reads prune to the needed columns, the only wide
operations are bucketed shuffles keyed by stable hashes, and nothing
materializes the corpus driver-side.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.arrowio import from_pandas_clean
import ray

from ..functions.hashing import add_sha256_column, stable_hash_u64
from ..stages.dedup import argmax_dedup, exact_dedup
from ..stages.exchange import keyed_exchange


def _nbf(code_parquet: str, floor: int = 8) -> int:
    """Size-derived bucket count for exchanges over the code table —
    same contract as ``analytics._nb`` (floor keeps small-scale plans)."""
    import os

    from ..stages.exchange import n_buckets_for_bytes

    try:
        nbytes = os.path.getsize(code_parquet)
    except OSError:
        return floor
    return n_buckets_for_bytes(nbytes, floor=floor)

# line-anchored: the decoy "# reimport <mod>x" must not match
_IMPORT_RE = re.compile(r"^import ([A-Za-z_][A-Za-z0-9_]*)$", re.MULTILINE)


def latest_snapshot(
    ds: ray.data.Dataset, n_buckets: int = 64
) -> ray.data.Dataset:
    """One row per (repo, path): the version with the max commit_ts."""
    return argmax_dedup(
        ds, ["repo", "path"], order_col="commit_ts", n_buckets=n_buckets
    )


def import_edges(
    ds: ray.data.Dataset, n_buckets: int = 64
) -> ray.data.Dataset:
    """Distinct (repo, module) edges from the latest snapshot's imports."""
    snap = latest_snapshot(ds, n_buckets=n_buckets)

    def extract(batch: pa.Table) -> pa.Table:
        repos_out, mods_out = [], []
        for repo, content in zip(
            batch["repo"].to_pylist(), batch["content"].to_pylist()
        ):
            for m in _IMPORT_RE.finditer(content):
                repos_out.append(repo)
                mods_out.append(m.group(1))
        return pa.table(
            {
                "repo": pa.array(repos_out, type=pa.string()),
                "module": pa.array(mods_out, type=pa.string()),
            }
        )

    edges = snap.map_batches(extract, batch_format="pyarrow")
    return exact_dedup(edges, ["repo", "module"], n_buckets=n_buckets)


def vendored_files(
    ds: ray.data.Dataset, min_repos: int = 2, n_buckets: int = 64
) -> ray.data.Dataset:
    """(content_sha256, n_repos, n_copies) for content in ≥ min_repos repos.

    One keyed exchange on the sha; each bucket runs one pandas
    ``groupby(sha).agg(nunique, size)`` — per-sha work stays in C.  The
    content column is projected away before the shuffle (only the 64-char
    sha and the repo string move).
    """
    hashed = ds.map_batches(
        lambda b: add_sha256_column(b, column="content"),
        batch_format="pyarrow",
    ).select_columns(["content_sha256", "repo"])

    out_schema = pa.schema(
        [
            ("content_sha256", pa.string()),
            ("n_repos", pa.int64()),
            ("n_copies", pa.int64()),
        ]
    )

    def agg_bucket(g: pd.DataFrame) -> pa.Table:
        out = g.groupby("content_sha256", as_index=False).agg(
            n_repos=("repo", "nunique"), n_copies=("repo", "size")
        )
        out = out[out["n_repos"] >= min_repos]
        # explicit Arrow schema: buckets that filter to zero rows must not
        # emit object-dtype pandas blocks (Ray block unification warns and
        # can't size them)
        return from_pandas_clean(
            out, schema=out_schema, preserve_index=False
        )

    return keyed_exchange(
        hashed, ["content_sha256"], agg_bucket, n_buckets, batch_format="pandas"
    )


def commit_diff(
    ds: ray.data.Dataset,
    ts_a: int,
    ts_b: int,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Snapshot diff between two as-of timestamps: for every (repo, path)
    present at ``ts_b``, whether it was ``added`` (absent at ``ts_a``),
    ``modified`` (different content sha), or ``unchanged`` since ``ts_a``.

    The incremental-processing primitive for the code table: rerun
    extraction only over added+modified files instead of the 10^12-file
    corpus.  ONE exchange keyed on (repo, path) — both as-of versions of
    a path land in the same bucket, where a single vectorized pandas pass
    (sort by ts, groupby last) resolves them; content is projected to its
    sha before the shuffle, so only (repo, path, ts, sha64) bytes move.

    Deletions need tombstone rows the (append-only) table doesn't carry —
    a path present at ``ts_a`` is still present at ``ts_b`` by
    construction, so ``deleted`` cannot occur and is not emitted.
    """
    hashed = (
        ds.map_batches(
            lambda b: add_sha256_column(b, column="content"),
            batch_format="pyarrow",
        )
        .select_columns(["repo", "path", "commit_ts", "content_sha256"])
        .filter(expr=f"commit_ts <= {ts_b}")
    )

    out_schema = pa.schema(
        [("repo", pa.string()), ("path", pa.string()), ("status", pa.string())]
    )

    def diff_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("commit_ts", kind="mergesort")
        b_sha = g.groupby(["repo", "path"], as_index=False)[
            "content_sha256"
        ].last()
        a = g[g["commit_ts"] <= ts_a]
        a_sha = a.groupby(["repo", "path"], as_index=False)[
            "content_sha256"
        ].last()
        m = b_sha.merge(
            a_sha, on=["repo", "path"], how="left", suffixes=("_b", "_a")
        )
        status = np.where(
            m["content_sha256_a"].isna(),
            "added",
            np.where(
                m["content_sha256_a"] == m["content_sha256_b"],
                "unchanged",
                "modified",
            ),
        )
        out = m[["repo", "path"]].assign(status=status)
        return from_pandas_clean(
            out, schema=out_schema, preserve_index=False
        )

    return keyed_exchange(
        hashed, ["repo", "path"], diff_bucket, n_buckets, batch_format="pandas"
    )


_CURRENT_TS = (1 << 63) - 1  # open-ended valid_to sentinel (int64 max)


def file_history(
    ds: ray.data.Dataset, n_buckets: int = 64
) -> ray.data.Dataset:
    """SCD-type-2 validity intervals per (repo, path): each version gets
    ``[valid_from, valid_to)`` from consecutive commit timestamps; the
    current version's ``valid_to`` is the int64-max sentinel and
    ``is_current`` is true.

    The dimension-history primitive for the code table (point-in-time
    reads become a BETWEEN filter instead of an as-of argmax per query).
    ONE exchange keyed on (repo, path); every version of a path lands
    in the same bucket, where a single vectorized pandas pass (sort +
    ``groupby.shift(-1)``) computes the lead timestamp — never one Python
    call per path."""

    out_schema = pa.schema(
        [
            ("repo", pa.string()),
            ("path", pa.string()),
            ("commit", pa.string()),
            ("valid_from", pa.int64()),
            ("valid_to", pa.int64()),
            ("is_current", pa.bool_()),
        ]
    )

    def intervals(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["repo", "path", "commit_ts"], kind="mergesort")
        # cast to nullable Int64 BEFORE the shift: shifting an int64 column
        # emits float64 (NaN tails), which silently rounds timestamps above
        # 2^53; the nullable dtype shifts without leaving integer space
        nxt = (
            g["commit_ts"].astype("Int64").groupby(
                [g["repo"], g["path"]]
            ).shift(-1)
        )
        out = pd.DataFrame(
            {
                "repo": g["repo"],
                "path": g["path"],
                "commit": g["commit"],
                "valid_from": g["commit_ts"].astype("int64"),
                "valid_to": nxt.fillna(_CURRENT_TS).astype("int64"),
                "is_current": nxt.isna(),
            }
        )
        return from_pandas_clean(
            out, schema=out_schema, preserve_index=False
        )

    return keyed_exchange(
        ds.select_columns(["repo", "path", "commit", "commit_ts"]),
        ["repo", "path"],
        intervals,
        n_buckets,
        batch_format="pandas",
    )


_TRIPLE_COLS = ["src_sha", "subj", "pred", "obj"]


def incremental_code_triples(
    ds: ray.data.Dataset,
    vocab: list[str],
    ts_b: int,
    prev_predup: ray.data.Dataset | None = None,
    relation: str = "co_imported_with",
    n_buckets: int = 64,
):
    """Incremental KG refresh over the code table: only content NOT covered
    by the previous run passes through the extraction actors.

    ``prev_predup`` is the per-file triple table (src_sha, subj, pred, obj)
    returned by the previous invocation (within-batch-deduped only — the
    per-file provenance the increment needs; the canonical global dedup is
    recomputed each refresh).  The refresh is three distributed steps, all
    keyed on the content sha:

    1. semi-join ``prev_predup`` against the as-of-``ts_b`` snapshot's sha
       set — an unchanged file's triples are reused verbatim, a modified
       or vanished version's stale triples drop;
    2. anti-join the snapshot against ``prev_predup``'s sha set — only
       added/modified content reaches ``TripleExtractor``;
    3. union + salted canonical dedup.

    Exactness invariant (tested): the canonical output equals a full
    rebuild at ``ts_b``, because per-file triples are a pure function of
    the content sha.  Both membership tests are ``shuffle_semi_join``s —
    at 10^12 files neither sha set ever materializes on the driver.

    Returns ``(predup_now, canonical)``; feed ``predup_now`` to the next
    refresh.
    """
    from ..stages.dedup import batch_local_dedup, salted_dedup
    from ..stages.join import shuffle_semi_join
    from .kg import extract_triples

    snap = latest_snapshot(
        ds.filter(expr=f"commit_ts <= {ts_b}"), n_buckets=n_buckets
    )
    snap_h = snap.map_batches(
        lambda b: add_sha256_column(b, column="content"),
        batch_format="pyarrow",
    )

    triple_schema = {c: pa.string() for c in _TRIPLE_COLS}
    if prev_predup is None:
        kept = None
        changed = snap_h
    else:
        cur_shas = snap_h.map_batches(
            lambda b: b.select(["content_sha256"]).rename_columns(
                ["src_sha"]
            ),
            batch_format="pyarrow",
        )
        kept = shuffle_semi_join(
            prev_predup,
            cur_shas,
            keys="src_sha",
            n_buckets=n_buckets,
            left_schema=triple_schema,
        ).map_batches(
            lambda b: b.select(_TRIPLE_COLS), batch_format="pyarrow"
        )
        covered = prev_predup.map_batches(
            lambda b: b.select(["src_sha"]).rename_columns(
                ["content_sha256"]
            ),
            batch_format="pyarrow",
        )
        # schema from the INPUT (parquet metadata — free), not from snap_h
        # (whose .schema() would partially execute the argmax pipeline)
        in_schema = ds.schema()
        snap_schema = dict(zip(in_schema.names, in_schema.types))
        snap_schema["content_sha256"] = pa.string()
        changed = shuffle_semi_join(
            snap_h,
            covered,
            keys="content_sha256",
            anti=True,
            n_buckets=n_buckets,
            left_schema=snap_schema,
        )

    fresh = extract_triples(
        changed, vocab, relation=relation, dedup=False
    )
    fresh = batch_local_dedup(fresh, _TRIPLE_COLS).map_batches(
        lambda b: b.select(_TRIPLE_COLS), batch_format="pyarrow"
    )
    predup_now = fresh if kept is None else kept.union(fresh)
    canonical = salted_dedup(
        predup_now,
        ["subj", "pred", "obj"],
        salt_col="src_sha",
        n_buckets=n_buckets,
    )
    return predup_now, canonical


# --------------------------------------------------------------------------
# Query-shaped wrappers over the deterministic fixture parquet.


# RE2 on both sides: pyarrow.compute regex kernels and DuckDB's regexp_*
# are both RE2, so the scan and its SQL oracle share exact semantics
_SECRET_PAT = r"sk_live_[0-9a-f]+"
_EMAIL_PAT = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"


def secret_scan(ds: ray.data.Dataset, n_buckets: int = 64) -> ray.data.Dataset:
    """Secret / PII scan + redaction over the latest snapshot.

    Per latest-version file: counts of embedded API tokens and contact
    emails, plus the sha256 of the redacted content (secrets →
    ``[REDACTED]``, emails → ``[EMAIL]``, applied in that order).  The scan
    is fully vectorized — ``pc.count_substring_regex`` /
    ``pc.replace_substring_regex`` Arrow kernels over the content column;
    the only Python-per-row work is the output sha256, which is inherent
    (same as ``doc_fingerprint``).  Rotated keys vanish: a secret present
    only in a superseded version never reaches the scan, because
    ``latest_snapshot`` runs first and drops stale versions before any
    content is inspected.
    """
    import hashlib

    import pyarrow.compute as pc

    snap = latest_snapshot(ds, n_buckets=n_buckets)

    def scan(batch: pa.Table) -> pa.Table:
        c = batch["content"]
        n_sec = pc.count_substring_regex(c, _SECRET_PAT)
        n_em = pc.count_substring_regex(c, _EMAIL_PAT)
        red = pc.replace_substring_regex(c, _SECRET_PAT, "[REDACTED]")
        red = pc.replace_substring_regex(red, _EMAIL_PAT, "[EMAIL]")
        shas = [
            hashlib.sha256(s.encode("utf-8")).hexdigest()
            for s in red.to_pylist()
        ]
        return pa.table(
            {
                "repo": batch["repo"],
                "path": batch["path"],
                "n_secrets": pc.cast(n_sec, pa.int64()),
                "n_emails": pc.cast(n_em, pa.int64()),
                "redacted_sha": pa.array(shas, type=pa.string()),
            }
        )

    return snap.map_batches(scan, batch_format="pyarrow")


def secret_scan_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    out = secret_scan(ds).to_pandas()
    return out.sort_values(["repo", "path"]).reset_index(drop=True)


def latest_snapshot_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit", "commit_ts", "lang"]
    )
    out = latest_snapshot(ds).to_pandas()
    return out.sort_values(["repo", "path"]).reset_index(drop=True)[
        ["repo", "path", "commit", "commit_ts", "lang"]
    ]


def import_edges_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    out = import_edges(ds).to_pandas()
    return out.sort_values(["repo", "module"]).reset_index(drop=True)


def vendored_files_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(code_parquet, columns=["repo", "content"])
    out = vendored_files(ds).to_pandas()
    return out.sort_values("content_sha256").reset_index(drop=True)


# mid-range as-of cut for the fixture (bases span [1.6e9, 1.6e9 + 1e7],
# versions 500k apart): populates all three diff classes
DIFF_TS_A = 1_605_000_000


def commit_diff_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    out = commit_diff(ds, ts_a=DIFF_TS_A, ts_b=2_000_000_000).to_pandas()
    return out.sort_values(["repo", "path"]).reset_index(drop=True)


def file_history_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit", "commit_ts"]
    )
    out = file_history(ds, n_buckets=_nbf(code_parquet, 8)).to_pandas()
    return out.sort_values(["repo", "path", "valid_from"]).reset_index(
        drop=True
    )


def incremental_triples_query(code_parquet: str) -> pd.DataFrame:
    """Two-refresh incremental KG over the code table: full build as of
    ``DIFF_TS_A``, then an incremental refresh to the present — only
    added/modified content re-extracts, the canonical result provably
    equals a full rebuild (oracle: serial import-line walk)."""
    vocab = [f"module_{i}" for i in range(24)]
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    predup_a, _ = incremental_code_triples(
        ds, vocab, ts_b=DIFF_TS_A, n_buckets=_nbf(code_parquet, 8)
    )
    # consumed by BOTH membership joins of the refresh — pay execution once
    predup_a = predup_a.materialize()
    _, canonical = incremental_code_triples(
        ds, vocab, ts_b=2_000_000_000, prev_predup=predup_a, n_buckets=_nbf(code_parquet, 8)
    )
    out = (
        canonical.select_columns(["subj", "pred", "obj"])
        .to_pandas()
        .drop_duplicates()
    )
    return out.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)


def code_triples_query(docs_parquet: str, vocab: list[str]) -> pd.DataFrame:
    """Flagship KG extraction over the input_hint docs table → distinct
    (subj, pred, obj).  Oracle: the fixture's serially-derived gold triples
    (``fixtures.make_docs_table`` keeps them alongside the content)."""
    from ..sources.readers import read_docs
    from .kg import dedup_buckets, extract_triples

    docs = read_docs(docs_parquet)
    triples = extract_triples(
        docs, vocab=vocab, dedup=True, n_buckets=dedup_buckets(docs_parquet)
    )
    out = (
        triples.select_columns(["subj", "pred", "obj"])
        .to_pandas()
        .drop_duplicates()
    )
    return out.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)


# Winnowing clone detection (Schleimer/Wilkerson/Aiken, SIGMOD'03): any
# shared token run of length >= CLONE_K + CLONE_W - 1 is guaranteed to share
# at least one selected fingerprint.
CLONE_K = 5   # tokens per k-gram
CLONE_W = 4   # winnowing window over consecutive k-gram hashes
CLONE_MAX_DF = 16  # purge fingerprints present in more files (hub control)
_ID_SEP = "\x1f"


def _winnow(tokens: list, k: int = CLONE_K, w: int = CLONE_W) -> np.ndarray:
    """Distinct winnowed fingerprints of one token sequence (int64).

    Vectorized: hash every k-gram once, slide a width-``w`` window with
    ``sliding_window_view`` and keep the RIGHTMOST minimum of each window
    (the deterministic tie rule) — the standard guarantee plus a stable
    selection the serial oracle reproduces with plain loops."""
    if len(tokens) < k:
        return np.empty(0, dtype=np.int64)
    grams = [" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]
    h = stable_hash_u64(grams).astype(np.int64)  # C-cast wrap, deterministic
    if len(h) <= w:
        flip = h[::-1]
        return np.array(
            [h[len(h) - 1 - int(flip.argmin())]], dtype=np.int64
        )
    from numpy.lib.stride_tricks import sliding_window_view

    win = sliding_window_view(h, w)
    rev = win[:, ::-1]
    idx = (w - 1) - rev.argmin(axis=1)  # rightmost min per window
    pos = np.arange(len(win)) + idx
    return np.unique(h[np.unique(pos)])


def clone_pairs(
    ds: ray.data.Dataset,
    min_shared: int = 2,
    max_df: int = CLONE_MAX_DF,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """Cross-repo clone-pair candidates by winnowing fingerprints.

    MOSS-style content similarity, the code-corpus complement of
    byte-identical ``vendored_files``: latest snapshot → per-file winnowed
    fingerprints (``_winnow``) → ONE exchange keyed by fingerprint, where
    each bucket holds its fingerprints' complete file lists — oversized
    lists (> ``max_df`` files) are PURGED before pair generation, the same
    hub control as ER block purging, so no reducer enumerates a stop-gram's
    O(m²) pairs — → per-fingerprint file pairs → a second exchange counts
    shared fingerprints per (file_a, file_b) and keeps cross-repo pairs
    with ≥ ``min_shared``.  Content never enters either exchange (only
    (fingerprint, file-id) rows move)."""
    from ..stages.rollup import grouped_agg

    snap = latest_snapshot(ds, n_buckets=n_buckets)

    def fingerprints(batch: pa.Table) -> pa.Table:
        fids, fps = [], []
        for repo, path, content in zip(
            batch["repo"].to_pylist(),
            batch["path"].to_pylist(),
            batch["content"].to_pylist(),
        ):
            sel = _winnow(content.split())
            fids.extend([f"{repo}{_ID_SEP}{path}"] * len(sel))
            fps.extend(sel.tolist())
        return pa.table(
            {
                "fid": pa.array(fids, type=pa.string()),
                "fp": pa.array(fps, type=pa.int64()),
            }
        )

    pair_schema = pa.schema(
        [("id_a", pa.string()), ("id_b", pa.string()), ("n", pa.int64())]
    )

    def pairs_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(["fp", "fid"])
        sizes = g.groupby("fp")["fid"].transform("size")
        g = g[sizes <= max_df]  # purge hub fingerprints
        g = g.sort_values(["fp", "fid"], kind="mergesort")
        m = g.merge(g, on="fp", suffixes=("_a", "_b"))
        m = m[m["fid_a"] < m["fid_b"]]
        out = pd.DataFrame(
            {
                "id_a": m["fid_a"],
                "id_b": m["fid_b"],
                "n": np.ones(len(m), dtype="int64"),
            }
        )
        return from_pandas_clean(out, schema=pair_schema, preserve_index=False)

    fps = snap.select_columns(["repo", "path", "content"]).map_batches(
        fingerprints, batch_format="pyarrow"
    )
    pairs = keyed_exchange(
        fps, ["fp"], pairs_bucket, n_buckets, batch_format="pandas"
    )
    counts = grouped_agg(
        pairs,
        keys=["id_a", "id_b"],
        aggs={"n_shared": ("n", "sum")},
        n_buckets=n_buckets,
        partial=True,
    )

    out_schema = pa.schema(
        [
            ("repo_a", pa.string()),
            ("path_a", pa.string()),
            ("repo_b", pa.string()),
            ("path_b", pa.string()),
            ("n_shared", pa.int64()),
        ]
    )

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["n_shared"] >= min_shared]
        a = df["id_a"].str.split(_ID_SEP, expand=True)
        b = df["id_b"].str.split(_ID_SEP, expand=True)
        if len(df) == 0:
            return out_schema.empty_table()
        out = pd.DataFrame(
            {
                "repo_a": a[0],
                "path_a": a[1],
                "repo_b": b[0],
                "path_b": b[1],
                "n_shared": df["n_shared"].astype("int64"),
            }
        )
        out = out[out["repo_a"] != out["repo_b"]]  # cross-repo only
        return from_pandas_clean(out, schema=out_schema, preserve_index=False)

    return counts.map_batches(finish, batch_format="pyarrow")


def clone_pairs_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    out = clone_pairs(ds, n_buckets=_nbf(code_parquet, 8)).to_pandas()
    return out.sort_values(
        ["repo_a", "path_a", "repo_b", "path_b"]
    ).reset_index(drop=True)


def repo_stats(ds: ray.data.Dataset, n_buckets: int = 32) -> pd.DataFrame:
    """Per-repo catalog row: latest-snapshot file count, total version
    count, distinct language count, newest commit timestamp.

    Three combiner aggregates (``grouped_agg``) — over the snapshot, the
    raw version stream, and the exact-deduped (repo, lang) pairs — each
    one bucketed exchange over repo-cardinality data; merged on the
    driver where a row per repo is the whole result."""
    from ..stages.dedup import exact_dedup as _exact_dedup
    from ..stages.rollup import grouped_agg

    snap = latest_snapshot(
        ds.select_columns(["repo", "path", "commit_ts"]), n_buckets=n_buckets
    )
    files = grouped_agg(
        snap,
        keys=["repo"],
        aggs={"n_files": ("path", "count")},
        n_buckets=n_buckets,
        partial=True,
    ).to_pandas()
    versions = grouped_agg(
        ds.select_columns(["repo", "commit_ts"]),
        keys=["repo"],
        aggs={
            "n_versions": ("commit_ts", "count"),
            "last_commit_ts": ("commit_ts", "max"),
        },
        n_buckets=n_buckets,
        partial=True,
    ).to_pandas()
    langs = grouped_agg(
        _exact_dedup(
            ds.select_columns(["repo", "lang"]), ["repo", "lang"],
            n_buckets=n_buckets,
        ),
        keys=["repo"],
        aggs={"n_langs": ("lang", "count")},
        n_buckets=n_buckets,
        partial=True,
    ).to_pandas()
    out = files.merge(versions, on="repo").merge(langs, on="repo")
    for c in ("n_files", "n_versions", "n_langs", "last_commit_ts"):
        out[c] = out[c].astype("int64")
    return out.sort_values("repo").reset_index(drop=True)[
        ["repo", "n_files", "n_versions", "n_langs", "last_commit_ts"]
    ]


def import_history(
    ds: ray.data.Dataset, n_buckets: int = 64
) -> ray.data.Dataset:
    """Temporal KG construction from the versioned code table: each
    (repo, path, module) import edge gets its VALIDITY INTERVALS
    ``[valid_from, valid_to)`` — the commit ranges during which the
    import existed, with adjacent ranges merged (an edge carried across
    consecutive versions is one interval, not n) and the int64-max open
    end + ``is_current`` for edges alive at head.

    This is what makes a KG over versioned sources time-travelable: "what
    did the dependency graph look like at ts?" becomes a BETWEEN filter,
    and an edge removed then re-added shows two intervals.

    ONE exchange keyed on (repo, path) — every version of a file lands in
    one bucket; the per-bucket pass is vectorized except the per-version
    compiled-regex import scan (inherent, same as `import_edges`):
    version lead-timestamps via the nullable-Int64 ``groupby.shift(-1)``
    (the float64 shift corrupts timestamps above 2^53 — see
    `file_history`), then island-merge per edge via the classic
    ``start != lag(end)`` group-id cumsum."""

    out_schema = pa.schema(
        [
            ("repo", pa.string()),
            ("path", pa.string()),
            ("module", pa.string()),
            ("valid_from", pa.int64()),
            ("valid_to", pa.int64()),
            ("is_current", pa.bool_()),
        ]
    )

    def intervals(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["repo", "path", "commit_ts"], kind="mergesort")
        nxt = (
            g["commit_ts"]
            .astype("Int64")
            .groupby([g["repo"], g["path"]])
            .shift(-1)
            .fillna(_CURRENT_TS)
            .astype("int64")
        )
        rows = {
            "repo": [], "path": [], "module": [], "s": [], "e": []
        }
        for repo, path, content, s, e in zip(
            g["repo"], g["path"], g["content"], g["commit_ts"], nxt
        ):
            for m in set(_IMPORT_RE.findall(content)):
                rows["repo"].append(repo)
                rows["path"].append(path)
                rows["module"].append(m)
                rows["s"].append(int(s))
                rows["e"].append(int(e))
        df = pd.DataFrame(rows)
        if not len(df):
            return out_schema.empty_table()
        df = df.sort_values(["repo", "path", "module", "s"])
        grp = df.groupby(["repo", "path", "module"], sort=False)
        new_island = df["s"].ne(grp["e"].shift())
        df["__island"] = new_island.cumsum()
        agg = (
            df.groupby(["repo", "path", "module", "__island"], sort=False)
            .agg(valid_from=("s", "min"), valid_to=("e", "max"))
            .reset_index()
            .drop(columns="__island")
        )
        return pa.table(
            {
                "repo": pa.array(agg["repo"], type=pa.string()),
                "path": pa.array(agg["path"], type=pa.string()),
                "module": pa.array(agg["module"], type=pa.string()),
                "valid_from": pa.array(agg["valid_from"], type=pa.int64()),
                "valid_to": pa.array(agg["valid_to"], type=pa.int64()),
                "is_current": pa.array(
                    agg["valid_to"] == _CURRENT_TS, type=pa.bool_()
                ),
            }
        )

    return keyed_exchange(
        ds.select_columns(["repo", "path", "commit_ts", "content"]),
        ["repo", "path"],
        intervals,
        n_buckets,
        batch_format="pandas",
    )


def deps_asof(
    ds: ray.data.Dataset, ts: int, n_buckets: int = 64
) -> pd.DataFrame:
    """Point-in-time dependency graph: the distinct (repo, module) import
    edges alive at ``ts`` — a BETWEEN filter over `import_history`'s
    validity intervals (the payoff of materializing the temporal table:
    no per-query as-of arg-max pass over content).

    The oracle derives the same answer the OTHER way — arg-max snapshot
    at ``ts`` + fresh import extraction — so the gate cross-validates the
    interval construction against a direct as-of read."""
    hist = import_history(ds, n_buckets=n_buckets)

    def alive(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.less_equal(batch["valid_from"], ts),
            pc.greater(batch["valid_to"], ts),
        )
        return batch.filter(keep).select(["repo", "module"])

    out = exact_dedup(
        hist.map_batches(alive, batch_format="pyarrow"),
        ["repo", "module"],
        n_buckets=n_buckets,
    ).to_pandas()
    return out.sort_values(["repo", "module"]).reset_index(drop=True)


def deps_asof_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    return deps_asof(ds, ts=DIFF_TS_A, n_buckets=_nbf(code_parquet, 8))


def import_history_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    out = import_history(ds, n_buckets=_nbf(code_parquet, 8)).to_pandas()
    return out.sort_values(
        ["repo", "path", "module", "valid_from"]
    ).reset_index(drop=True)


def lang_loc(ds: ray.data.Dataset, n_buckets: int = 32) -> pd.DataFrame:
    """Lines-of-code metrics per (repo, lang) over the LATEST snapshot:
    file count, total lines, total bytes.

    Line counting is the vectorized newline count (+1 for a missing final
    terminator, 0 for empty content) — one Arrow kernel pass; the rollup
    rides the combiner aggregate keyed by the (repo, lang) pair.  Content
    is projected to (lines, bytes) BEFORE the exchange — only three int64s
    per file move."""
    import pyarrow.compute as pc

    from ..stages.rollup import grouped_agg

    snap = latest_snapshot(
        ds.select_columns(["repo", "path", "commit_ts", "lang", "content"]),
        n_buckets=n_buckets,
    )

    def measure(batch: pa.Table) -> pa.Table:
        c = batch["content"]
        nl = pc.cast(pc.count_substring(c, "\n"), pa.int64())
        nbytes = pc.cast(pc.binary_length(c), pa.int64())
        # files not ending in '\n' have one unterminated final line
        ends_nl = pc.ends_with(c, pattern="\n")
        empty = pc.equal(nbytes, 0)
        extra = pc.cast(
            pc.and_(pc.invert(ends_nl), pc.invert(empty)), pa.int64()
        )
        return pa.table(
            {
                "repo": batch["repo"],
                "lang": batch["lang"],
                "n_lines": pc.add(nl, extra),
                "n_bytes": nbytes,
            }
        )

    out = grouped_agg(
        snap.map_batches(measure, batch_format="pyarrow"),
        keys=["repo", "lang"],
        aggs={
            "n_files": ("lang", "count"),
            "n_lines": ("n_lines", "sum"),
            "n_bytes": ("n_bytes", "sum"),
        },
        n_buckets=n_buckets,
        partial=True,
    ).to_pandas()
    for c in ("n_files", "n_lines", "n_bytes"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["repo", "lang"]).reset_index(drop=True)


def lang_loc_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "lang", "content"]
    )
    return lang_loc(ds, n_buckets=_nbf(code_parquet, 8))


def repo_stats_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "lang"]
    )
    return repo_stats(ds, n_buckets=_nbf(code_parquet, 8))


def quality_metrics(ds: ray.data.Dataset, n_buckets: int = 32) -> pd.DataFrame:
    """Per-file code-quality signals over the LATEST snapshot — the
    filters a code-LLM curation pipeline gates on (StarCoder-style):
    line count, comment-line count and ratio, longest line, and mean
    line length.  Lines are ``split('\\n')`` with the trailing empty
    terminator dropped — the same convention on both engines.

    Content is reduced to five int64s per file inside the snapshot pass;
    nothing content-sized moves after the argmax dedup."""

    snap = latest_snapshot(
        ds.select_columns(["repo", "path", "commit_ts", "content"]),
        n_buckets=n_buckets,
    )

    def measure(batch: pa.Table) -> pa.Table:
        repos, paths = batch["repo"].to_pylist(), batch["path"].to_pylist()
        out = {
            "repo": [], "path": [], "n_lines": [], "n_comments": [],
            "max_line_len": [], "total_len": [],
        }
        for r, p, c in zip(repos, paths, batch["content"].to_pylist()):
            lines = c.split("\n")
            if lines and lines[-1] == "":
                lines = lines[:-1]
            if not lines:
                continue
            out["repo"].append(r)
            out["path"].append(p)
            out["n_lines"].append(len(lines))
            out["n_comments"].append(
                sum(1 for ln in lines if ln.lstrip().startswith("#"))
            )
            out["max_line_len"].append(
                max((len(ln) for ln in lines), default=0)
            )
            out["total_len"].append(sum(len(ln) for ln in lines))
        return pa.table(
            {
                "repo": pa.array(out["repo"], type=pa.string()),
                "path": pa.array(out["path"], type=pa.string()),
                "n_lines": pa.array(out["n_lines"], type=pa.int64()),
                "n_comments": pa.array(out["n_comments"], type=pa.int64()),
                "max_line_len": pa.array(
                    out["max_line_len"], type=pa.int64()
                ),
                "total_len": pa.array(out["total_len"], type=pa.int64()),
            }
        )

    out = snap.map_batches(measure, batch_format="pyarrow").to_pandas()
    out["comment_ratio"] = (out["n_comments"] / out["n_lines"]).round(6)
    out["avg_line_len"] = (out["total_len"] / out["n_lines"]).round(6)
    out = out.drop(columns=["total_len"])
    return out.sort_values(["repo", "path"]).reset_index(drop=True)


def quality_metrics_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    return quality_metrics(ds, n_buckets=_nbf(code_parquet, 8))


# ---------------------------------------------------------------------------
# License census + call-graph KG construction
# ---------------------------------------------------------------------------

# SPDX header scan — RE2-safe on both engines (pyarrow.compute / DuckDB)
_SPDX_PATTERN = r"SPDX-License-Identifier: (?P<lic>[A-Za-z0-9.\-]+)"
_DEF_RE = re.compile(r"def (fn_\d+)\(")
_CALL_RE = re.compile(r"= (fn_\d+)\(\)")


def license_scan(
    ds: ray.data.Dataset, n_buckets: int = 32
) -> pd.DataFrame:
    """Per-repo license census over the LATEST snapshot — the license
    gate of a code-LLM curation pipeline (filter non-permissive files
    before training, à la The Stack's license filtering).  Detection is
    the first SPDX header match per file (``pyarrow.compute``
    ``extract_regex`` — fully vectorized, no Python loop over files);
    headerless files report ``'none'``.  Because vendored copies keep
    the source repo's header verbatim, the census also surfaces license
    contamination (GPL rows inside otherwise-permissive repos).

    Wide ops: the snapshot argmax exchange, then one (repo, license)
    count groupby whose keyspace is |repos| × |license ids| — tiny.
    """
    import pyarrow.compute as pc

    snap = latest_snapshot(
        ds.select_columns(["repo", "path", "commit_ts", "content"]),
        n_buckets=n_buckets,
    )

    def detect(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["content"], pattern=_SPDX_PATTERN)
        lic = pc.fill_null(pc.struct_field(m, "lic"), "none")
        return pa.table({"repo": batch["repo"], "license": lic})

    from ..stages.rollup import grouped_agg

    out = grouped_agg(
        snap.map_batches(detect, batch_format="pyarrow"),
        keys=["repo", "license"],
        aggs={"n_files": ("repo", "count")},
        n_buckets=n_buckets,
        partial=True,
    ).to_pandas()
    return out.sort_values(["repo", "license"]).reset_index(drop=True)


def license_scan_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    return license_scan(ds, n_buckets=_nbf(code_parquet, 8))


def call_triples(
    ds: ray.data.Dataset, n_buckets: int = 32
) -> pd.DataFrame:
    """Cross-repo call-graph KG construction over the latest snapshot —
    the north rule's triple extraction applied to code: resolve every
    call site ``= fn_<i>()`` to the repo(s) whose latest snapshot DEFINES
    ``fn_<i>``, and emit (caller_repo)-[calls]->(def_repo) triples with
    call-site and distinct-function counts.

    Def/use linking is a bucketed ``shuffle_join`` keyed by the function
    name (the entity): content never moves — both sides are projected to
    (fn, repo) rows inside the extraction task.  Because every
    occurrence of one ``fn`` lands in exactly one join bucket, the
    per-bucket rollup's distinct-fn partials are disjoint across buckets
    and the final (subj, obj) combine is a pure sum — keyspace
    |repos|², tiny.
    """
    from ..stages.join import shuffle_join

    snap = latest_snapshot(
        ds.select_columns(["repo", "path", "commit_ts", "content"]),
        n_buckets=n_buckets,
    )

    def extract_defs(batch: pa.Table) -> pa.Table:
        fns, repos = [], []
        for repo, content in zip(
            batch["repo"].to_pylist(), batch["content"].to_pylist()
        ):
            for m in _DEF_RE.finditer(content):
                fns.append(m.group(1))
                repos.append(repo)
        return pa.table(
            {
                "fn": pa.array(fns, type=pa.string()),
                "def_repo": pa.array(repos, type=pa.string()),
            }
        )

    def extract_calls(batch: pa.Table) -> pa.Table:
        fns, repos = [], []
        for repo, content in zip(
            batch["repo"].to_pylist(), batch["content"].to_pylist()
        ):
            for m in _CALL_RE.finditer(content):
                fns.append(m.group(1))
                repos.append(repo)
        return pa.table(
            {
                "fn": pa.array(fns, type=pa.string()),
                "caller_repo": pa.array(repos, type=pa.string()),
            }
        )

    defs = exact_dedup(
        snap.map_batches(extract_defs, batch_format="pyarrow"),
        ["fn", "def_repo"],
        n_buckets=n_buckets,
    )
    calls = snap.map_batches(extract_calls, batch_format="pyarrow")

    def rollup(joined: pa.Table) -> pa.Table:
        df = joined.to_pandas()
        g = (
            df.groupby(["caller_repo", "def_repo"], sort=False)
            .agg(n_calls=("fn", "size"), n_fns=("fn", "nunique"))
            .reset_index()
        )
        return from_pandas_clean(g, preserve_index=False)

    joined = shuffle_join(
        calls,
        defs,
        keys="fn",
        n_buckets=n_buckets,
        left_schema={"fn": pa.string(), "caller_repo": pa.string()},
        right_schema={"fn": pa.string(), "def_repo": pa.string()},
        bucket_post=rollup,
    )
    from ..stages.rollup import grouped_agg

    out = grouped_agg(
        joined,
        keys=["caller_repo", "def_repo"],
        aggs={"n_calls": ("n_calls", "sum"), "n_fns": ("n_fns", "sum")},
        n_buckets=n_buckets,
        partial=True,
    ).to_pandas()
    out = out.rename(columns={"caller_repo": "subj", "def_repo": "obj"})
    out.insert(1, "pred", "calls")
    out["n_calls"] = out["n_calls"].astype(np.int64)
    out["n_fns"] = out["n_fns"].astype(np.int64)
    return (
        out[["subj", "pred", "obj", "n_calls", "n_fns"]]
        .sort_values(["subj", "obj"])
        .reset_index(drop=True)
    )


def call_triples_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    return call_triples(ds, n_buckets=_nbf(code_parquet, 8))


def fork_pairs(
    ds: ray.data.Dataset, n_buckets: int = 32
) -> pd.DataFrame:
    """Fork / vendored-overlap detection between repos — container-level
    near-dup analysis for code-corpus curation (training on both a repo
    and its fork double-counts the content): Jaccard similarity of the
    LATEST-snapshot content-sha sets for every repo pair sharing at
    least one file.

    Content never moves: files are projected to (repo, sha) inside the
    snapshot pass; the pair explosion happens per sha-bucket (each sha's
    repo list is copy-count sized, never corpus sized); set sizes are a
    |repos|-row broadcast.  Output (repo_a, repo_b, n_shared, jaccard).
    """
    snap = latest_snapshot(
        ds.select_columns(["repo", "path", "commit_ts", "content"]),
        n_buckets=n_buckets,
    )
    rs = exact_dedup(
        snap.map_batches(
            lambda b: add_sha256_column(b, column="content"),
            batch_format="pyarrow",
        ).select_columns(["repo", "content_sha256"]),
        ["repo", "content_sha256"],
        n_buckets=n_buckets,
    ).materialize()
    from ..stages.rollup import grouped_agg

    sizes = {
        r["repo"]: int(r["n"])
        for r in grouped_agg(
            rs,
            keys=["repo"],
            aggs={"n": ("repo", "count")},
            n_buckets=n_buckets,
            partial=True,
        ).take_all()
    }

    def pairs_bucket(g: pd.DataFrame) -> pa.Table:
        out_a, out_b, out_n = [], [], []
        for _, grp in g.groupby("content_sha256", sort=False):
            repos = sorted(set(grp["repo"]))
            for x in range(len(repos)):
                for y in range(x + 1, len(repos)):
                    out_a.append(repos[x])
                    out_b.append(repos[y])
                    out_n.append(1)
        return pa.table(
            {
                "repo_a": pa.array(out_a, type=pa.string()),
                "repo_b": pa.array(out_b, type=pa.string()),
                "n": pa.array(out_n, type=pa.int64()),
            }
        )

    shared = grouped_agg(
        keyed_exchange(
            rs, ["content_sha256"], pairs_bucket, n_buckets, batch_format="pandas"
        ),
        keys=["repo_a", "repo_b"],
        aggs={"n_shared": ("n", "sum")},
        n_buckets=n_buckets,
        partial=True,
    ).to_pandas()
    if len(shared) == 0:
        return pd.DataFrame(
            {
                "repo_a": pd.Series([], dtype=str),
                "repo_b": pd.Series([], dtype=str),
                "n_shared": pd.Series([], dtype=np.int64),
                "jaccard": pd.Series([], dtype=np.float64),
            }
        )
    na = shared["repo_a"].map(sizes).to_numpy(np.int64)
    nb = shared["repo_b"].map(sizes).to_numpy(np.int64)
    ns = shared["n_shared"].to_numpy(np.int64)
    shared["n_shared"] = ns
    shared["jaccard"] = np.round(ns / (na + nb - ns).astype(np.float64), 6)
    return shared.sort_values(["repo_a", "repo_b"]).reset_index(drop=True)


def fork_pairs_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    return fork_pairs(ds, n_buckets=_nbf(code_parquet, 8))


def fn_reachability(
    ds: ray.data.Dataset, n_buckets: int = 16
) -> pd.DataFrame:
    """Transitive call-graph closure over the latest snapshot: every
    (caller_fn, reachable_fn) pair such that a chain of resolved call
    sites leads from the definition of ``caller_fn`` to ``reachable_fn``
    — the KG-construction step that turns direct ``calls`` triples into
    a reachability relation (dependency impact analysis: "what does this
    function transitively pull in?").

    Direct edges are (defined fn → called fn) pairs extracted inside the
    read task from each latest-snapshot file (one def per file in this
    corpus; vendored copies collapse in the pair dedup); the closure is
    ``stages/graph.transitive_closure`` — path doubling, O(log diameter)
    bucketed exchanges.  The SQL oracle walks the same edge set with a
    recursive CTE."""
    from ..stages.graph import transitive_closure

    snap = latest_snapshot(
        ds.select_columns(["repo", "path", "commit_ts", "content"]),
        n_buckets=n_buckets,
    )

    def extract_edges(batch: pa.Table) -> pa.Table:
        srcs, dsts = [], []
        for content in batch["content"].to_pylist():
            m = _DEF_RE.search(content)
            if m is None:
                continue
            caller = m.group(1)
            for c in _CALL_RE.finditer(content):
                srcs.append(caller)
                dsts.append(c.group(1))
        return pa.table(
            {
                "src": pa.array(srcs, type=pa.string()),
                "dst": pa.array(dsts, type=pa.string()),
            }
        )

    edges = snap.map_batches(extract_edges, batch_format="pyarrow")
    out = transitive_closure(
        edges, src="src", dst="dst", n_buckets=n_buckets
    ).to_pandas()
    return out.sort_values(["src", "dst"]).reset_index(drop=True)


def fn_reachability_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    return fn_reachability(ds, n_buckets=_nbf(code_parquet, 8))


_STEM_RE = re.compile(r"([^/]+)\.[A-Za-z0-9]+$")
_MODULE_RE = re.compile(r"import ([A-Za-z_][A-Za-z0-9_]*)")


def metapath_counts(
    ds: ray.data.Dataset, n_buckets: int = 16
) -> pd.DataFrame:
    """Metapath (predicate-bigram) profile of the heterogeneous code KG:
    for every ordered predicate pair (p1, p2), the number of length-2
    paths t1.obj = t2.subj — the schema-mining signal that tells an
    ontology builder which relation compositions actually occur
    (defines∘calls = "file reaches function", calls∘calls = call chains).

    Triples are the union of three relations per latest-snapshot file
    (any extension — the fn graph spans languages): stem -imports->
    module, stem -defines-> fn (all defs), first def -calls-> fn (same
    convention as ``fn_reachability``).  Distinct
    triples, then ONE mid-entity-keyed ``shuffle_join`` with the (p1,
    p2) count combiner folded into the join bucket, then a
    |predicates|²-row groupby — path volume never leaves the bucket."""
    from ..stages.dedup import batch_local_dedup, exact_dedup
    from ..stages.join import shuffle_join
    from ..stages.rollup import grouped_agg

    snap = latest_snapshot(
        ds.select_columns(["repo", "path", "commit_ts", "content"]),
        n_buckets=n_buckets,
    )

    def triples(batch: pa.Table) -> pa.Table:
        subj, pred, obj = [], [], []
        paths = batch["path"].to_pylist()
        contents = batch["content"].to_pylist()
        for p, content in zip(paths, contents):
            m = _STEM_RE.search(p)
            if m is None:
                continue
            stem = m.group(1)
            for mod in _MODULE_RE.findall(content):
                subj.append(stem)
                pred.append("imports")
                obj.append(mod)
            for fn in _DEF_RE.findall(content):
                subj.append(stem)
                pred.append("defines")
                obj.append(fn)
            first = _DEF_RE.search(content)
            if first is not None:
                for callee in _CALL_RE.findall(content):
                    subj.append(first.group(1))
                    pred.append("calls")
                    obj.append(callee)
        return pa.table(
            {
                "subj": pa.array(subj, type=pa.string()),
                "pred": pa.array(pred, type=pa.string()),
                "obj": pa.array(obj, type=pa.string()),
            }
        )

    t = exact_dedup(
        batch_local_dedup(
            snap.map_batches(triples, batch_format="pyarrow"),
            ["subj", "pred", "obj"],
        ),
        ["subj", "pred", "obj"],
        n_buckets=n_buckets,
    ).materialize()

    def pair_post(j: pa.Table) -> pa.Table:
        t2 = j.select(["p1", "p2"]).append_column(
            "one", pa.array([1] * len(j), type=pa.int64())
        )
        g = t2.group_by(["p1", "p2"]).aggregate([("one", "sum")])
        return pa.table({"p1": g["p1"], "p2": g["p2"], "n": g["one_sum"]})

    joined = shuffle_join(
        t.map_batches(
            lambda b: pa.table({"mid": b["obj"], "p1": b["pred"]}),
            batch_format="pyarrow",
        ),
        t.map_batches(
            lambda b: pa.table({"mid": b["subj"], "p2": b["pred"]}),
            batch_format="pyarrow",
        ),
        keys="mid",
        n_buckets=n_buckets,
        left_schema={"mid": pa.string(), "p1": pa.string()},
        right_schema={"mid": pa.string(), "p2": pa.string()},
        bucket_post=pair_post,
    )
    out = grouped_agg(
        joined,
        keys=["p1", "p2"],
        aggs={"n_paths": ("n", "sum")},
        n_buckets=4,
        partial=True,
    ).to_pandas()
    out["n_paths"] = out["n_paths"].astype("int64")
    return out.sort_values(["p1", "p2"]).reset_index(drop=True)


def metapath_counts_query(code_parquet: str) -> pd.DataFrame:
    ds = ray.data.read_parquet(
        code_parquet, columns=["repo", "path", "commit_ts", "content"]
    )
    return metapath_counts(ds, n_buckets=_nbf(code_parquet, 8))
