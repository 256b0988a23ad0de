"""Exact edit-distance (Levenshtein) similarity self-join.

Candidate generation uses deletion neighborhoods (the SymSpell scheme,
public domain — Garbe 2012): for strings a, b with ``ed(a, b) <= d`` there
is always a common string reachable by deleting at most ``d`` characters
from each side (every insert / delete / substitute touches one position on
one or both strings; deleting the touched positions cancels it).  Grouping
ids by their ``<= d``-deletion variants is therefore a COMPLETE candidate
generator — no true pair can be missed — and a banded Ukkonen verify
(O(d·min(len)) per pair) makes the output exact, so the DuckDB
``levenshtein()`` cross-join oracle must agree row-for-row.

Shuffle shape (the same discipline as `stages/neardup.py`):

1. one streaming pass emits per-row DISTINCT ``(variant, id)`` keys —
   ≤ ``1 + l·d`` rows per string at d ≤ 2;
2. one keyed exchange on the variant; within each bucket a
   single vectorized pandas self-merge per variant group generates
   candidate pairs (``id_a < id_b``) — never one Python call per variant;
3. pairs are exact-deduped (the same pair arises from many shared
   variants) with the bucketed combiner dedup;
4. texts are re-fetched for verification — candidate ids broadcast when
   small (docs side semi-filtered, zero joins), two bucketed shuffle
   joins when not — mirroring ``neardup.verify_jaccard_pairs_join``:
   driver memory is bounded by the candidate count, never the corpus.

Scale notes: variant fan-out is ``O(l^d)`` per string, which is the
operator's cost knob — fine for short join keys (names, titles, codes:
l ≤ ~50, d ≤ 2); for long strings at higher d the segment-partition
family (PassJoin, Li et al., EDBT 2011) is the published successor and
slots into the same exchange shape.  Hub variants (a variant shared by k
strings) generate k·(k−1)/2 candidates; for an EXACT join that fan-out is
inherent — those pairs genuinely are within distance d of a shared
deletion — so there is no purge step, unlike the approximate LSH family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .dedup import exact_dedup
from .exchange import keyed_exchange


def deletion_variants(s: str, d: int) -> set[str]:
    """All strings reachable from ``s`` by deleting at most ``d`` chars
    (including ``s`` itself)."""
    out = {s}
    frontier = {s}
    for _ in range(d):
        nxt = set()
        for t in frontier:
            for i in range(len(t)):
                nxt.add(t[:i] + t[i + 1 :])
        nxt -= out
        out |= nxt
        frontier = nxt
    return out


def banded_levenshtein(a: str, b: str, d: int) -> int:
    """Levenshtein distance if ``<= d``, else ``d + 1`` (Ukkonen band)."""
    la, lb = len(a), len(b)
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la > d:
        return d + 1
    # DP over the diagonal band [-d, +d]; row = position in a
    prev = np.arange(lb + 1, dtype=np.int64)
    for i in range(1, la + 1):
        lo = max(1, i - d)
        hi = min(lb, i + d)
        cur = np.full(lb + 1, d + 1, dtype=np.int64)
        if lo == 1:
            cur[0] = i
        ai = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if ai == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        if cur[lo : hi + 1].min() > d:
            return d + 1
        prev = cur
    return int(min(prev[lb], d + 1))


def _segments(length: int, d: int) -> list[tuple[int, int]]:
    """(start, len) of the ``d + 1`` even segments of a string of
    ``length`` chars (first ``length mod (d+1)`` segments get the extra
    char; zero-length segments appear when ``length < d + 1`` and match
    trivially, which keeps the pigeonhole argument intact)."""
    n = d + 1
    base, rem = divmod(length, n)
    out, p = [], 0
    for i in range(n):
        ln = base + (1 if i < rem else 0)
        out.append((p, ln))
        p += ln
    return out


def edit_distance_pairs(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    max_dist: int = 1,
    n_buckets: int = 32,
    max_broadcast_ids: int = 2_000_000,
    method: str = "deletion",
) -> ray.data.Dataset:
    """All pairs ``(id_a < id_b, dist)`` with ``levenshtein <= max_dist``.

    Exact under EITHER candidate scheme — both are complete covers, and
    every candidate is re-verified with the banded DP:

    - ``method="deletion"`` (default): SymSpell deletion neighborhoods —
      ``O(l^d)`` keys per string; right for short join keys (names,
      codes, titles).
    - ``method="segment"``: PassJoin-style segment partitioning (Li et
      al., EDBT 2011) — every string indexes its ``d+1`` even segments
      keyed ``(len, seg_idx, value)``; it also probes each
      longer-or-equal partner length with the substrings falling in the
      segment's ±d position window.  The pigeonhole guarantees ≥1 exact
      aligned segment match for any true pair, and the probe count is
      ``O(d^3)`` per string INDEPENDENT of string length — the long-string
      scale path the deletion scheme cannot take.
    """
    if max_dist < 1:
        raise ValueError("max_dist must be >= 1")
    if method not in ("deletion", "segment"):
        raise ValueError(f"unknown method {method!r}")

    def variants(batch: pa.Table) -> pa.Table:
        ids_out, var_out = [], []
        for i, s in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            for v in deletion_variants(s or "", max_dist):
                ids_out.append(i)
                var_out.append(v)
        return pa.table(
            {
                "id": pa.array(ids_out),
                "variant": pa.array(var_out, type=pa.string()),
            }
        )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["variant", "id"]].merge(g[["variant", "id"]], on="variant")
        m = m[m["id_x"] < m["id_y"]]
        return pd.DataFrame(
            {"id_a": m["id_x"], "id_b": m["id_y"]}
        ).drop_duplicates()

    def segment_keys(batch: pa.Table) -> pa.Table:
        ids_out, key_out, role_out = [], [], []
        for i, s in zip(
            batch[id_col].to_pylist(), batch[text_col].to_pylist()
        ):
            s = s or ""
            l = len(s)
            seen: set[tuple[str, str]] = set()
            for seg_i, (p, ln) in enumerate(_segments(l, max_dist)):
                seen.add((f"{l}|{seg_i}|{s[p:p + ln]}", "i"))
            # probe toward longer-or-equal partners only: each unordered
            # pair is generated by its shorter member's probe
            for l2 in range(l, l + max_dist + 1):
                for seg_i, (p, ln) in enumerate(_segments(l2, max_dist)):
                    lo = max(0, p - max_dist)
                    hi = min(l - ln, p + max_dist)
                    for start in range(lo, hi + 1):
                        seen.add(
                            (f"{l2}|{seg_i}|{s[start:start + ln]}", "p")
                        )
            for key, role in seen:
                ids_out.append(i)
                key_out.append(key)
                role_out.append(role)
        return pa.table(
            {
                "id": pa.array(ids_out),
                "key": pa.array(key_out, type=pa.string()),
                "role": pa.array(role_out, type=pa.string()),
            }
        )

    def seg_pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        idx = g[g["role"] == "i"][["key", "id"]]
        prb = g[g["role"] == "p"][["key", "id"]]
        m = prb.merge(idx, on="key", suffixes=("_p", "_i"))
        m = m[m["id_p"] != m["id_i"]]
        a = np.where(m["id_p"] < m["id_i"], m["id_p"], m["id_i"])
        b = np.where(m["id_p"] < m["id_i"], m["id_i"], m["id_p"])
        return pd.DataFrame({"id_a": a, "id_b": b}).drop_duplicates()

    if method == "deletion":
        keys, key_col, bucket_pairs = variants, "variant", pairs_in_bucket
    else:
        keys, key_col, bucket_pairs = segment_keys, "key", seg_pairs_in_bucket
    cand = keyed_exchange(
        ds.map_batches(keys, batch_format="pyarrow"),
        [key_col],
        bucket_pairs,
        n_buckets,
        batch_format="pandas",
    )
    pairs = exact_dedup(cand, ["id_a", "id_b"], n_buckets=n_buckets)

    # --- text re-fetch (broadcast ids when small, shuffle joins when not) --
    pairs = pairs.materialize()
    if pairs.count() * 2 <= max_broadcast_ids:
        from .join import anti_semi_filter

        id_rows = pairs.select_columns(["id_a", "id_b"]).take_all()
        id_set = {str(r["id_a"]) for r in id_rows} | {
            str(r["id_b"]) for r in id_rows
        }
        texts_ref = ray.put(
            {
                r[id_col]: r[text_col]
                for r in anti_semi_filter(ds, id_set, keys=id_col)
                .select_columns([id_col, text_col])
                .take_all()
            }
        )

        def verify_broadcast(batch: pa.Table) -> pa.Table:
            texts = ray.get(texts_ref)
            ia = batch["id_a"].to_pylist()
            ib = batch["id_b"].to_pylist()
            dist = [
                banded_levenshtein(texts[x], texts[y], max_dist)
                for x, y in zip(ia, ib)
            ]
            keep = np.array(dist) <= max_dist
            out = pa.table(
                {
                    "id_a": batch["id_a"],
                    "id_b": batch["id_b"],
                    "dist": pa.array(dist, type=pa.int64()),
                }
            )
            return out.filter(pa.array(keep))

        return pairs.map_batches(verify_broadcast, batch_format="pyarrow")

    from .join import shuffle_join

    def side(col_id: str, col_text: str):
        def rename(batch: pa.Table) -> pa.Table:
            return pa.table({col_id: batch[id_col], col_text: batch[text_col]})

        return ds.map_batches(rename, batch_format="pyarrow")

    j1 = shuffle_join(pairs, side("id_a", "text_a"), keys="id_a",
                      n_buckets=n_buckets)
    j2 = shuffle_join(j1, side("id_b", "text_b"), keys="id_b",
                      n_buckets=n_buckets)

    def verify(batch: pa.Table) -> pa.Table:
        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()
        dist = [
            banded_levenshtein(x, y, max_dist) for x, y in zip(ta, tb)
        ]
        keep = np.array(dist) <= max_dist
        out = pa.table(
            {
                "id_a": batch["id_a"],
                "id_b": batch["id_b"],
                "dist": pa.array(dist, type=pa.int64()),
            }
        )
        return out.filter(pa.array(keep))

    return j2.map_batches(verify, batch_format="pyarrow")
