"""Round-3 regression tests for the ADVICE_r02 edge cases.

Each test builds a tiny synthetic fixture that the sf testdata does NOT
contain (whitespace-only documents, fully-attributed purchases, blocks with
fewer than k different-label vectors, 1-event streams, empty orders) and
checks the Ray pipeline matches the SQL oracle's cardinality/values there.
"""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write(d, name, table):
    os.makedirs(d, exist_ok=True)
    pq.write_table(table, os.path.join(str(d), f"{name}.parquet"))


def _oracle(sf_dir, sql, tables):
    con = duckdb.connect()
    for t in tables:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con.sql(sql).df()


def _docs_with_blank(tmp_path):
    d = tmp_path / "sf"
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": [
                "alpha beta gamma delta",
                "   \t\n  ",  # whitespace-only: must be excluded
                "",  # empty: must be excluded
                "omega psi chi phi upsilon tau",
            ],
            "lang": ["en", "en", "de", "en"],
            "source": ["a", "a", "b", "b"],
            "n_chars": pa.array([22, 7, 0, 29], type=pa.int64()),
        }
    )
    _write(d, "documents", docs)
    return str(d)


class TestWhitespaceOnlyDocs:
    def test_doc_classifier_score_drops_blank_docs(self, tmp_path):
        import __ray_entry__ as entrymod
        from bioie_llm_ray.pipelines.analytics import doc_classifier_score

        d = _docs_with_blank(tmp_path)
        got = doc_classifier_score(d)
        assert set(got["doc_id"]) == {0, 3}
        want = _oracle(
            d, entrymod.oracle_sql()["doc_classifier_score"], ["documents"]
        )
        assert len(want) == len(got) == 2

    def test_clf_calibration_excludes_blank_docs(self, tmp_path):
        import __ray_entry__ as entrymod
        from bioie_llm_ray.pipelines.analytics import clf_calibration

        d = _docs_with_blank(tmp_path)
        got = clf_calibration(d)
        want = _oracle(
            d, entrymod.oracle_sql()["clf_calibration"], ["documents"]
        )
        assert int(got["n_docs"].sum()) == int(want["n_docs"].sum()) == 2

    def test_corpus_report_clf_keep_excludes_blank_docs(self, tmp_path):
        import __ray_entry__ as entrymod
        from bioie_llm_ray.pipelines.analytics import corpus_report

        d = _docs_with_blank(tmp_path)
        got = corpus_report(d)
        want = _oracle(
            d, entrymod.oracle_sql()["corpus_report"], ["documents"]
        )
        assert float(got["clf_keep_rate"].iloc[0]) == pytest.approx(
            float(want["clf_keep_rate"].iloc[0])
        )


class TestPurchaseAttributionNoDirect:
    def test_no_direct_row_when_all_attributed(self, tmp_path):
        from bioie_llm_ray.pipelines.analytics import purchase_attribution

        d = tmp_path / "sf"
        base = pd.Timestamp("2024-01-01")
        # every purchase has a same-user touch 1h earlier (inside window)
        df = pd.DataFrame(
            {
                "event_id": np.arange(4, dtype=np.int64),
                "user_id": np.array([1, 1, 2, 2], dtype=np.int64),
                "ts": [
                    base,
                    base + pd.Timedelta(hours=1),
                    base,
                    base + pd.Timedelta(hours=1),
                ],
                "event_type": ["click", "purchase", "view", "purchase"],
                "value": [0.0, 10.0, 0.0, 20.0],
                "props": ["{}"] * 4,
            }
        )
        _write(d, "events", pa.Table.from_pandas(df, preserve_index=False))
        got = purchase_attribution(str(d))
        assert "direct" not in set(got["channel"])
        assert int(got["n_purchases"].sum()) == 2


class TestHardNegativesFewCandidates:
    def test_fewer_than_k_different_labels(self, tmp_path):
        from bioie_llm_ray.pipelines.analytics import hard_negatives

        d = tmp_path / "sf"
        rng = np.random.RandomState(3)
        emb = rng.randn(5, 4).astype(np.float32)
        tbl = pa.table(
            {
                "vec_id": pa.array([0, 1, 2, 3, 4], type=pa.int64()),
                "embedding": pa.array(
                    [list(map(float, r)) for r in emb],
                    type=pa.list_(pa.float32()),
                ),
                # query vec 0 has label 0; only vec 4 differs
                "label": pa.array([0, 0, 0, 0, 1], type=pa.int32()),
            }
        )
        _write(d, "embeddings", tbl)
        got = hard_negatives(str(d), n_queries=1, k=3)
        # only the single different-label vector may appear — never the
        # masked same-label columns with cosine == -inf
        assert set(got["neighbor_id"]) == {4}
        assert np.isfinite(got["cosine"]).all()
        assert (got["neighbor_label"] != 0).all()


class TestEmptyStreamCardinality:
    def test_events_max_gap_single_event_returns_zero_rows(self, tmp_path):
        from bioie_llm_ray.pipelines.analytics import events_max_gap

        d = tmp_path / "sf"
        df = pd.DataFrame(
            {
                "event_id": np.array([7], dtype=np.int64),
                "ts": [pd.Timestamp("2024-05-05 12:00:00")],
                "user_id": np.array([1], dtype=np.int64),
                "event_type": ["click"],
                "value": [1.0],
                "props": ["{}"],
            }
        )
        _write(d, "events", pa.Table.from_pandas(df, preserve_index=False))
        got = events_max_gap(str(d))
        assert len(got) == 0
        assert list(got.columns) == [
            "n_events",
            "max_gap_us",
            "gap_start",
            "gap_end",
        ]

    def test_revenue_forecast_ses_empty_orders(self, tmp_path):
        from bioie_llm_ray.pipelines.analytics import revenue_forecast_ses

        d = tmp_path / "sf"
        empty = pa.table(
            {
                "o_orderkey": pa.array([], type=pa.int64()),
                "o_custkey": pa.array([], type=pa.int64()),
                "o_orderstatus": pa.array([], type=pa.string()),
                "o_totalprice": pa.array([], type=pa.float64()),
                "o_orderdate": pa.array([], type=pa.timestamp("us")),
                "o_orderpriority": pa.array([], type=pa.string()),
            }
        )
        _write(d, "orders", empty)
        got = revenue_forecast_ses(str(d))
        assert len(got) == 0
        assert list(got.columns) == ["day", "revenue", "smoothed"]


class TestRound4ReviewEdges:
    def test_copurchase_empty_support_keeps_schema(self, sf_dir):
        """Impossible min_support: both co-purchase queries return typed
        empty frames instead of KeyError-ing on a schema-less empty."""
        from bioie_llm_ray.pipelines import analytics as A

        df = A.part_copurchase(sf_dir, min_support=10**9)
        assert list(df.columns) == ["part_a", "part_b", "n_orders"]
        assert len(df) == 0
        df = A.part_triple_copurchase(sf_dir, min_support=10**9)
        assert list(df.columns) == ["part_a", "part_b", "part_c", "n_orders"]
        assert len(df) == 0

    def test_composite_bucket_null_safe(self):
        """Null int keys route deterministically (pinned to the 0 bucket
        path) instead of through a platform-dependent NaN→int cast."""
        import pyarrow as pa

        from bioie_llm_ray.functions.hashing import bucket_ids_for_columns

        a = pa.array([1, None, 3], type=pa.int64())
        b = pa.array([None, 2, 3], type=pa.int64())
        ids = bucket_ids_for_columns([a, b], 8)
        z1 = pa.array([1, 0, 3], type=pa.int64())
        z2 = pa.array([0, 2, 3], type=pa.int64())
        assert (bucket_ids_for_columns([z1, z2], 8) == ids).all()
        assert ids.dtype.kind == "i" and ((0 <= ids) & (ids < 8)).all()

    def test_composite_bucket_empty_cols_raises(self):
        """Zero key columns is a loud ValueError, not a silent zero-length
        bucket array (row count is unknowable from no columns)."""
        import pytest as _pytest

        from bioie_llm_ray.functions.hashing import bucket_ids_for_columns

        with _pytest.raises(ValueError, match="at least one column"):
            bucket_ids_for_columns([], 8)

    def test_presence_masks_reject_more_than_63_terms(self):
        """A 64th vocabulary term would shift past the int64 sign bit and
        silently corrupt every mask; it is a loud ValueError instead."""
        from bioie_llm_ray.pipelines.analytics import _doc_presence_masks

        batch = pa.table({"text": ["T0 binds T1", "T62 alone"]})
        terms = [f"T{i}" for i in range(64)]
        masks = _doc_presence_masks(batch, pa.array(sorted(terms[:63])))
        assert (masks > 0).all()
        with pytest.raises(ValueError, match="at most 63"):
            _doc_presence_masks(batch, pa.array(sorted(terms)))
