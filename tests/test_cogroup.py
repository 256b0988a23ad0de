"""The co-grouped exchange (``stages.exchange.cogroup``) and the two-input
stages built on it.

- The kernel gets one table per input, holding exactly that input's
  declared columns (keys first) in its declared types, at B = 1 and
  B > 1, even when two inputs share a column name with different types,
  and 40 chained rounds of it still ship to Ray.
- Every moved join and graph stage gives the same rows at B = 1 (one
  task, no exchange) as at B = 16, on small synthetic inputs.
- A join with one empty input gives the same rows, column names and
  types at B = 1 and B = 16.
- ``asof_join`` and ``interval_join`` type a right column whose name
  ends in the suffix from the right side's own schema, with no schema
  warning from Ray Data.
"""

from __future__ import annotations

import contextlib
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from bioie_llm_ray.stages.exchange import cogroup
from bioie_llm_ray.stages.graph import (
    _hits_bucketed,
    _lpa_bucketed,
    _pagerank_bucketed,
    _sssp_bucketed,
    connected_components,
    dag_longest_levels,
    wl_colors,
)
from bioie_llm_ray.stages.join import (
    asof_join,
    interval_join,
    shuffle_join,
    shuffle_semi_join,
)


def _rows(out) -> pd.DataFrame:
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    df = df.round(9)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@contextlib.contextmanager
def _schema_warnings():
    """Collect Ray Data's "RefBundle with a different schema" warnings."""
    seen = []

    class Grab(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                seen.append(record.getMessage())

    log = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    handler = Grab()
    log.addHandler(handler)
    try:
        yield seen
    finally:
        log.removeHandler(handler)


# ------------------------------------------------------------------ cogroup


@pytest.mark.parametrize("n_buckets", [1, 4])
def test_kernel_gets_each_input_in_its_declared_schema(n_buckets):
    """Three inputs; "x" is int64 in one and string in another, and the
    key is int32 in the second input: each table the kernel gets has its
    own input's columns and types, keys first, and a key's rows meet in
    one call."""
    a = pa.table({"x": pa.array(range(20), pa.int64()), "k": pa.array([i % 5 for i in range(20)], pa.int64())})
    b = pa.table({"k": pa.array([0, 1, 2, 7], pa.int32()), "x": ["p", "q", "r", "s"]})
    c = pa.table({"k": pa.array([1, 3], pa.int64()), "y": [0.5, 1.5]})
    decl = [
        {"x": pa.int64(), "k": pa.int64()},
        {"k": pa.int32(), "x": pa.string()},
        {"k": pa.int64(), "y": pa.float64()},
    ]
    want = [
        pa.schema([("k", pa.int64()), ("x", pa.int64())]),
        pa.schema([("k", pa.int32()), ("x", pa.string())]),
        pa.schema([("k", pa.int64()), ("y", pa.float64())]),
    ]

    def kernel(sides):
        assert [t.schema for t in sides] == want
        keys = set()
        for t in sides:
            keys |= set(t["k"].to_pylist())
        return pa.table(
            {
                "k": pa.array(sorted(keys), pa.int64()),
                "n": pa.array([len(keys)] * len(keys), pa.int64()),
            }
        )

    out = cogroup(
        [ray.data.from_arrow(t).repartition(3) for t in (a, b, c)],
        ["k"],
        kernel,
        n_buckets,
        schemas=decl,
    ).to_pandas()
    # every key shows up exactly once across the kernel calls
    assert sorted(out["k"]) == [0, 1, 2, 3, 4, 7]


def test_pandas_kernel_and_schema_probe():
    """``batch_format="pandas"`` hands frames whose int columns stay
    int64 next to a side with no rows for the key; with no ``schemas``
    each input's schema is probed."""
    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3], "v": pa.array([10, 20, 30], pa.int64())}))
    right = ray.data.from_arrow(pa.table({"k": [3, 4], "w": ["a", "b"]}))

    def kernel(sides):
        l, r = sides
        assert list(l.columns) == ["k", "v"] and l["v"].dtype == np.int64
        assert list(r.columns) == ["k", "w"]
        return l.merge(r, on="k", how="outer")

    for b in (1, 8):
        got = _rows(cogroup([left, right], ["k"], kernel, b, batch_format="pandas"))
        assert got["k"].tolist() == [1, 2, 3, 4]
        assert got["w"].tolist()[2:] == ["a", "b"]


def test_iterated_rounds_do_not_pickle_the_inputs():
    """A graph round cogroups last round's materialized state: the function
    shipped to Ray must not hold the input Datasets, whose lineage grows
    every round.  Holding them failed to pickle at round 31."""
    base = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
    state = base.materialize()
    for _ in range(40):
        state = cogroup(
            [state, base], ["k"], lambda sides: sides[0], 1,
            schemas=[{"k": pa.int64()}] * 2,
        ).materialize()
    assert sorted(state.to_pandas()["k"]) == [1, 2, 3]


# ------------------------------------------------------------ join parity


def _left() -> pa.Table:
    rng = np.random.RandomState(4)
    n = 120
    return pa.table(
        {
            "k": pa.array(rng.randint(0, 30, n), pa.int64()),
            "t": pa.array(
                pd.Timestamp("2024-01-01") + pd.to_timedelta(rng.randint(0, 96, n), "h")
            ),
            "v": pa.array(rng.randn(n).round(6)),
        }
    )


def _right() -> pa.Table:
    rng = np.random.RandomState(5)
    n = 60
    start = pd.Timestamp("2024-01-01") + pd.to_timedelta(rng.randint(0, 90, n), "h")
    return pa.table(
        {
            "k": pa.array(rng.randint(0, 40, n), pa.int64()),
            "t": pa.array(start),
            "t_end": pa.array(start + pd.to_timedelta(rng.randint(1, 30, n), "h")),
            "w": pa.array(np.arange(n), pa.int64()),
        }
    )


def _ds(t: pa.Table) -> ray.data.Dataset:
    # built from the projected table: Ray Data passes a zero-row block
    # through a map (select_columns too) without calling it, and a
    # repartitioned empty Dataset has no schema
    ds = ray.data.from_arrow(t)
    return ds.repartition(3) if len(t) else ds


def _parity(t: pa.Table, col: str) -> pa.Table:
    return t.append_column("j", pc.bit_wise_and(t[col], 1))


# Each entry joins a left and a right table with bucket count b.
JOINS = {
    "shuffle_join[inner]": lambda l, r, b: shuffle_join(
        _ds(l), _ds(r.select(["k", "w"])), "k", n_buckets=b
    ),
    "shuffle_join[left outer]": lambda l, r, b: shuffle_join(
        _ds(l), _ds(r.select(["k", "w"])), "k", n_buckets=b, join_type="left outer"
    ),
    "shuffle_join[two keys]": lambda l, r, b: shuffle_join(
        _ds(_parity(l, "k")),
        _ds(_parity(r.select(["k", "w"]), "w")),
        ["k", "j"],
        n_buckets=b,
    ),
    "shuffle_semi_join[semi]": lambda l, r, b: shuffle_semi_join(
        _ds(l), _ds(r), "k", n_buckets=b
    ),
    "shuffle_semi_join[anti]": lambda l, r, b: shuffle_semi_join(
        _ds(l), _ds(r), "k", anti=True, n_buckets=b
    ),
    "asof_join": lambda l, r, b: asof_join(
        _ds(l), _ds(r.drop_columns(["t_end"])), by="k", on="t", n_buckets=b
    ),
    "interval_join": lambda l, r, b: interval_join(
        _ds(l), _ds(r), by="k", on="t", start="t", end="t_end", n_buckets=b
    ),
    "interval_join[time_chunk]": lambda l, r, b: interval_join(
        _ds(l), _ds(r), by="k", on="t", start="t", end="t_end", n_buckets=b,
        time_chunk="1D",
    ),
}


@pytest.mark.parametrize("join", sorted(JOINS))
def test_join_one_bucket_equals_sixteen(join):
    one = _rows(JOINS[join](_left(), _right(), 1))
    sixteen = _rows(JOINS[join](_left(), _right(), 16))
    assert len(one) > 0
    pd.testing.assert_frame_equal(one, sixteen)


EMPTY_JOINS = [
    "shuffle_join[inner]",
    "shuffle_join[left outer]",
    "shuffle_semi_join[semi]",
    "shuffle_semi_join[anti]",
    "asof_join",
    "interval_join",
]


@pytest.mark.parametrize("empty", ["left", "right"])
@pytest.mark.parametrize("join", EMPTY_JOINS)
def test_join_with_one_empty_input(join, empty):
    l, r = _left(), _right()
    if empty == "left":
        l = l.slice(0, 0)
    else:
        r = r.slice(0, 0)
    one = JOINS[join](l, r, 1).to_pandas()
    sixteen = JOINS[join](l, r, 16).to_pandas()
    assert list(one.columns) == list(sixteen.columns)
    assert list(one.dtypes) == list(sixteen.dtypes)
    pd.testing.assert_frame_equal(_rows(one), _rows(sixteen))
    # only an outer join or an anti join keeps left rows without a match
    keeps = empty == "right" and join in (
        "shuffle_join[left outer]",
        "shuffle_semi_join[anti]",
    )
    assert len(one) == (120 if keeps else 0)


@pytest.mark.parametrize("n_buckets", [1, 16])
@pytest.mark.parametrize("join", ["asof_join", "interval_join"])
def test_right_column_named_with_suffix(join, n_buckets):
    """A right column literally named ``label_right`` (no ``label`` on the
    right) keeps its own string type, next to a timestamp ``on``, and a
    float ``price_right`` next to an int ``by``."""
    l = pa.table(
        {
            "k": pa.array([1, 1, 2], pa.int64()),
            "t": pa.array(pd.to_datetime(["2024-01-02", "2024-01-05", "2024-01-03"])),
        }
    )
    r = pa.table(
        {
            "k": pa.array([1, 1, 2], pa.int64()),
            "t": pa.array(pd.to_datetime(["2024-01-01", "2024-01-04", "2024-01-01"])),
            "t_end": pa.array(pd.to_datetime(["2024-01-03", "2024-01-06", "2024-01-04"])),
            "label_right": ["a", "b", "c"],
            "price_right": [1.5, 2.5, 3.5],
        }
    )
    lds, rds = ray.data.from_arrow(l), ray.data.from_arrow(r)
    with _schema_warnings() as warned:
        if join == "asof_join":
            out = asof_join(lds, rds.drop_columns(["t_end"]), "k", "t", n_buckets=n_buckets)
        else:
            out = interval_join(lds, rds, "k", "t", "t", "t_end", n_buckets=n_buckets)
        got = out.to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
    assert warned == []
    assert got["label_right"].tolist() == ["a", "b", "c"]
    assert got["price_right"].tolist() == [1.5, 2.5, 3.5]
    assert got["price_right"].dtype == np.float64


# ----------------------------------------------------------- graph parity


def _digraph(weighted: bool) -> ray.data.Dataset:
    rng = np.random.RandomState(11)
    n, m = 50, 150
    src, dst = rng.randint(0, n, m), rng.randint(0, n, m)
    keep = src != dst
    cols = {
        "subj": [f"n{a:02d}" for a in src[keep]],
        "obj": [f"n{b:02d}" for b in dst[keep]],
    }
    if weighted:
        cols["w"] = pa.array(rng.randint(1, 9, keep.sum()), pa.int64())
    return ray.data.from_arrow(pa.table(cols))


def _dag() -> ray.data.Dataset:
    # three layers of 17 nodes, edges only from one layer to the next
    rng = np.random.RandomState(12)
    a = rng.randint(0, 34, 100)
    b = (a // 17 + 1) * 17 + rng.randint(0, 17, 100)
    return ray.data.from_arrow(
        pa.table({"src": pa.array(a, pa.int64()), "dst": pa.array(b, pa.int64())})
    )


GRAPH_STAGES = {
    "_sssp_bucketed": lambda b: _sssp_bucketed(
        _digraph(True), "n00", "subj", "obj", "w", 3, n_buckets=b
    ),
    "_lpa_bucketed": lambda b: _lpa_bucketed(
        _digraph(False), "subj", "obj", None, 2, n_buckets=b
    ),
    "_pagerank_bucketed": lambda b: _pagerank_bucketed(
        _digraph(True), "subj", "obj", "w", 0.85, 2, n_buckets=b
    ),
    "_hits_bucketed": lambda b: _hits_bucketed(
        _digraph(False), "subj", "obj", None, 1, n_buckets=b
    ),
    "dag_longest_levels": lambda b: dag_longest_levels(_dag(), n_buckets=b),
    "wl_colors": lambda b: wl_colors(_digraph(False), "subj", "obj", n_rounds=1, n_buckets=b),
    "connected_components": lambda b: connected_components(
        _dag(), src="src", dst="dst", n_buckets=b
    ),
}


@pytest.mark.parametrize("stage", sorted(GRAPH_STAGES))
def test_graph_one_bucket_equals_sixteen(stage):
    one = _rows(GRAPH_STAGES[stage](1))
    sixteen = _rows(GRAPH_STAGES[stage](16))
    assert len(one) > 10
    pd.testing.assert_frame_equal(one, sixteen, check_exact=False, rtol=1e-9)
