"""``tools/make_sf1.py`` amplifies both list layouts of an embedding column."""

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
)
import make_sf1  # noqa: E402

VALUES = pa.array(np.arange(12, dtype=np.float32))


@pytest.mark.parametrize(
    "emb",
    [
        pa.FixedSizeListArray.from_arrays(VALUES, 4),
        pa.ListArray.from_arrays(pa.array([0, 4, 8, 12], pa.int32()), VALUES),
    ],
    ids=["fixed_size_list", "list"],
)
def test_embeddings_amplify(tmp_path, emb):
    src, dst = tmp_path / "src", tmp_path / "dst"
    src.mkdir()
    dst.mkdir()
    pq.write_table(
        pa.table({"vec_id": pa.array([1, 2, 3], pa.int64()), "embedding": emb}),
        src / "embeddings.parquet",
    )
    assert make_sf1.amplify_table(str(src), str(dst), "embeddings", 2) == 6
    out = pq.read_table(dst / "embeddings.parquet")
    assert out.schema.field("embedding").type == emb.type
    assert out["embedding"].to_pylist()[:3] == emb.to_pylist()
    assert out["embedding"].to_pylist()[3:] != emb.to_pylist()
