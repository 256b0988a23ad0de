"""End-to-end crash-resume proof for the flagship KG job.

The checkpoint layer's resume logic is unit-tested in test_checkpoint.py;
this file proves the property the north rule actually demands: a REAL
``jobs/run_flagship.py`` process SIGKILLed mid-flight (driver + its Ray
session killed as a process group — the single-node stand-in for losing
the job's node) can be rerun with resume on and will (a) skip every
partition whose manifest landed before the kill, without rewriting a
byte of it, and (b) produce final triples identical to an uninterrupted
run's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB = os.path.join(REPO, "jobs", "run_flagship.py")


def _write_shards(root: str) -> list[str]:
    """Four doc shards; later shards are larger so the kill lands before
    the run finishes."""
    rng = np.random.RandomState(11)
    words = [
        "spark", "hash", "join", "merge", "sort", "filter", "window",
        "vector", "stream", "batch", "the", "quick", "brown", "fox",
    ]
    paths = []
    os.makedirs(root, exist_ok=True)
    for i, n_rows in enumerate([2000, 2000, 60000, 60000]):
        texts = [
            " ".join(rng.choice(words, size=30)) for _ in range(n_rows)
        ]
        p = os.path.join(root, f"docs_{i}.parquet")
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(
                        np.arange(n_rows, dtype=np.int64) + i * 1_000_000
                    ),
                    "text": pa.array(texts),
                }
            ),
            p,
        )
        paths.append(p)
    return paths


def _run_job(paths: list[str], out: str, extra=()) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, JOB, "--docs", *paths, "--out", out,
         "--text-col", "text", "--num-cpus", "4", *extra],
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,  # own process group: killpg nukes Ray too
    )


def _manifests(out: str) -> list[str]:
    if not os.path.isdir(out):
        return []
    return sorted(
        d for d in os.listdir(out)
        if d.startswith("part=")
        and os.path.exists(os.path.join(out, d, "MANIFEST.json"))
    )


def _read_triples(out: str) -> pd.DataFrame:
    frames = []
    for d in _manifests(out):
        part = os.path.join(out, d)
        for f in sorted(os.listdir(part)):
            if f.endswith(".parquet"):
                frames.append(
                    pq.read_table(os.path.join(part, f)).to_pandas()
                )
    df = pd.concat(frames, ignore_index=True)
    return (
        df[["subj", "pred", "obj"]]
        .drop_duplicates()
        .sort_values(["subj", "pred", "obj"])
        .reset_index(drop=True)
    )


def test_sigkill_midrun_then_resume_is_lossless(tmp_path):
    paths = _write_shards(str(tmp_path / "docs"))
    out_full = str(tmp_path / "full")
    out_res = str(tmp_path / "resumed")

    # reference: uninterrupted run
    p = _run_job(paths, out_full)
    stdout, _ = p.communicate(timeout=420)
    assert p.returncode == 0, stdout
    assert len(_manifests(out_full)) == 4

    # run 2: SIGKILL the whole process group once ≥2 manifests exist
    p = _run_job(paths, out_res)
    try:
        deadline = time.time() + 420
        while time.time() < deadline:
            if len(_manifests(out_res)) >= 2 or p.poll() is not None:
                break
            time.sleep(0.05)
        assert p.poll() is None, "job finished before the kill landed"
        os.killpg(p.pid, signal.SIGKILL)
    finally:
        try:
            p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
    done_at_kill = _manifests(out_res)
    assert 2 <= len(done_at_kill) < 4, done_at_kill
    mtimes = {
        d: os.path.getmtime(os.path.join(out_res, d, "MANIFEST.json"))
        for d in done_at_kill
    }

    # run 3: resume (the default) finishes only the missing partitions
    p = _run_job(paths, out_res)
    stdout, _ = p.communicate(timeout=420)
    assert p.returncode == 0, stdout
    summary = json.loads(stdout.strip().splitlines()[-1])
    killed_ids = {d.split("=", 1)[1] for d in done_at_kill}
    assert set(summary["skipped"]) == killed_ids
    assert set(summary["completed"]) == (
        {d.split("=", 1)[1] for d in _manifests(out_res)} - killed_ids
    )
    # (a) pre-kill partitions were not rewritten
    for d, m in mtimes.items():
        assert os.path.getmtime(
            os.path.join(out_res, d, "MANIFEST.json")
        ) == m, f"{d} was rewritten on resume"
    # (b) final triples identical to the uninterrupted run
    pd.testing.assert_frame_equal(_read_triples(out_res), _read_triples(out_full))


def test_one_cpu_session_finishes(tmp_path):
    """Extraction must not hold the only CPU its downstream shuffle needs.
    The second shard mentions no vocabulary term, so its partition is
    written with zero rows."""
    docs = tmp_path / "docs"
    docs.mkdir()
    texts = [
        ["TP53 binds MDM2 and BRCA1", "MDM2 with TP53", "no protein here"],
        ["nothing to see", "still nothing"],
    ]
    paths = []
    for i, rows in enumerate(texts):
        p = str(docs / f"docs_{i}.parquet")
        pq.write_table(pa.table({"content": rows}), p)
        paths.append(p)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("TP53\nMDM2\nBRCA1\n")
    out = str(tmp_path / "out")
    argv = [sys.executable, JOB, "--docs", *paths, "--out", out,
            "--num-cpus", "1", "--vocab-file", str(vocab)]
    p = subprocess.Popen(argv, cwd=REPO, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True,
                         start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=300)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait(timeout=30)
    assert p.returncode == 0, stdout
    assert len(json.loads(stdout.strip().splitlines()[-1])["completed"]) == 2
    n_rows = sorted(
        json.load(open(os.path.join(out, d, "MANIFEST.json")))["n_rows"]
        for d in _manifests(out)
    )
    assert n_rows == [0, 3]
    assert set(map(tuple, _read_triples(out).values.tolist())) == {
        ("TP53", "interacts_with", "MDM2"),
        ("TP53", "interacts_with", "BRCA1"),
        ("MDM2", "interacts_with", "TP53"),
    }
