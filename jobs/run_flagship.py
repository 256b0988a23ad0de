"""Flagship KG job — the ``ray job submit`` entry point (north rule).

    ray job submit --working-dir . -- python jobs/run_flagship.py \
        --docs /path/to/docs/*.parquet --out /path/to/triples \
        [--vocab-file vocab.txt] [--resume]

Local/standalone use works too (the script owns its Ray session):

    python jobs/run_flagship.py --docs /root/testdata/sf0.001/documents.parquet \
        --text-col text --out /tmp/triples_out

Each input file is a resumable partition: rerunning with --resume (default)
skips partitions whose MANIFEST.json exists; manifests carry lineage
(source path, vocab hash, model id) and per-partition metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

# script entry points get sys.path[0] = jobs/; the package lives one up
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--docs", required=True, nargs="+", help="input parquet file(s)/glob(s)")
    ap.add_argument("--out", required=True, help="checkpoint root directory")
    ap.add_argument("--vocab-file", help="one surface form per line; default: built-in demo vocab")
    ap.add_argument("--text-col", default="content", help="content column name")
    ap.add_argument("--relation", default="interacts_with")
    ap.add_argument("--num-cpus", type=int, default=None, help="only for standalone runs")
    ap.add_argument("--no-resume", action="store_true", help="rebuild every partition")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    paths = sorted(p for pattern in args.docs for p in glob.glob(pattern))
    if not paths:
        print(f"no input files match {args.docs}", file=sys.stderr)
        return 2

    if args.vocab_file:
        with open(args.vocab_file) as f:
            vocab = [line.strip() for line in f if line.strip()]
    else:
        from bioie_llm_ray.pipelines.analytics import DOC_VOCAB

        vocab = list(DOC_VOCAB)

    if args.no_resume:
        import shutil

        shutil.rmtree(args.out, ignore_errors=True)

    from bioie_llm_ray.pipelines.kg import run_flagship_resumable

    res = run_flagship_resumable(
        paths,
        vocab=vocab,
        out_root=args.out,
        relation=args.relation,
        text_col=args.text_col,
        # the model ids earlier runs of this job recorded, so their
        # output directories still resume
        model_id="mock-vocab-scorer" if args.text_col == "content" else "mention-automaton",
    )
    print(json.dumps({"completed": res["completed"], "skipped": res["skipped"]}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
