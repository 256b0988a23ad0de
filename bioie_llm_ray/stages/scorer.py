"""Scorer stages — the "LLM" of the pipeline (SURVEY §2.4 A1/A2).

The reference loads a HF causal LLM once per process and runs batched
``generate`` (run_model.py:75-385, base_processor.py:121-207).  Here a scorer
is any callable class with the contract:

    __init__: load model/state once (weights, KB index, tokenizer)
    __call__: Arrow batch in (``entity``, ``text`` prompt columns) →
              same batch + ``response`` string column out

``score`` is the one place a scorer runs over a Dataset.  ``MockScorer``
runs as a plain task (its constructor only stores the KB); any other scorer
class holds a model, so it runs as an autoscaling actor pool that loads the
model once per actor.

``MockScorer`` is the deterministic vocabulary-lookup model used for tests
and parity scoring (real LLM outputs are nondeterministic and no GPU/model
exists in this environment, SURVEY §7.5).  Its error injection is stable
hash-based, so every run — at any parallelism — produces identical responses.

``HFScorer`` is the real-model stage: same I/O contract, gated behind a
transformers import (not installed here).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import ray


def _stable_frac(key: str) -> float:
    """Deterministic uniform [0,1) from a string key (md5-based)."""
    h = int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")
    return h / 2**64


class MockScorer:
    """Deterministic mock LLM with configurable, hash-stable error rates.

    kind="entity":       kb = {entity: [neighbors]}; responds with the gold
                         neighbor list, dropping each with prob ``miss_rate``
                         and appending a distractor, comma-joined.
    kind="relation":     kb = {"e1\\x1fe2", ...} positive pair set; responds
                         yes/no, flipped with prob ``flip_rate``.
    kind="relation_type": kb = {statement_id: label}; responds the label,
                         flipped to another choice with prob ``flip_rate``.
    """

    def __init__(
        self,
        kind: str,
        kb,
        choices: list[str] | None = None,
        miss_rate: float = 0.03,
        flip_rate: float = 0.03,
        key_col: str = "entity",
    ):
        if isinstance(kb, ray.ObjectRef):
            kb = ray.get(kb)
        self.kind = kind
        self.kb = kb
        self.choices = choices or []
        self.miss_rate = miss_rate
        self.flip_rate = flip_rate
        self.key_col = key_col

    def _respond(self, key: str) -> str:
        if self.kind == "entity":
            gold = self.kb.get(key, [])
            kept = [
                g
                for g in gold
                if _stable_frac(f"miss|{key}|{g}") >= self.miss_rate
            ]
            extra = (
                [" and maybe UNKNOWNPROT"]
                if _stable_frac(f"extra|{key}") < self.miss_rate
                else []
            )
            return "Answer: " + ", ".join(kept) + "".join(extra)
        if self.kind == "relation":
            # PPI is symmetric (string_reader.py:112-120 inserts both
            # directions): accept either orientation of the pair key
            parts = key.split("\x1f")
            rev = "\x1f".join(reversed(parts)) if len(parts) == 2 else key
            truth = key in self.kb or rev in self.kb
            if _stable_frac(f"flip|{key}") < self.flip_rate:
                truth = not truth
            return "yes" if truth else "no"
        if self.kind == "containment":
            # free-form sentence embedding the label (kbase-style parse, M11)
            label = self.kb.get(key, "unknown")
            if _stable_frac(f"flip|{key}") < self.flip_rate and self.choices:
                idx = int(_stable_frac(f"pick|{key}") * len(self.choices))
                label = self.choices[idx % len(self.choices)]
            return f"I would say this describes a {label} event overall."
        if self.kind == "entity_and_entity_type":
            # open extraction: kb = {doc_id: ["Name (type)", ...]}; each gold
            # mention dropped with prob miss_rate (hash-stable)
            gold = self.kb.get(key, [])
            kept = [
                g
                for g in gold
                if _stable_frac(f"miss|{key}|{g}") >= self.miss_rate
            ]
            return "Answer: " + ", ".join(kept)
        if self.kind == "relation_type":
            # prompt rows pack (id, e1, span, e2, span) into the key; the
            # statement id is the first \x1f-segment
            label = self.kb.get(key, self.kb.get(key.split("\x1f")[0], "None"))
            if _stable_frac(f"flip|{key}") < self.flip_rate and self.choices:
                idx = int(_stable_frac(f"pick|{key}") * len(self.choices))
                label = self.choices[idx % len(self.choices)]
            return f"Answer: {label}"
        raise ValueError(f"unknown scorer kind {self.kind!r}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_pylist()
        responses = [self._respond(k) for k in keys]
        return batch.append_column(
            "response", pa.array(responses, type=pa.string())
        )


# Autoscaling bounds of a model scorer's actor pool.  It starts at one actor,
# so a chained stage downstream always keeps a CPU.
_MODEL_POOL = (1, 2)


def _mock_score(batch: pa.Table, **scorer_kwargs) -> pa.Table:
    """Task body: ``MockScorer(**scorer_kwargs)`` applied to one batch."""
    return MockScorer(**scorer_kwargs)(batch)


def score(
    prompts: ray.data.Dataset,
    scorer_cls,
    scorer_kwargs: dict | None,
    batch_size: int,
) -> ray.data.Dataset:
    """Prompt rows → the same rows plus a ``response`` column.

    ``MockScorer`` runs in task-pool workers.  Any other scorer class holds
    a model, so it runs as an actor pool that loads the model once per
    actor.
    """
    if scorer_cls is MockScorer:
        return prompts.map_batches(
            _mock_score,
            fn_kwargs=scorer_kwargs or {},
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    return prompts.map_batches(
        scorer_cls,
        fn_constructor_kwargs=scorer_kwargs or {},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=_MODEL_POOL,
    )


from dataclasses import dataclass, field


@dataclass(frozen=True)
class HFLoadSpec:
    """Per-family HF load knobs — the reference's load matrix as DATA.

    Semantics mirrored from ``load_model`` (run_model.py:75-385):

    - Galactica: left padding, fixed bos/pad/eos ids 0/1/2 (run_model.py:89-92)
    - LLaMA v1/Alpaca: left padding, pad=0(unk)/bos=1/eos=2 (113-139)
    - LLaMA-2/3/3.1: left padding AND truncation, add a literal "<PAD>"
      token then resize embeddings, temperature 1.0 (145-238)
    - Mistral: pad = unk (239-258); Solar/Falcon: pad = eos (260-300)
    - MPT: gpt-neox-20b tokenizer, pad = eos, trust_remote_code,
      use_cache (302-329); right padding only when finetuning
    - RST: seq2seq head, generation config borrowed from t5-large (331-339)
    - BioGPT: extra "__DELIMITER__" token + embedding resize (341-350)
    - BioMedLM: pad = eos, gpt2 generation config with fixed ids 28895
      (352-365)
    - model context lengths per run_model.py:586-607
    """

    padding_side: str = "left"
    truncation_side: str | None = None
    pad_strategy: str = "none"  # none | fixed_ids | add_pad_token | eos | unk
    bos_id: int | None = None
    pad_id: int | None = None
    eos_id: int | None = None
    add_tokens: tuple[str, ...] = ()
    resize_embeddings: bool = False
    trust_remote_code: bool = False
    seq2seq: bool = False
    tokenizer_id: str | None = None  # override (MPT uses gpt-neox-20b)
    gen_config_from: str | None = None  # RST: t5-large, BioMedLM: gpt2
    gen_overrides: dict = field(default_factory=dict)
    model_max_len: int | None = None


HF_LOAD_SPECS: dict[str, HFLoadSpec] = {
    "galactica": HFLoadSpec(
        pad_strategy="fixed_ids", bos_id=0, pad_id=1, eos_id=2,
        model_max_len=2048,
    ),
    "llama": HFLoadSpec(
        pad_strategy="fixed_ids", pad_id=0, bos_id=1, eos_id=2,
        model_max_len=2048,
    ),
    "alpaca": HFLoadSpec(
        pad_strategy="fixed_ids", pad_id=0, bos_id=1, eos_id=2,
        model_max_len=2048,
    ),
    "llama2": HFLoadSpec(
        truncation_side="left", pad_strategy="add_pad_token",
        resize_embeddings=True, gen_overrides={"temperature": 1.0},
        model_max_len=4096,
    ),
    "llama3": HFLoadSpec(
        truncation_side="left", pad_strategy="add_pad_token",
        resize_embeddings=True, gen_overrides={"temperature": 1.0},
        model_max_len=8192,
    ),
    "llama3.1": HFLoadSpec(
        truncation_side="left", pad_strategy="add_pad_token",
        resize_embeddings=True, gen_overrides={"temperature": 1.0},
        model_max_len=128000,
    ),
    "mistral": HFLoadSpec(pad_strategy="unk", model_max_len=8192),
    "solar": HFLoadSpec(pad_strategy="eos", model_max_len=4096),
    "falcon": HFLoadSpec(pad_strategy="eos", model_max_len=2048),
    "mpt": HFLoadSpec(
        pad_strategy="eos", trust_remote_code=True,
        tokenizer_id="EleutherAI/gpt-neox-20b",
        gen_overrides={"use_cache": True}, model_max_len=4096,
    ),
    "rst": HFLoadSpec(
        seq2seq=True, gen_config_from="t5-large", model_max_len=1024
    ),
    "biogpt": HFLoadSpec(
        add_tokens=("__DELIMITER__",), resize_embeddings=True,
        model_max_len=1024,
    ),
    "biomedlm": HFLoadSpec(
        pad_strategy="eos", gen_config_from="gpt2",
        gen_overrides={"bos_token_id": 28895, "eos_token_id": 28895,
                       "pad_token_id": 28895},
        model_max_len=1024,
    ),
    "default": HFLoadSpec(),
}


class HFScorer:
    """Real HF-model scorer stage — same contract as MockScorer.

    One actor = the reference's load-once-per-process model setup
    (run_model.py:638-651) + batched generate → prompt-length slice → decode
    loop (M7/M8, base_processor.py:169-203).  Every task takes it the same
    way, and ``score`` runs it as an actor pool:

        tasks.string_entity_task(adjacency, scorer_cls=HFScorer,
                                 scorer_kwargs={"model_id": ...,
                                                "max_new_tokens": 128},
                                 batch_size=16)

    The per-family load matrix (padding side, pad/bos/eos ids, extra tokens,
    quantization, device_map — run_model.py:75-385) is ``HF_LOAD_SPECS``,
    keyed by ``functions.prompts.resolve_family``.  transformers/torch are
    not in this container; ``transformers_mod``/``torch_mod`` accept
    substitutes so the tokenize→generate→slice→decode path is testable
    without them (tests/test_containment_task.py).
    """

    def __init__(
        self,
        model_id: str,
        family: str | None = None,
        max_new_tokens: int = 128,
        quantization: str | None = None,  # None | "4bit" | "8bit"
        device_map: str = "auto",
        transformers_mod=None,
        torch_mod=None,
        **generate_kwargs,
    ):
        if transformers_mod is None or torch_mod is None:
            try:
                import torch as torch_mod  # noqa: F811
                import transformers as transformers_mod  # noqa: F811
            except ImportError as e:
                raise NotImplementedError(
                    "HFScorer requires torch+transformers, which are not "
                    "installed in this environment; use MockScorer for tests "
                    "or inject fakes via transformers_mod/torch_mod"
                ) from e
        self._torch = torch_mod
        from ..functions.prompts import resolve_family

        fam = family or resolve_family(model_id)
        spec = HF_LOAD_SPECS.get(fam, HF_LOAD_SPECS["default"])
        self.spec = spec

        tok = transformers_mod.AutoTokenizer.from_pretrained(
            spec.tokenizer_id or model_id
        )
        tok.padding_side = spec.padding_side
        if spec.truncation_side is not None:
            tok.truncation_side = spec.truncation_side
        if spec.pad_strategy == "fixed_ids":
            if spec.bos_id is not None:
                tok.bos_token_id = spec.bos_id
            if spec.pad_id is not None:
                tok.pad_token_id = spec.pad_id
            if spec.eos_id is not None:
                tok.eos_token_id = spec.eos_id
        elif spec.pad_strategy == "add_pad_token":
            tok.add_special_tokens({"pad_token": "<PAD>"})
        elif spec.pad_strategy == "eos":
            tok.pad_token_id = tok.eos_token_id
        elif spec.pad_strategy == "unk":
            tok.pad_token_id = tok.unk_token_id
        for t in spec.add_tokens:
            tok.add_tokens([t])
        self.tokenizer = tok

        load_kwargs: dict = {"device_map": device_map}
        if spec.trust_remote_code:
            load_kwargs["trust_remote_code"] = True
        if quantization == "4bit":
            load_kwargs["load_in_4bit"] = True
        elif quantization == "8bit":
            load_kwargs["load_in_8bit"] = True
        model_cls = (
            transformers_mod.AutoModelForSeq2SeqLM
            if spec.seq2seq
            else transformers_mod.AutoModelForCausalLM
        )
        self.model = model_cls.from_pretrained(model_id, **load_kwargs)
        if spec.resize_embeddings:
            self.model.resize_token_embeddings(len(tok))
        if tok.pad_token_id is not None:
            self.model.config.pad_token_id = tok.pad_token_id

        gen_src = spec.gen_config_from or model_id
        self.generation_config = transformers_mod.GenerationConfig.from_pretrained(
            gen_src
        )
        self.generation_config.max_new_tokens = max_new_tokens
        if tok.pad_token_id is not None:
            self.generation_config.pad_token_id = tok.pad_token_id
        for k, v in spec.gen_overrides.items():
            setattr(self.generation_config, k, v)
        self.max_new_tokens = max_new_tokens
        self.generate_kwargs = generate_kwargs

    def __call__(self, batch: pa.Table) -> pa.Table:
        prompts = batch["text"].to_pylist()
        # M7: batched left-padded tokenization (truncation to the family's
        # context length happens tokenizer-side)
        inputs = self.tokenizer(
            prompts, return_tensors="pt", padding=True, truncation=True
        ).to(self.model.device)
        with self._torch.no_grad():
            out = self.model.generate(
                **inputs,
                generation_config=self.generation_config,
                **self.generate_kwargs,
            )
        # M8: slice off the echoed prompt (seq2seq models emit only the
        # generation, base_processor.py:196-199)
        if self.spec.seq2seq:
            gen = out
        else:
            gen = out[:, inputs["input_ids"].shape[1] :]
        responses = self.tokenizer.batch_decode(gen, skip_special_tokens=True)
        return batch.append_column(
            "response", pa.array(responses, type=pa.string())
        )
