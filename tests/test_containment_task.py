"""Containment-task pipeline (kbase variant, M11) and HFScorer contract."""

import pandas as pd
import pytest
import ray

from bioie_llm_ray.functions.metrics import metrics_from_predictions
from bioie_llm_ray.pipelines.tasks import containment_task
from bioie_llm_ray.stages.scorer import HF_LOAD_SPECS, HFScorer, MockScorer


CHOICES = ["growth", "decay", "transport"]


def _statements():
    rows = [
        {"entity": f"SAMPLE{i}", "answer": CHOICES[i % 3].lower()}
        for i in range(30)
    ]
    return ray.data.from_pandas(pd.DataFrame(rows))


class TestContainmentTask:
    def test_noise_free_perfect(self):
        kb = {f"SAMPLE{i}": CHOICES[i % 3] for i in range(30)}
        res = containment_task(
            _statements(),
            choices=CHOICES,
            scorer_kwargs={
                "kind": "containment",
                "kb": kb,
                "flip_rate": 0.0,
                "choices": CHOICES,
            },
        )
        m = metrics_from_predictions(res.predictions)
        assert m["micro_f"] == 1.0, m
        t = res.triples.take(5)
        assert all(r["pred"] == "has_type" for r in t)

    def test_unknown_entity_yields_none(self):
        res = containment_task(
            _statements(),
            choices=CHOICES,
            scorer_kwargs={"kind": "containment", "kb": {}, "flip_rate": 0.0},
        )
        rows = res.predictions.take_all()
        assert all(r["pred"] == "None" for r in rows)
        assert res.triples.count() == 0


class TestEntityTypeTask:
    """run_model.py:549, 563-565 wiring over the containment parser."""

    def test_noise_free_perfect(self):
        from bioie_llm_ray.pipelines.tasks import entity_type_task

        rows = [
            {
                "entity": f"SAMPLE{i}",
                "text": f"the construct SAMPLE{i} was assayed",
                "answer": CHOICES[i % 3].lower(),
            }
            for i in range(30)
        ]
        kb = {f"SAMPLE{i}": CHOICES[i % 3] for i in range(30)}
        res = entity_type_task(
            ray.data.from_pandas(pd.DataFrame(rows)),
            choices=CHOICES,
            scorer_kwargs={
                "kind": "containment",
                "kb": kb,
                "flip_rate": 0.0,
                "choices": CHOICES,
            },
        )
        m = metrics_from_predictions(res.predictions)
        assert m["micro_f"] == 1.0, m

    def test_prompt_uses_family_entity_type_template(self):
        """Key the mock KB by the exact rendered prompt: the task only scores
        correctly if the scorer saw precisely that family template output."""
        from bioie_llm_ray.functions.prompts import get_templates
        from bioie_llm_ray.pipelines.tasks import entity_type_task

        templates = get_templates("llama2", "string")
        expected_prompt = templates.entity_type_q.format(
            entity="SAMPLE1", text="body text", choices=", ".join(CHOICES)
        )
        rows = [{"entity": "SAMPLE1", "text": "body text", "answer": "growth"}]
        res = entity_type_task(
            ray.data.from_pandas(pd.DataFrame(rows)),
            choices=CHOICES,
            scorer_kwargs={
                "kind": "containment",
                "kb": {expected_prompt: "growth"},
                "flip_rate": 0.0,
                "key_col": "text",
            },
            templates=templates,
        )
        rows_out = res.predictions.take_all()
        assert rows_out[0]["pred"] == "growth"


class TestEntityAndEntityType:
    """Open extraction + K4 raw-JSON dump (run_model.py:737-762)."""

    GOLD = {
        "d0": ["pUC19 (plasmid)", "lacZ (reporter)"],
        "d1": ["T7 (promoter)"],
        "d2": [],
    }

    def _docs(self):
        return ray.data.from_items(
            [
                {"doc_id": d, "text": f"text of {d}", "answer": g}
                for d, g in sorted(self.GOLD.items())
            ]
        )

    def test_extraction_roundtrip(self):
        from bioie_llm_ray.pipelines.tasks import entity_and_entity_type_task

        out = entity_and_entity_type_task(
            self._docs(),
            choices=["plasmid", "reporter", "promoter"],
            scorer_kwargs={
                "kind": "entity_and_entity_type",
                "kb": self.GOLD,
                "miss_rate": 0.0,
                "key_col": "entity",
            },
        ).take_all()
        got = {(r["src"], r["pred_entity"], r["pred_type"]) for r in out}
        assert got == {
            ("d0", "pUC19", "plasmid"),
            ("d0", "lacZ", "reporter"),
            ("d1", "T7", "promoter"),
        }
        assert all(r["hit"] for r in out)

    def test_raw_json_dump(self, tmp_path):
        import json

        from bioie_llm_ray.pipelines.tasks import entity_and_entity_type_task
        from bioie_llm_ray.state.legacy import write_raw_results_json

        preds = entity_and_entity_type_task(
            self._docs(),
            choices=["plasmid", "reporter", "promoter"],
            scorer_kwargs={
                "kind": "entity_and_entity_type",
                "kb": self.GOLD,
                "miss_rate": 0.0,
                "key_col": "entity",
            },
        )
        path = write_raw_results_json(preds, str(tmp_path / "eet_result.txt"))
        with open(path) as f:
            rows = json.load(f)
        assert len(rows) == 3
        assert {r["pred_entity"] for r in rows} == {"pUC19", "lacZ", "T7"}

    def test_pair_parser(self):
        from bioie_llm_ray.functions.parsing import parse_entity_type_pairs

        assert parse_entity_type_pairs(
            "Answer: pUC19 (plasmid), lacZ promoter region (promoter)"
        ) == [("pUC19", "plasmid"), ("lacZ promoter region", "promoter")]
        assert parse_entity_type_pairs("no pairs here") == []


class TestHFScorerContract:
    def test_raises_clearly_without_transformers(self):
        with pytest.raises(NotImplementedError, match="transformers"):
            HFScorer("any-model")


# --------------------------------------------------------------------------
# Fake transformers/torch: exercise the M7/M8 tokenize -> generate ->
# prompt-length slice -> decode path without real torch (VERDICT round-1 #7).
# --------------------------------------------------------------------------
import contextlib
from types import SimpleNamespace


class _FakeEncoding(dict):
    def to(self, device):
        return self


class _FakeTokenizer:
    PAD = 0

    def __init__(self):
        self.id_to_tok = {self.PAD: "<pad>"}
        self.tok_to_id = {"<pad>": self.PAD}
        self.padding_side = None
        self.truncation_side = "right"
        self.pad_token_id = None
        self.bos_token_id = 101
        self.eos_token_id = 102
        self.unk_token_id = 103
        self.added = []

    @classmethod
    def from_pretrained(cls, model_id):
        t = cls()
        t.model_id = model_id
        return t

    def add_special_tokens(self, mapping):
        self.added.append(mapping)
        self.pad_token_id = 999

    def add_tokens(self, toks):
        self.added.extend(toks)

    def __len__(self):
        return 1000 + len(self.added)

    def _id(self, tok):
        if tok not in self.tok_to_id:
            i = len(self.tok_to_id) + 10
            self.tok_to_id[tok] = i
            self.id_to_tok[i] = tok
        return self.tok_to_id[tok]

    def __call__(self, prompts, return_tensors, padding, truncation):
        import numpy as np

        seqs = [[self._id(w) for w in p.split()] for p in prompts]
        width = max(len(s) for s in seqs)
        ids = np.full((len(seqs), width), self.PAD, dtype=np.int64)
        for r, s in enumerate(seqs):
            if self.padding_side == "left":
                ids[r, width - len(s) :] = s
            else:
                ids[r, : len(s)] = s
        return _FakeEncoding(input_ids=ids)

    def batch_decode(self, gen, skip_special_tokens=True):
        return [
            " ".join(
                self.id_to_tok[int(i)] for i in row if int(i) != self.PAD
            )
            for row in gen
        ]


class _FakeModel:
    def __init__(self):
        self.device = "cpu"
        self.config = SimpleNamespace(pad_token_id=None)
        self.resized = None
        self.load_kwargs = {}

    @classmethod
    def from_pretrained(cls, model_id, **kwargs):
        m = cls()
        m.model_id = model_id
        m.load_kwargs = kwargs
        return m

    def resize_token_embeddings(self, n):
        self.resized = n

    def generate(self, input_ids=None, generation_config=None, **kw):
        import numpy as np

        # echo the prompt then "generate" its last real token again
        return np.concatenate([input_ids, input_ids[:, -1:]], axis=1)


class _FakeSeq2Seq(_FakeModel):
    def generate(self, input_ids=None, generation_config=None, **kw):
        # seq2seq models emit ONLY the generation
        return input_ids[:, -1:]


class _FakeGenConfig(SimpleNamespace):
    @classmethod
    def from_pretrained(cls, model_id):
        return cls(source=model_id)


def _fake_mods():
    transformers = SimpleNamespace(
        AutoTokenizer=_FakeTokenizer,
        AutoModelForCausalLM=_FakeModel,
        AutoModelForSeq2SeqLM=_FakeSeq2Seq,
        GenerationConfig=_FakeGenConfig,
    )
    torch = SimpleNamespace(no_grad=contextlib.nullcontext)
    return transformers, torch


class TestHFScorerWithFakeTransformers:
    def _scorer(self, model_id, **kw):
        tr, to = _fake_mods()
        return HFScorer(model_id, transformers_mod=tr, torch_mod=to, **kw)

    def test_generate_slice_decode_roundtrip(self):
        """M8: the echoed prompt is sliced off, only the generation decodes."""
        import pyarrow as pa

        s = self._scorer("some/unknown-model")
        t = pa.table(
            {"text": ["what proteins bind TP53", "does MDM2 interact yes"]}
        )
        out = s(t)
        # fake model 'generates' the last prompt token; if the slice were
        # wrong the whole prompt would leak into the response
        assert out["response"].to_pylist() == ["TP53", "yes"]
        assert s.tokenizer.padding_side == "left"

    def test_llama2_spec(self):
        s = self._scorer("meta-llama/Llama-2-7b-chat-hf")
        assert s.tokenizer.truncation_side == "left"
        assert {"pad_token": "<PAD>"} in s.tokenizer.added
        assert s.model.resized == len(s.tokenizer)
        assert s.generation_config.temperature == 1.0
        assert s.model.config.pad_token_id == 999

    def test_galactica_fixed_ids(self):
        s = self._scorer("facebook/galactica-6.7b")
        assert (
            s.tokenizer.bos_token_id,
            s.tokenizer.pad_token_id,
            s.tokenizer.eos_token_id,
        ) == (0, 1, 2)

    def test_mpt_tokenizer_and_trust(self):
        s = self._scorer("mosaicml/mpt-7b")
        assert s.tokenizer.model_id == "EleutherAI/gpt-neox-20b"
        assert s.model.load_kwargs.get("trust_remote_code") is True
        assert s.tokenizer.pad_token_id == s.tokenizer.eos_token_id
        assert s.generation_config.use_cache is True

    def test_mistral_pad_is_unk(self):
        s = self._scorer("mistralai/Mistral-7B-v0.1")
        assert s.tokenizer.pad_token_id == s.tokenizer.unk_token_id

    def test_rst_seq2seq_no_slice(self):
        import pyarrow as pa

        s = self._scorer("XLab/rst-all-11b")
        assert isinstance(s.model, _FakeSeq2Seq)
        assert s.generation_config.source == "t5-large"
        out = s(pa.table({"text": ["classify this relation now"]}))
        assert out["response"].to_pylist() == ["now"]

    def test_biomedlm_gen_ids(self):
        s = self._scorer("stanford-crfm/BioMedLM")
        assert s.generation_config.source == "gpt2"
        assert s.generation_config.pad_token_id == 28895

    def test_quantization_flags(self):
        s = self._scorer("tiiuae/falcon-7b", quantization="4bit")
        assert s.model.load_kwargs.get("load_in_4bit") is True


class TestFullLoadMatrix:
    """Round-4 hardening: EVERY family in HF_LOAD_SPECS × every
    quantization flag × a non-default device_map executes through the real
    ``HFScorer.__init__`` + one tokenize→generate→slice→decode round, with
    every spec knob asserted from the spec itself (data-driven — a new
    family added to the matrix is covered automatically)."""

    @pytest.mark.parametrize("quant", [None, "4bit", "8bit"])
    @pytest.mark.parametrize("fam", sorted(HF_LOAD_SPECS))
    def test_family_spec_applies(self, fam, quant):
        import pyarrow as pa

        from bioie_llm_ray.stages.scorer import HF_LOAD_SPECS as SPECS

        tr, to = _fake_mods()
        s = HFScorer(
            f"org/{fam}-model",
            family=fam,
            quantization=quant,
            device_map="balanced",
            transformers_mod=tr,
            torch_mod=to,
        )
        spec = SPECS[fam]
        tok = s.tokenizer
        assert tok.padding_side == spec.padding_side
        if spec.truncation_side is not None:
            assert tok.truncation_side == spec.truncation_side
        if spec.pad_strategy == "fixed_ids":
            for want, got in (
                (spec.bos_id, tok.bos_token_id),
                (spec.pad_id, tok.pad_token_id),
                (spec.eos_id, tok.eos_token_id),
            ):
                if want is not None:
                    assert got == want
        elif spec.pad_strategy == "add_pad_token":
            assert {"pad_token": "<PAD>"} in tok.added
        elif spec.pad_strategy == "eos":
            assert tok.pad_token_id == tok.eos_token_id
        elif spec.pad_strategy == "unk":
            assert tok.pad_token_id == tok.unk_token_id
        for t in spec.add_tokens:
            assert t in tok.added
        if spec.resize_embeddings:
            assert s.model.resized == len(tok)
        else:
            assert s.model.resized is None
        # load kwargs: device_map always, trust/quant only when requested
        assert s.model.load_kwargs.get("device_map") == "balanced"
        assert (
            s.model.load_kwargs.get("trust_remote_code", False)
            is spec.trust_remote_code
        )
        assert s.model.load_kwargs.get("load_in_4bit", False) is (
            quant == "4bit"
        )
        assert s.model.load_kwargs.get("load_in_8bit", False) is (
            quant == "8bit"
        )
        if spec.tokenizer_id is not None:
            assert tok.model_id == spec.tokenizer_id
        else:
            assert tok.model_id == f"org/{fam}-model"
        assert isinstance(s.model, _FakeSeq2Seq) is spec.seq2seq
        src = spec.gen_config_from or f"org/{fam}-model"
        assert s.generation_config.source == src
        for k, v in spec.gen_overrides.items():
            assert getattr(s.generation_config, k) == v
        # one full batched round: the echoed prompt slices off cleanly
        out = s(pa.table({"text": ["alpha beta gamma", "delta epsilon x"]}))
        assert out["response"].to_pylist() == ["gamma", "x"]
