"""EntityLinker — alias→canonical-id resolution stage (SURVEY §2.5 J1/J2).

The reference's entity linking is two broadcast lookups: STRING protein id →
preferred name (string_reader.py:109-110) and KEGG gene id → alias list
(kegg_reader.py:152-171).  Generalized here: an alias index (any surface form
→ canonical id) built once per actor from a broadcast table — the canonical
**entity-linking join**: no shuffle, the small side rides the object store.

Normalization before lookup is the engine's near-dup surface-form handling
(SURVEY §2.8 E4): case-fold + whitespace collapse, so ``Tp53`` and ``TP53``
link to the same canonical id while distinct names stay distinct.
"""

from __future__ import annotations

import re

import pyarrow as pa
import ray

_WS = re.compile(r"\s+")


def normalize_surface(s: str) -> str:
    return _WS.sub(" ", s.strip().lower())


def build_alias_index(alias_to_canonical: dict[str, str]) -> dict[str, str]:
    """Normalized alias → canonical id; collisions resolved by first writer
    (callers should order canonical entries first)."""
    index: dict[str, str] = {}
    for alias, canon in alias_to_canonical.items():
        index.setdefault(normalize_surface(alias), canon)
    return index


class EntityLinker:
    """Actor-pool callable: adds ``canonical_id`` (+ ``linked`` flag).

    Unlinked mentions keep their normalized surface form as id when
    ``keep_unlinked`` (they may still canonicalize by exact dedup), or are
    dropped otherwise.
    """

    def __init__(
        self,
        alias_index,
        mention_col: str = "mention",
        out_col: str | None = None,
        keep_unlinked: bool = True,
        add_linked_flag: bool = True,
    ):
        # rehydratable state (ray#53727): plain dict inlined by value, or
        # a ParquetState(path, [alias_col, canonical_col]) loaded from
        # shared storage; legacy ObjectRefs still accepted
        from .mention import ParquetState, _resolve_state

        alias_index = _resolve_state(alias_index)
        if isinstance(alias_index, ParquetState):
            t = alias_index.load()
            alias_index = dict(
                zip(t.column(0).to_pylist(), t.column(1).to_pylist())
            )
        self.index: dict[str, str] = alias_index
        self.mention_col = mention_col
        # out_col == mention_col replaces the surface form in place
        self.out_col = out_col or "canonical_id"
        self.keep_unlinked = keep_unlinked
        self.add_linked_flag = add_linked_flag

    def link(self, mentions: list[str]) -> tuple[list[str | None], list[bool]]:
        """Canonical id per mention (``None`` for an unlinked mention unless
        ``keep_unlinked``) and whether it linked."""
        canon: list[str | None] = []
        linked: list[bool] = []
        for m in mentions:
            norm = normalize_surface(m)
            c = self.index.get(norm)
            if c is None:
                canon.append(norm if self.keep_unlinked else None)
                linked.append(False)
            else:
                canon.append(c)
                linked.append(True)
        return canon, linked

    def __call__(self, batch: pa.Table) -> pa.Table:
        canon, linked = self.link(batch[self.mention_col].to_pylist())
        canon_arr = pa.array(canon, type=pa.string())
        if self.out_col in batch.column_names:
            out = batch.set_column(
                batch.column_names.index(self.out_col), self.out_col, canon_arr
            )
        else:
            out = batch.append_column(self.out_col, canon_arr)
        linked_arr = pa.array(linked, type=pa.bool_())
        if self.add_linked_flag:
            out = out.append_column("linked", linked_arr)
            if not self.keep_unlinked:
                out = out.filter(out["linked"])
        elif not self.keep_unlinked:
            out = out.filter(linked_arr)
        return out
