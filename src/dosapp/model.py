"""Toy dual-encoder classifier.

A small transformer-style encoder maps an input vector (viewed as a short
token sequence) to a unit-norm embedding, which is scored against a fixed
table of unit-norm class embeddings by temperature-scaled cosine similarity.
Only the first MLP layer weight of each block is a candidate for sparse
masked updates; everything else stays frozen under masked training.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .records import read_records, write_records
from .seeding import substream

CHECKPOINT_MAGIC = "dosapp-checkpoint"


class ParameterSet:
    """Named float64 parameter tensors.

    Candidate tensors (the per-block first MLP weights, by name) are the only
    ones a sparse mask may select from. Iteration order is construction order
    and is stable, which keeps every downstream loop deterministic.
    """

    def __init__(self):
        self.entries: dict[str, Tensor] = {}

    def add(self, path: str, value: np.ndarray) -> None:
        if path in self.entries:
            raise ValueError(f"duplicate parameter path '{path}'")
        self.entries[path] = Tensor(value)

    def candidate_paths(self) -> list[str]:
        return [p for p in self.entries if p.endswith(".mlp.fc1.weight")]

    def zero_grads(self) -> None:
        for t in self.entries.values():
            t.grad = None

    def clone(self) -> "ParameterSet":
        out = ParameterSet()
        for path, t in self.entries.items():
            out.add(path, t.data.copy())
        return out


@functools.lru_cache(maxsize=16)  # encode checks its encoder on every call
def _layout(token_dim: int, hidden: int, blocks: int, attention: bool, flat: int,
            embed: int) -> MappingProxyType[str, tuple[int, ...]]:
    """The shape of every tensor of one encoder, by path, in init order (read-only: it is shared)."""
    d, h = token_dim, hidden
    attn = {"ln1.gain": (d,), "ln1.bias": (d,), "attn.q.weight": (d, d), "attn.k.weight": (d, d),
            "attn.v.weight": (d, d), "attn.out.weight": (d, d)}
    block = {**(attn if attention else {}), "ln2.gain": (d,), "ln2.bias": (d,),
             "mlp.fc1.weight": (d, h), "mlp.fc1.bias": (h,), "mlp.fc2.weight": (h, d), "mlp.fc2.bias": (d,)}
    out = {f"block{i}.{name}": shape for i in range(blocks) for name, shape in block.items()}
    out["proj.weight"] = (flat, embed)
    return MappingProxyType(out)


def init_model(cfg: RunConfig, seed: int) -> ParameterSet:
    """Deterministic init: weights uniform in +-1/sqrt(fan-in), identity norms."""
    rng = substream(seed, "init")
    params = ParameterSet()
    for path, shape in _layout(cfg.token_dim, cfg.mlp_hidden_dim, cfg.block_count, cfg.use_attention,
                               cfg.token_count * cfg.token_dim, cfg.embed_dim).items():
        bound = 1.0 / math.sqrt(shape[0])
        value = (np.ones(shape) if path.endswith(".gain") else np.zeros(shape) if path.endswith(".bias")
                 else rng.uniform(-bound, bound, size=shape))
        params.add(path, value)
    return params


def encoder_shape(params: ParameterSet) -> tuple[int, int, int, bool]:
    """(token_dim, token_count, block_count, use_attention) of the encoder params holds.

    Read from block0.ln2.gain, block0.mlp.fc1.weight, proj.weight and the
    block names; a ValueError if the tensors do not form that one encoder.
    """
    shapes = {path: t.data.shape for path, t in params.entries.items()}
    d, h = shapes.get("block0.ln2.gain", (1,))[0], shapes.get("block0.mlp.fc1.weight", (1,))[-1]
    flat, embed = (shapes.get("proj.weight", (1,))[i] for i in (0, -1))  # a wrong rank fails below
    if min(d, h, flat, embed) < 1 or flat % d:
        raise ValueError(f"no encoder has token width {d}, hidden width {h} and proj.weight {(flat, embed)}")
    blocks = 0
    while f"block{blocks}.ln2.gain" in shapes:
        blocks += 1
    attention = "block0.ln1.gain" in shapes
    want = _layout(d, h, blocks, attention, flat, embed)
    if shapes != want:
        path = next(p for p in {**want, **shapes} if shapes.get(p) != want.get(p))
        raise ValueError(f"tensor {path!r} has shape {shapes.get(path, '(absent)')} where one "
                         f"encoder has {want.get(path, '(absent)')}")
    return d, flat // d, blocks, attention


@dataclass
class ClassEmbeddingTable:
    """Fixed unit-norm class embedding per class id; frozen during training."""

    vectors: np.ndarray  # [total_classes, embed_dim]

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError(f"class table must be 2-d, got {self.vectors.shape}")

    @property
    def total_classes(self) -> int:
        return self.vectors.shape[0]


def init_class_table(total_classes: int, embed_dim: int, seed: int) -> ClassEmbeddingTable:
    """Random unit-norm class embeddings, drawn from the data substream."""
    rng = substream(seed, "data", "class-table")
    v = rng.standard_normal((total_classes, embed_dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return ClassEmbeddingTable(v)


def encode(params: ParameterSet, x) -> Tensor:
    """Embed a batch [batch, input_dim] into unit-norm rows [batch, embed_dim]."""
    d, token_count, blocks, attention = encoder_shape(params)
    x = ad._as_tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != token_count * d:
        raise ValueError(f"encode: want [batch, {token_count * d}], got {x.data.shape}")
    b = x.data.shape[0]
    e = params.entries
    tokens = ad.reshape(x, (b, token_count, d))
    for i in range(blocks):
        if attention:
            hn = ad.layer_norm(tokens, e[f"block{i}.ln1.gain"], e[f"block{i}.ln1.bias"])
            q = ad.matmul(hn, e[f"block{i}.attn.q.weight"])
            k = ad.matmul(hn, e[f"block{i}.attn.k.weight"])
            v = ad.matmul(hn, e[f"block{i}.attn.v.weight"])
            scores = ad.scale(ad.matmul(q, k, transpose_b=True), 1.0 / math.sqrt(d))
            mixed = ad.matmul(ad.softmax(scores), v)
            tokens = ad.add(tokens, ad.matmul(mixed, e[f"block{i}.attn.out.weight"]))
        hn2 = ad.layer_norm(tokens, e[f"block{i}.ln2.gain"], e[f"block{i}.ln2.bias"])
        hidden = ad.gelu(ad.linear(hn2, e[f"block{i}.mlp.fc1.weight"], e[f"block{i}.mlp.fc1.bias"]))
        out = ad.linear(hidden, e[f"block{i}.mlp.fc2.weight"], e[f"block{i}.mlp.fc2.bias"])
        tokens = ad.add(tokens, out)
    flat = ad.reshape(tokens, (b, token_count * d))
    return ad.normalize_rows(ad.matmul(flat, e["proj.weight"]))


def _check_restrict(table: ClassEmbeddingTable, restrict_to) -> np.ndarray:
    """The restricted class ids in ascending order, which is logit column order."""
    ids = sorted(int(c) for c in restrict_to)
    if not ids:
        raise ValueError("logits: empty class restriction")
    if len(set(ids)) != len(ids):
        raise ValueError("logits: duplicate class ids in restriction")
    if ids[0] < 0 or ids[-1] >= table.total_classes:
        raise ValueError(f"logits: class id out of range [0, {table.total_classes})")
    return np.asarray(ids, dtype=np.int64)


def _logits(params: ParameterSet, table: ClassEmbeddingTable, x, ids: np.ndarray,
            temperature: float) -> Tensor:
    if temperature <= 0.0:
        raise ValueError(f"logits: temperature must be positive, got {temperature}")
    emb = encode(params, x)
    sub = Tensor(table.vectors[ids])
    return ad.scale(ad.cosine_similarity_rows(emb, sub), 1.0 / temperature)


def logits(params: ParameterSet, table: ClassEmbeddingTable, x, restrict_to, temperature: float) -> Tensor:
    """Cosine(embedding, class vector)/temperature, columns in ascending class id."""
    return _logits(params, table, x, _check_restrict(table, restrict_to), temperature)


def model_loss(params: ParameterSet, table: ClassEmbeddingTable, x, labels, restrict_to, temperature: float) -> Tensor:
    """Cross-entropy over the restricted class set; labels are raw class ids."""
    ids = _check_restrict(table, restrict_to)
    labels = np.asarray(labels, dtype=np.int64)
    outside = labels[~np.isin(labels, ids)]
    if outside.size:
        raise ValueError(f"model_loss: label {outside[0]} outside the restricted class set")
    return ad.cross_entropy_from_logits(_logits(params, table, x, ids, temperature), np.searchsorted(ids, labels))


def predict(params: ParameterSet, table: ClassEmbeddingTable, x, restrict_to, temperature: float) -> np.ndarray:
    """Argmax class ids over the restricted set (no tape is recorded)."""
    ids = _check_restrict(table, restrict_to)
    return ids[np.argmax(_logits(params, table, x, ids, temperature).data, axis=1)]


# ---------------------------------------------------------------- persistence

def save_checkpoint(path, params: ParameterSet, table: ClassEmbeddingTable | None = None,
                    meta: dict | None = None) -> None:
    """Write parameters (and optionally the class table) bit-exactly as a tensor-record file."""
    records = [(p, t.data) for p, t in params.entries.items()]
    if table is not None:
        records.append(("class_table", table.vectors))
    header = {"candidates": params.candidate_paths(), "meta": meta or {}}
    write_records(path, CHECKPOINT_MAGIC, header, records)


def load_checkpoint(path) -> tuple[ParameterSet, ClassEmbeddingTable | None, dict]:
    """Inverse of save_checkpoint; rejects unknown versions, cut or corrupt files, records
    that do not form one encoder, and a class table it cannot score against."""
    header, records = read_records(path, CHECKPOINT_MAGIC, np.float64, {"candidates": list, "meta": dict})
    vectors = records.pop("class_table", None)
    params = ParameterSet()
    for name, value in records.items():
        params.add(name, value)
    try:
        encoder_shape(params)
        if header["candidates"] != params.candidate_paths():
            raise ValueError(f"candidates {header['candidates']} are not {params.candidate_paths()}")
        embed = params.entries["proj.weight"].shape[1]
        if vectors is not None and (vectors.ndim != 2 or vectors.shape[1] != embed or not vectors.any(axis=1).all()):
            raise ValueError(f"class_table of shape {vectors.shape} is not nonzero rows as wide as "
                             f"proj.weight's {embed} columns")   # nan and inf failed in read_records
        table = None if vectors is None else ClassEmbeddingTable(vectors)
    except ValueError as err:
        raise ValueError(f"{path}: malformed checkpoint ({err})") from None
    return params, table, header["meta"]
