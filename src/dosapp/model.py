"""Toy dual-encoder classifier.

A small transformer-style encoder maps an input vector (viewed as a short
token sequence) to a unit-norm embedding, which is scored against a fixed
table of unit-norm class embeddings by temperature-scaled cosine similarity.
Only the first MLP layer weight of each block is a candidate for sparse
masked updates; everything else stays frozen under masked training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .records import read_records, write_records
from .seeding import substream

CHECKPOINT_MAGIC = "dosapp-checkpoint"


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = 64
    token_count: int = 4
    token_dim: int = 16
    block_count: int = 2
    mlp_hidden_dim: int = 64
    embed_dim: int = 32
    use_attention: bool = True

    def __post_init__(self):
        for name in ("input_dim", "token_count", "token_dim", "block_count", "mlp_hidden_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"EncoderConfig.{name} must be positive")
        if self.token_count * self.token_dim != self.input_dim:
            raise ValueError(
                f"token_count*token_dim must equal input_dim "
                f"({self.token_count}*{self.token_dim} != {self.input_dim})"
            )


class ParameterSet:
    """Named float64 parameter tensors plus per-tensor candidate flags.

    Candidate tensors (the per-block first MLP weights) are the only ones a
    sparse mask may select from. Iteration order is construction order and
    is stable, which keeps every downstream loop deterministic.
    """

    def __init__(self, config: EncoderConfig):
        self.config = config
        self.entries: dict[str, Tensor] = {}
        self.candidate_flags: dict[str, bool] = {}

    def add(self, path: str, value: np.ndarray, candidate: bool = False) -> None:
        if path in self.entries:
            raise ValueError(f"duplicate parameter path '{path}'")
        self.entries[path] = Tensor(value)
        self.candidate_flags[path] = candidate

    def candidate_paths(self) -> list[str]:
        return [p for p, f in self.candidate_flags.items() if f]

    def zero_grads(self) -> None:
        for t in self.entries.values():
            t.grad = None

    def clone(self) -> "ParameterSet":
        out = ParameterSet(self.config)
        for path, t in self.entries.items():
            out.add(path, t.data.copy(), self.candidate_flags[path])
        return out


def init_model(cfg: EncoderConfig, seed: int) -> ParameterSet:
    """Deterministic init: scaled-uniform weights per fan-in, identity norms."""
    rng = substream(seed, "init")
    params = ParameterSet(cfg)
    d, h = cfg.token_dim, cfg.mlp_hidden_dim

    def uniform(shape, fan_in):
        s = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    for i in range(cfg.block_count):
        if cfg.use_attention:
            params.add(f"block{i}.ln1.gain", np.ones(d))
            params.add(f"block{i}.ln1.bias", np.zeros(d))
            for name in ("q", "k", "v", "out"):
                params.add(f"block{i}.attn.{name}.weight", uniform((d, d), d))
        params.add(f"block{i}.ln2.gain", np.ones(d))
        params.add(f"block{i}.ln2.bias", np.zeros(d))
        params.add(f"block{i}.mlp.fc1.weight", uniform((d, h), d), candidate=True)
        params.add(f"block{i}.mlp.fc1.bias", np.zeros(h))
        params.add(f"block{i}.mlp.fc2.weight", uniform((h, d), h))
        params.add(f"block{i}.mlp.fc2.bias", np.zeros(d))
    flat = cfg.token_count * d
    params.add("proj.weight", uniform((flat, cfg.embed_dim), flat))
    return params


@dataclass
class ClassEmbeddingTable:
    """Fixed unit-norm class embedding per class id; frozen during training."""

    vectors: np.ndarray  # [total_classes, embed_dim]
    active_classes: set[int] = field(default_factory=set)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError(f"class table must be 2-d, got {self.vectors.shape}")

    @property
    def total_classes(self) -> int:
        return self.vectors.shape[0]


def init_class_table(total_classes: int, embed_dim: int, seed: int) -> ClassEmbeddingTable:
    """Random unit-norm class embeddings, drawn from the data substream."""
    if total_classes < 1:
        raise ValueError("total_classes must be positive")
    rng = substream(seed, "data", "class-table")
    v = rng.standard_normal((total_classes, embed_dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return ClassEmbeddingTable(v)


def encode(params: ParameterSet, x) -> Tensor:
    """Embed a batch [batch, input_dim] into unit-norm rows [batch, embed_dim]."""
    cfg = params.config
    x = ad._as_tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != cfg.input_dim:
        raise ValueError(f"encode: want [batch, {cfg.input_dim}], got {x.data.shape}")
    b = x.data.shape[0]
    e = params.entries
    d = cfg.token_dim
    tokens = ad.reshape(x, (b, cfg.token_count, d))
    for i in range(cfg.block_count):
        if cfg.use_attention:
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
    flat = ad.reshape(tokens, (b, cfg.token_count * d))
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
    cfg_dict = {f: getattr(params.config, f) for f in params.config.__dataclass_fields__}
    full_meta = dict(meta or {})
    records = [(p, t.data) for p, t in params.entries.items()]
    if table is not None:
        full_meta["active_classes"] = sorted(int(c) for c in table.active_classes)
        records.append(("class_table", table.vectors))
    header = {"candidates": params.candidate_paths(), "config": cfg_dict, "meta": full_meta}
    write_records(path, CHECKPOINT_MAGIC, header, records)


def load_checkpoint(path) -> tuple[ParameterSet, ClassEmbeddingTable | None, dict]:
    """Inverse of save_checkpoint; rejects unknown versions and cut or corrupt files."""
    header, records = read_records(path, CHECKPOINT_MAGIC, np.float64,
                                   {"candidates": list, "config": dict, "meta": dict})
    names = [name for name in records if name != "class_table"]
    meta = header["meta"]
    try:
        cfg = EncoderConfig(**header["config"])
        unknown = [c for c in header["candidates"] if c not in names]
        if unknown:
            raise ValueError(f"candidate {unknown[0]!r} names no tensor")
        active = set(meta.get("active_classes", []))
        if not all(type(c) is int for c in active):
            raise ValueError("active_classes is not a list of class ids")
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed checkpoint header ({err})") from None
    params = ParameterSet(cfg)
    for name in names:
        params.add(name, records[name], name in header["candidates"])
    table = ClassEmbeddingTable(records["class_table"], active) if "class_table" in records else None
    return params, table, meta
