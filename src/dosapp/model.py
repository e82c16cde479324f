"""Toy dual-encoder classifier.

A small transformer-style encoder maps an input vector (viewed as a short
token sequence) to a unit-norm embedding, which is scored against a fixed
table of unit-norm class embeddings by temperature-scaled cosine similarity.
Parameters are a plain dict from path to Tensor in init (or file) order. Only
the first MLP layer weight of each block is a candidate for sparse masked
updates; everything else stays frozen under masked training. A checkpoint
holds only tensors; its candidates and encoder shape follow from them.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .records import read_records, write_records
from .seeding import substream

CHECKPOINT_MAGIC = "dosapp-checkpoint"


Params = dict[str, Tensor]  # parameter path -> tensor, in init (or file) order


def candidate_paths(params: Params) -> list[str]:
    """The tensors a sparse mask may select from: each block's first MLP weight, in order."""
    return [p for p in params if p.endswith(".mlp.fc1.weight")]


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


def init_model(cfg: RunConfig, seed: int) -> Params:
    """Deterministic init: weights uniform in +-1/sqrt(fan-in), identity norms."""
    rng = substream(seed, "init")
    params: Params = {}
    for path, shape in _layout(cfg.token_dim, cfg.mlp_hidden_dim, cfg.block_count, cfg.use_attention,
                               cfg.token_count * cfg.token_dim, cfg.embed_dim).items():
        bound = 1.0 / math.sqrt(shape[0])
        value = (np.ones(shape) if path.endswith(".gain") else np.zeros(shape) if path.endswith(".bias")
                 else rng.uniform(-bound, bound, size=shape))
        params[path] = Tensor(value)
    return params


def encoder_shape(params: Params) -> tuple[int, int, int, bool]:
    """(token_dim, token_count, block_count, use_attention) of the encoder params holds.

    Read from block0.ln2.gain, block0.mlp.fc1.weight, proj.weight and the
    block names; a ValueError if the tensors do not form that one encoder.
    """
    shapes = {path: t.data.shape for path, t in params.items()}
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


def init_class_table(total_classes: int, embed_dim: int, seed: int) -> np.ndarray:
    """Fixed unit-norm class embeddings [total_classes, embed_dim], row c for class c, drawn from the
    data substream; frozen during training."""
    rng = substream(seed, "data", "class-table")
    v = rng.standard_normal((total_classes, embed_dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


# The parameters of each block's two residual branches, in the order the fused ops take them.
_ATTENTION = ("ln1.gain", "ln1.bias", "attn.q.weight", "attn.k.weight", "attn.v.weight", "attn.out.weight")
_MLP = ("ln2.gain", "ln2.bias", "mlp.fc1.weight", "mlp.fc1.bias", "mlp.fc2.weight", "mlp.fc2.bias")


def encode(params: Params, x) -> Tensor:
    """Embed a batch [batch, input_dim] into unit-norm rows [batch, embed_dim]."""
    d, token_count, blocks, attention = encoder_shape(params)
    x = ad._as_tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != token_count * d:
        raise ValueError(f"encode: want [batch, {token_count * d}], got {x.data.shape}")
    b = x.data.shape[0]
    tokens = ad.reshape(x, (b, token_count, d))
    for i in range(blocks):
        if attention:
            tokens = ad.attention_residual(tokens, *(params[f"block{i}.{name}"] for name in _ATTENTION))
        tokens = ad.mlp_residual(tokens, *(params[f"block{i}.{name}"] for name in _MLP))
    flat = ad.reshape(tokens, (b, token_count * d))
    return ad.normalize_rows(ad.matmul(flat, params["proj.weight"]))


def logits(params: Params, head: np.ndarray, x, temperature: float) -> Tensor:
    """Cosine(embedding, head row)/temperature: column c scores head row c, which is class c."""
    return ad.scale(ad.cosine_similarity_rows(encode(params, x), Tensor(head)), 1.0 / temperature)


def model_loss(params: Params, head: np.ndarray, x, labels, temperature: float) -> Tensor:
    """Cross-entropy over head's classes; a label is its logit column."""
    return ad.cross_entropy_from_logits(logits(params, head, x, temperature), labels)


def untaped_logits(params: Params, head: np.ndarray, x, temperature: float, where: str) -> np.ndarray:
    """logits(...).data of a forward no gradient is taken of; a non-finite logit raises
    FloatingPointError naming `where`, in place of numpy's warnings."""
    with np.errstate(all="ignore"):
        out = logits(params, head, x, temperature).data
    if not np.isfinite(out).all():
        raise FloatingPointError(f"non-finite logits in {where}")
    return out


def predict(params: Params, head: np.ndarray, x, temperature: float,
            where: str = "prediction") -> np.ndarray:
    """Argmax class over head's classes (no tape is recorded)."""
    return np.argmax(untaped_logits(params, head, x, temperature, where), axis=1)


# ---------------------------------------------------------------- persistence

def save_checkpoint(path, params: Params, table: np.ndarray | None = None) -> None:
    """Write parameters (and optionally the class table) bit-exactly as a tensor-record file."""
    records = [(p, t.data) for p, t in params.items()]
    if table is not None:
        records.append(("class_table", table))
    write_records(path, CHECKPOINT_MAGIC, records)


def load_checkpoint(path) -> tuple[Params, np.ndarray | None]:
    """Inverse of save_checkpoint; rejects unknown versions, cut or corrupt files, records
    that do not form one encoder, and a class table it cannot score against."""
    records = read_records(path, CHECKPOINT_MAGIC, np.float64)
    table = records.pop("class_table", None)
    params = {name: Tensor(value) for name, value in records.items()}
    try:
        encoder_shape(params)
        embed = params["proj.weight"].shape[1]
        if table is not None and (table.ndim != 2 or table.shape[1] != embed or not table.any(axis=1).all()):
            raise ValueError(f"class_table of shape {table.shape} is not nonzero rows as wide as "
                             f"proj.weight's {embed} columns")   # nan and inf failed in read_records
    except ValueError as err:
        raise ValueError(f"{path}: malformed checkpoint ({err})") from None
    return params, table
