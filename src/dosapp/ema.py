"""Teacher update as a per-coordinate convex blend of teacher and student.

Masked-in coordinates track the student with a low momentum (one value for
the supervised phase, a different one for the test-time phase); everything
else keeps a high momentum, so the teacher barely moves there. With both
momenta equal this collapses to the ordinary single-momentum EMA.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmaConfig:
    delta: float = 0.9999  # high momentum for unselected coordinates
    gamma: float = 0.8     # low momentum during supervised sessions
    lam: float = 0.9       # low momentum during test-time adaptation
    phase: str = "supervised"  # "supervised" | "ttl"

    def __post_init__(self):
        for name in ("delta", "gamma", "lam"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"EmaConfig.{name} must lie in (0, 1], got {v}")
        if self.phase not in ("supervised", "ttl"):
            raise ValueError(f"unknown EMA phase '{self.phase}'")
        if not (self.gamma < self.lam < self.delta):
            warnings.warn(
                f"momentum ordering gamma < lam < delta violated "
                f"({self.gamma}, {self.lam}, {self.delta}); proceeding anyway"
            )

    def low_momentum(self) -> float:
        return self.gamma if self.phase == "supervised" else self.lam


@dataclass
class SmoothingVectors:
    """Per-coordinate blend weights: teacher keeps p, student contributes q.

    Tensors carrying mask bits get elementwise vectors; every other tensor
    falls back to the scalar high-momentum pair.
    """

    p: dict[str, np.ndarray]
    q: dict[str, np.ndarray]
    p_default: float
    q_default: float


def compute_pq(mask, cfg: EmaConfig) -> SmoothingVectors:
    """Blend weights from a mask (None means no coordinate is selected).

    Selected coordinates get p = low momentum, the rest p = delta; q = 1 - p
    coordinatewise by construction of the affine form.
    """
    low = cfg.low_momentum()
    p: dict[str, np.ndarray] = {}
    q: dict[str, np.ndarray] = {}
    if mask is not None:
        for path, bits in mask.bits.items():
            m = bits.astype(np.float64)
            p[path] = (low - cfg.delta) * m + cfg.delta
            q[path] = (cfg.delta - low) * m + (1.0 - cfg.delta)
    return SmoothingVectors(p=p, q=q, p_default=cfg.delta, q_default=1.0 - cfg.delta)


def ema_update(teacher, student, sv: SmoothingVectors) -> None:
    """teacher <- p * teacher + q * student, elementwise over every tensor."""
    if teacher.entries.keys() != student.entries.keys():
        raise ValueError("ema_update: teacher and student have different parameter paths")
    for path, t in teacher.entries.items():
        s = student.entries[path]
        if t.data.shape != s.data.shape:
            raise ValueError(f"ema_update: shape mismatch at '{path}'")
        pv = sv.p.get(path)
        if pv is None:
            t.data[...] = sv.p_default * t.data + sv.q_default * s.data
        else:
            t.data[...] = pv * t.data + sv.q[path] * s.data
