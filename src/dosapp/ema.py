"""Teacher update as a per-coordinate convex blend of teacher and student.

Masked-in coordinates track the student with a low momentum (one value for
the supervised phase, a different one for the test-time phase); everything
else keeps a high momentum, so the teacher barely moves there. With both
momenta equal this collapses to the ordinary single-momentum EMA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def compute_pq(mask, low: float, delta: float) -> SmoothingVectors:
    """Blend weights from a mask (None means no coordinate is selected).

    Selected coordinates get p = low, the phase's low momentum; the rest get
    p = delta, the high momentum. q = 1 - p coordinatewise by construction of
    the affine form. Both momenta lie in (0, 1], as their [ema] keys do.
    """
    p: dict[str, np.ndarray] = {}
    q: dict[str, np.ndarray] = {}
    if mask is not None:
        for path, bits in mask.bits.items():
            m = bits.astype(np.float64)
            p[path] = (low - delta) * m + delta
            q[path] = (delta - low) * m + (1.0 - delta)
    return SmoothingVectors(p=p, q=q, p_default=delta, q_default=1.0 - delta)


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
