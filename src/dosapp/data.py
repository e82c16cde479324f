"""Synthetic class-incremental tasks and test-time streams.

Each class is a gaussian cloud around its own unit-norm mean direction.
Every class contributes three disjoint splits: a labeled training split, an
unlabeled adaptation pool, and a labeled holdout. Test-time streams are
built from the pools only and never carry labels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import IMBALANCE_MODES, STREAM_SCOPES
from .seeding import substream


@dataclass(frozen=True)
class SyntheticTaskSpec:
    total_classes: int = 20
    tasks: int = 5
    classes_per_task: int = 4
    samples_train: int = 32
    samples_ttl: int = 128
    samples_eval: int = 16
    input_dim: int = 64
    cluster_separation: float = 10.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.tasks * self.classes_per_task > self.total_classes:
            raise ValueError(
                f"{self.tasks} tasks x {self.classes_per_task} classes exceed "
                f"total_classes={self.total_classes}"
            )
        for name in ("samples_train", "samples_ttl", "samples_eval"):
            if getattr(self, name) < 1:
                raise ValueError(f"SyntheticTaskSpec.{name} too small to fill its split")
        if self.tasks < 1 or self.classes_per_task < 1 or self.input_dim < 1:
            raise ValueError("tasks, classes_per_task, input_dim must be positive")
        if self.noise_sigma < 0.0 or self.cluster_separation < 0.0:
            raise ValueError("noise_sigma and cluster_separation must be nonnegative")


@dataclass
class LabeledDataset:
    x: np.ndarray    # [n, input_dim]
    y: np.ndarray    # [n] int class ids
    ids: np.ndarray  # [n] global instance ids

    def __len__(self) -> int:
        return len(self.y)


@dataclass
class UnlabeledStream:
    """Feature-only stream; consumable exactly once per adaptation phase."""

    x: np.ndarray
    ids: np.ndarray
    consumed: bool = False

    def __len__(self) -> int:
        return len(self.ids)

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        if self.consumed:
            raise RuntimeError("stream already consumed: test-time adaptation is single-pass")
        self.consumed = True
        return self.x, self.ids


@dataclass
class TaskData:
    task_id: int
    class_ids: tuple[int, ...]
    train: LabeledDataset
    ttl_pool: dict[int, tuple[np.ndarray, np.ndarray]]  # class -> (x, ids); labels withheld downstream
    eval: LabeledDataset


@dataclass
class SessionSchedule:
    """Alternating supervised/adaptation sessions over a fixed task order."""

    tasks: list[TaskData]
    spec: SyntheticTaskSpec

    def seen_classes(self, upto: int) -> list[int]:
        out: list[int] = []
        for t in self.tasks[: upto + 1]:
            out.extend(t.class_ids)
        return sorted(out)


def generate_tasks(spec: SyntheticTaskSpec) -> SessionSchedule:
    """Draw all class clouds and split them; fully determined by spec.seed."""
    rng = substream(spec.seed, "data")
    n_classes = spec.tasks * spec.classes_per_task
    per_class = spec.samples_train + spec.samples_ttl + spec.samples_eval
    next_id = 0
    by_class: dict[int, tuple[np.ndarray, ...]] = {}
    for c in range(n_classes):
        mean = rng.standard_normal(spec.input_dim)
        mean /= np.linalg.norm(mean)
        samples = mean * spec.cluster_separation + rng.standard_normal(
            (per_class, spec.input_dim)) * spec.noise_sigma
        ids = np.arange(next_id, next_id + per_class, dtype=np.int64)
        next_id += per_class
        a, b = spec.samples_train, spec.samples_train + spec.samples_ttl
        by_class[c] = (samples[:a], ids[:a], samples[a:b], ids[a:b], samples[b:], ids[b:])

    tasks = []
    for t in range(spec.tasks):
        cls = tuple(range(t * spec.classes_per_task, (t + 1) * spec.classes_per_task))
        tr_x = np.concatenate([by_class[c][0] for c in cls])
        tr_y = np.concatenate([np.full(spec.samples_train, c, dtype=np.int64) for c in cls])
        tr_i = np.concatenate([by_class[c][1] for c in cls])
        ev_x = np.concatenate([by_class[c][4] for c in cls])
        ev_y = np.concatenate([np.full(spec.samples_eval, c, dtype=np.int64) for c in cls])
        ev_i = np.concatenate([by_class[c][5] for c in cls])
        pool = {c: (by_class[c][2], by_class[c][3]) for c in cls}
        tasks.append(TaskData(
            task_id=t,
            class_ids=cls,
            train=LabeledDataset(tr_x, tr_y, tr_i),
            ttl_pool=pool,
            eval=LabeledDataset(ev_x, ev_y, ev_i),
        ))
    return SessionSchedule(tasks=tasks, spec=spec)


def sample_imbalanced_ttl(class_ids, pool_sizes, alpha: float, rng: np.random.Generator
                          ) -> tuple[dict[int, int], np.ndarray]:
    """Symmetric-Dirichlet class proportions, rounded to per-class counts.

    Counts are capped by each class pool; zero counts are allowed. Returns
    (counts per class, the raw proportion vector).
    """
    if alpha <= 0.0:
        raise ValueError("dirichlet alpha must be positive")
    class_ids = list(class_ids)
    props = rng.dirichlet([alpha] * len(class_ids))
    total = int(sum(pool_sizes[c] for c in class_ids))
    counts = {}
    for c, p in zip(class_ids, props):
        counts[c] = min(int(round(p * total)), int(pool_sizes[c]))
    return counts, props


def build_ttl_stream(schedule: SessionSchedule, session: int, master_seed: int, scope: str = "seen",
                     imbalance_mode: str = "balanced", dirichlet_alpha: float | None = None
                     ) -> tuple[UnlabeledStream, dict[int, int]]:
    """Assemble the adaptation stream for one session, shuffled, labels dropped.

    scope "seen" mixes the pools of every task up to the session; "current"
    uses only the just-trained task. imbalance_mode "dirichlet" subsamples
    the classes with symmetric-Dirichlet proportions (dirichlet_alpha None
    means classes_per_task). Returns the stream plus its per-class
    composition (generator-side bookkeeping, not visible to the learner).
    """
    if scope not in STREAM_SCOPES:
        raise ValueError(f"unknown ttl stream scope '{scope}'")
    if imbalance_mode not in IMBALANCE_MODES:
        raise ValueError(f"unknown imbalance mode '{imbalance_mode}'")
    task_range = schedule.tasks[: session + 1] if scope == "seen" else [schedule.tasks[session]]
    pools: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for t in task_range:
        pools.update(t.ttl_pool)
    class_ids = sorted(pools)

    if imbalance_mode == "dirichlet":
        alpha = float(schedule.spec.classes_per_task) if dirichlet_alpha is None else dirichlet_alpha
        rng_d = substream(master_seed, "dirichlet", f"session{session}")
        counts, _ = sample_imbalanced_ttl(
            class_ids, {c: len(pools[c][1]) for c in class_ids}, alpha, rng_d)
    else:
        counts = {c: len(pools[c][1]) for c in class_ids}

    rng_s = substream(master_seed, "shuffle", f"ttl-session{session}")
    xs, ids = [], []
    for c in class_ids:
        px, pi = pools[c]
        k = counts[c]
        if k == 0:
            continue
        if k < len(pi):
            pick = rng_s.choice(len(pi), size=k, replace=False)
            pick.sort()
            xs.append(px[pick])
            ids.append(pi[pick])
        else:
            xs.append(px)
            ids.append(pi)
    if not xs:
        warnings.warn(f"session {session}: empty adaptation stream")
        return UnlabeledStream(np.zeros((0, schedule.spec.input_dim)), np.zeros(0, dtype=np.int64)), counts
    x = np.concatenate(xs)
    id_arr = np.concatenate(ids)
    order = rng_s.permutation(len(id_arr))
    return UnlabeledStream(x[order], id_arr[order]), counts


class ReplayBuffer:
    """Reservoir sample over every labeled example offered so far."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        self.capacity = capacity
        self.n_seen = 0
        self._x: list[np.ndarray] = []
        self._y: list[int] = []
        self._ids: list[int] = []
        self._rng = substream(seed, "shuffle", "replay-buffer")

    def __len__(self) -> int:
        return len(self._y)

    def add(self, x: np.ndarray, y: int, instance_id: int) -> None:
        if self.capacity == 0:
            return
        self.n_seen += 1
        if len(self._y) < self.capacity:
            self._x.append(np.array(x))
            self._y.append(int(y))
            self._ids.append(int(instance_id))
            return
        j = int(self._rng.integers(0, self.n_seen))
        if j < self.capacity:
            self._x[j] = np.array(x)
            self._y[j] = int(y)
            self._ids[j] = int(instance_id)

    def sample(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Up to k distinct stored items, uniformly without replacement."""
        if len(self._y) == 0 or k == 0:
            raise ValueError("sample from an empty buffer")
        take = min(k, len(self._y))
        idx = self._rng.choice(len(self._y), size=take, replace=False)
        x = np.stack([self._x[i] for i in idx])
        y = np.array([self._y[i] for i in idx], dtype=np.int64)
        ids = np.array([self._ids[i] for i in idx], dtype=np.int64)
        return x, y, ids
