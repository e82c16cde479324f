"""Synthetic class-incremental tasks and test-time streams.

Each class is a gaussian cloud around its own unit-norm mean direction.
Every class contributes three disjoint splits: a labeled training split, an
unlabeled adaptation pool, and a labeled holdout. Test-time streams are
built from the pools only and never carry labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .seeding import substream


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

    def seen_classes(self, upto: int) -> list[int]:
        out: list[int] = []
        for t in self.tasks[: upto + 1]:
            out.extend(t.class_ids)
        return sorted(out)


def generate_tasks(cfg: RunConfig, seed: int) -> SessionSchedule:
    """Draw all class clouds and split them by cfg's [data] keys; fully determined by seed.

    Classes are drawn in id order and each draw is copied straight into its
    task's train, pool and holdout arrays; each class's pool is a view of
    its task's pool array.
    """
    rng = substream(seed, "data")
    k = cfg.classes_per_task
    sizes = (cfg.samples_train, cfg.samples_ttl, cfg.samples_eval)
    starts = (0, sizes[0], sizes[0] + sizes[1])
    tasks = []
    for t in range(cfg.tasks):
        labels = np.arange(t * k, (t + 1) * k, dtype=np.int64)
        xs = [np.empty((k * n, cfg.input_dim)) for n in sizes]
        for j in range(k):
            mean = rng.standard_normal(cfg.input_dim)
            mean /= np.linalg.norm(mean)
            samples = mean * cfg.cluster_separation + rng.standard_normal(
                (sum(sizes), cfg.input_dim)) * cfg.noise_sigma
            for x, n, lo in zip(xs, sizes, starts):
                x[j * n:(j + 1) * n] = samples[lo:lo + n]
        # class c owns ids [c * sum(sizes), (c + 1) * sum(sizes)), split in the same order
        ids = [(labels[:, None] * sum(sizes) + np.arange(lo, lo + n)).ravel() for n, lo in zip(sizes, starts)]
        n = cfg.samples_ttl
        tasks.append(TaskData(
            task_id=t,
            class_ids=tuple(labels.tolist()),
            train=LabeledDataset(xs[0], np.repeat(labels, sizes[0]), ids[0]),
            ttl_pool={c: (xs[1][j * n:(j + 1) * n], ids[1][j * n:(j + 1) * n])
                      for j, c in enumerate(labels.tolist())},
            eval=LabeledDataset(xs[2], np.repeat(labels, sizes[2]), ids[2]),
        ))
    return SessionSchedule(tasks=tasks)


def sample_imbalanced_ttl(class_ids, pool_sizes, alpha: float, rng: np.random.Generator
                          ) -> dict[int, int]:
    """Symmetric-Dirichlet class proportions, rounded to per-class counts.

    Counts are capped by each class pool; zero counts are allowed.
    """
    class_ids = list(class_ids)
    props = rng.dirichlet([alpha] * len(class_ids))
    total = int(sum(pool_sizes[c] for c in class_ids))
    counts = {}
    for c, p in zip(class_ids, props):
        counts[c] = min(int(round(p * total)), int(pool_sizes[c]))
    return counts


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
    current = schedule.tasks[session]
    task_range = schedule.tasks[: session + 1] if scope == "seen" else [current]
    pools: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for t in task_range:
        pools.update(t.ttl_pool)
    class_ids = sorted(pools)

    if imbalance_mode == "dirichlet":
        alpha = float(len(current.class_ids)) if dirichlet_alpha is None else dirichlet_alpha
        rng_d = substream(master_seed, "dirichlet", f"session{session}")
        counts = sample_imbalanced_ttl(
            class_ids, {c: len(pools[c][1]) for c in class_ids}, alpha, rng_d)
    else:
        counts = {c: len(pools[c][1]) for c in class_ids}

    rng_s = substream(master_seed, "shuffle", f"ttl-session{session}")
    picks = {}
    for c in class_ids:
        k, size = counts[c], len(pools[c][1])
        if 0 < k < size:
            picks[c] = rng_s.choice(size, size=k, replace=False)
            picks[c].sort()
        elif k:
            picks[c] = slice(None)
    # The stream is the picked rows concatenated in class order, then permuted
    # by `order`; each class's rows are scattered straight to their positions.
    n = sum(counts.values())
    order = rng_s.permutation(n)
    pos = np.empty_like(order)
    pos[order] = np.arange(n)
    x = np.empty((n, pools[class_ids[0]][0].shape[1]))
    ids = np.empty(n, dtype=np.int64)
    start = 0
    for c, pick in picks.items():
        px, pi = pools[c]
        dest = pos[start:start + counts[c]]
        x[dest] = px[pick]
        ids[dest] = pi[pick]
        start += counts[c]
    return UnlabeledStream(x, ids), counts


class ReplayBuffer:
    """Reservoir sample over every labeled example offered so far."""

    def __init__(self, capacity: int, seed: int = 0):
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
