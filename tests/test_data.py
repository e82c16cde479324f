"""Synthetic class-incremental data: splits, streams, imbalance, replay."""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dosapp.data as dd
from dosapp.config import RunConfig
from dosapp.seeding import substream


def small_cfg(**kw):
    base = dict(total_classes=8, tasks=2, classes_per_task=4, samples_train=6,
                samples_ttl=10, samples_eval=4, input_dim=12)
    base.update(kw)
    return RunConfig(**base)


def all_ids(task: dd.TaskData):
    out = [task.train.ids, task.eval.ids]
    out += [ids for _, ids in task.ttl_pool.values()]
    return np.concatenate(out)


# ------------------------------------------------------------ generation

def test_generation_is_deterministic_and_seed_sensitive():
    a = dd.generate_tasks(small_cfg(), 0)
    b = dd.generate_tasks(small_cfg(), 0)
    c = dd.generate_tasks(small_cfg(), 1)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.train.x, tb.train.x)
        assert np.array_equal(ta.eval.y, tb.eval.y)
        for cls in ta.ttl_pool:
            assert np.array_equal(ta.ttl_pool[cls][0], tb.ttl_pool[cls][0])
    assert not np.array_equal(a[0].train.x, c[0].train.x)


def test_split_sizes_and_disjoint_instance_ids():
    cfg = small_cfg()
    tasks = dd.generate_tasks(cfg, 0)
    assert len(tasks) == cfg.tasks
    seen = set()
    for task in tasks:
        assert len(task.train) == cfg.classes_per_task * cfg.samples_train
        assert len(task.eval) == cfg.classes_per_task * cfg.samples_eval
        assert set(task.ttl_pool) == set(task.class_ids)
        for _, ids in task.ttl_pool.values():
            assert len(ids) == cfg.samples_ttl
        ids = all_ids(task)
        assert len(set(ids.tolist())) == len(ids)  # unique within the task
        assert not (set(ids.tolist()) & seen)      # and across tasks
        seen.update(ids.tolist())


def test_task_class_sets_are_disjoint_and_ordered():
    # task t holds the ids t*k..(t+1)*k-1, so the classes seen by session t are the first (t+1)*k
    tasks = dd.generate_tasks(small_cfg(), 0)
    assert [task.class_ids for task in tasks] == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_adaptation_pool_is_feature_only():
    tasks = dd.generate_tasks(small_cfg(), 0)
    for task in tasks:
        for x, ids in task.ttl_pool.values():
            assert x.ndim == 2 and ids.ndim == 1
            assert ids.dtype == np.int64


def test_clusters_are_separable_when_noise_is_small():
    # wide separation, tiny noise: nearest train centroid should nail eval
    cfg = small_cfg(cluster_separation=10.0, noise_sigma=0.01,
                    samples_train=16, samples_eval=8)
    tasks = dd.generate_tasks(cfg, 0)
    hits = total = 0
    centroids, labels = [], []
    for task in tasks:
        for c in task.class_ids:
            centroids.append(task.train.x[task.train.y == c].mean(axis=0))
            labels.append(c)
    centroids = np.stack(centroids)
    for task in tasks:
        d = np.linalg.norm(task.eval.x[:, None, :] - centroids[None], axis=2)
        pred = np.array(labels)[np.argmin(d, axis=1)]
        hits += int((pred == task.eval.y).sum())
        total += len(task.eval)
    assert hits / total >= 0.99


# ------------------------------------------------------------ imbalance

def test_dirichlet_proportions_sum_to_one():
    # the counts are one Dirichlet draw from the generator's state, rounded and capped by the pool
    rng, ref = np.random.default_rng(0), np.random.default_rng(0)
    for _ in range(50):
        counts = dd.sample_imbalanced_ttl([0, 1, 2, 3], {c: 100 for c in range(4)}, alpha=0.5, rng=rng)
        props = ref.dirichlet([0.5] * 4)
        assert abs(props.sum() - 1.0) <= 1e-12
        assert counts == {c: min(int(round(p * 400)), 100) for c, p in enumerate(props)}


def test_large_alpha_is_near_uniform_small_alpha_is_skewed():
    rng = np.random.default_rng(1)
    counts = dd.sample_imbalanced_ttl([0, 1, 2, 3], {c: 100 for c in range(4)}, alpha=1e6, rng=rng)
    assert min(counts.values()) >= 96  # every share within 0.01 of 0.25, capped at the pool

    starved = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        counts = dd.sample_imbalanced_ttl(list(range(5)), {c: 100 for c in range(5)},
                                          alpha=0.1, rng=rng)
        if min(counts.values()) < 25:  # a share below 0.05 of the 500 samples
            starved += 1
    assert starved >= 80  # low alpha concentrates mass on few classes


# ------------------------------------------------------------ stream assembly

def test_stream_scope_and_length():
    cfg = small_cfg()
    tasks = dd.generate_tasks(cfg, 0)
    cur, comp_cur = dd.build_ttl_stream(tasks, 1, master_seed=0, scope="current")
    seen, comp_seen = dd.build_ttl_stream(tasks, 1, master_seed=0, scope="seen")
    assert len(cur) == cfg.classes_per_task * cfg.samples_ttl
    assert len(seen) == 2 * cfg.classes_per_task * cfg.samples_ttl
    assert set(comp_cur) == {4, 5, 6, 7}
    assert set(comp_seen) == {0, 1, 2, 3, 4, 5, 6, 7}
    assert sum(comp_seen.values()) == len(seen)


def test_stream_is_shuffled_and_deterministic():
    tasks = dd.generate_tasks(small_cfg(), 0)
    s1, _ = dd.build_ttl_stream(tasks, 1, master_seed=7)
    s2, _ = dd.build_ttl_stream(tasks, 1, master_seed=7)
    s3, _ = dd.build_ttl_stream(tasks, 1, master_seed=8)
    assert np.array_equal(s1.ids, s2.ids) and np.array_equal(s1.x, s2.x)
    assert not np.array_equal(s1.ids, s3.ids)
    assert not np.array_equal(s1.ids, np.sort(s1.ids))  # actually shuffled


def test_stream_ids_come_from_the_right_pools():
    tasks = dd.generate_tasks(small_cfg(), 0)
    stream, _ = dd.build_ttl_stream(tasks, 1, master_seed=0, scope="seen")
    pool_ids = set()
    for task in tasks[:2]:
        for _, ids in task.ttl_pool.values():
            pool_ids.update(ids.tolist())
    got = stream.ids.tolist()
    assert set(got) <= pool_ids
    assert len(set(got)) == len(got)


def test_dirichlet_alpha_none_means_classes_per_task():
    cfg = small_cfg()
    tasks = dd.generate_tasks(cfg, 0)

    def stream(alpha):
        return dd.build_ttl_stream(tasks, 1, master_seed=3, imbalance_mode="dirichlet",
                                   dirichlet_alpha=alpha)

    default, comp = stream(None)
    explicit, comp_explicit = stream(float(cfg.classes_per_task))
    assert comp == comp_explicit
    assert default.x.tobytes() == explicit.x.tobytes()
    assert default.ids.tobytes() == explicit.ids.tobytes()
    assert stream(0.3)[1] != comp  # the composition does depend on alpha


def test_dirichlet_stream_respects_composition():
    cfg = small_cfg()
    tasks = dd.generate_tasks(cfg, 0)
    stream, comp = dd.build_ttl_stream(tasks, 1, master_seed=3, scope="seen",
                                       imbalance_mode="dirichlet", dirichlet_alpha=0.3)
    assert sum(comp.values()) == len(stream)
    assert all(v <= cfg.samples_ttl for v in comp.values())
    # label the stream from the generator's own pools to verify the counts
    id_to_class = {}
    for task in tasks:
        for c, (_, ids) in task.ttl_pool.items():
            for i in ids.tolist():
                id_to_class[i] = c
    realized: dict[int, int] = {}
    for i in stream.ids.tolist():
        realized[id_to_class[i]] = realized.get(id_to_class[i], 0) + 1
    assert realized == {c: n for c, n in comp.items() if n > 0}


# ------------------------------------------------------------ one copy of each array

def _concatenated_splits(cfg, seed):
    """Per task: train, pool and holdout (x, y, ids), drawn class by class and then concatenated."""
    rng = substream(seed, "data")
    sizes = (cfg.samples_train, cfg.samples_ttl, cfg.samples_eval)
    draws = []
    for c in range(cfg.tasks * cfg.classes_per_task):
        mean = rng.standard_normal(cfg.input_dim)
        mean /= np.linalg.norm(mean)
        draws.append(mean * cfg.cluster_separation
                     + rng.standard_normal((sum(sizes), cfg.input_dim)) * cfg.noise_sigma)
    out = []
    for t in range(cfg.tasks):
        cls = range(t * cfg.classes_per_task, (t + 1) * cfg.classes_per_task)
        splits = []
        for k, n in enumerate(sizes):
            lo = sum(sizes[:k])
            splits.append((np.concatenate([draws[c][lo:lo + n] for c in cls]),
                           np.concatenate([np.full(n, c, dtype=np.int64) for c in cls]),
                           np.concatenate([np.arange(c * sum(sizes) + lo, c * sum(sizes) + lo + n)
                                           for c in cls])))
        out.append(splits)
    return out


def _concatenated_stream(tasks, session, master_seed, scope, imbalance_mode, dirichlet_alpha):
    """The stream as its parts concatenated in class order, then a permuted copy of that."""
    used = tasks[: session + 1] if scope == "seen" else [tasks[session]]
    pools = {c: pool for t in used for c, pool in t.ttl_pool.items()}
    class_ids = sorted(pools)
    counts = {c: len(pools[c][1]) for c in class_ids}
    if imbalance_mode == "dirichlet":
        alpha = (float(len(tasks[session].class_ids)) if dirichlet_alpha is None
                 else dirichlet_alpha)
        counts = dd.sample_imbalanced_ttl(class_ids, counts, alpha,
                                          substream(master_seed, "dirichlet", f"session{session}"))
    rng = substream(master_seed, "shuffle", f"ttl-session{session}")
    xs, ids = [], []
    for c in class_ids:
        px, pi = pools[c]
        pick = np.arange(len(pi))
        if 0 < counts[c] < len(pi):
            pick = np.sort(rng.choice(len(pi), size=counts[c], replace=False))
        if counts[c]:
            xs.append(px[pick])
            ids.append(pi[pick])
    x, id_arr = np.concatenate(xs), np.concatenate(ids)
    order = rng.permutation(len(id_arr))
    return x[order], id_arr[order], counts


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("workload", ["adapt_default", "supervised_wide", "ablate_sweep"])
def test_splits_and_streams_match_the_concatenate_then_permute_construction(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    cfg = workloads.resolve_config(workload)
    for seed in (0, 1, 2):
        tasks = dd.generate_tasks(cfg, seed)
        for task, (train, pool, holdout) in zip(tasks, _concatenated_splits(cfg, seed)):
            for got, want in ((task.train, train), (task.eval, holdout)):
                assert all(map(_same_bytes, (got.x, got.y, got.ids), want))
            assert _same_bytes(np.concatenate([x for x, _ in task.ttl_pool.values()]), pool[0])
            assert _same_bytes(np.concatenate([i for _, i in task.ttl_pool.values()]), pool[2])
            bases = {id(x.base) for x, _ in task.ttl_pool.values()}   # views of one pool array
            assert len(bases) == 1 and next(iter(task.ttl_pool.values()))[0].base.shape == pool[0].shape
        for session, scope, (mode, alpha) in itertools.product(
                range(cfg.tasks), ("seen", "current"),
                (("balanced", None), ("dirichlet", None), ("dirichlet", 0.3))):
            stream, counts = dd.build_ttl_stream(tasks, session, seed, scope, mode, alpha)
            x, ids, want_counts = _concatenated_stream(tasks, session, seed, scope, mode, alpha)
            assert counts == want_counts
            assert _same_bytes(stream.x, x) and _same_bytes(stream.ids, ids), (seed, session, scope, mode)


@pytest.mark.parametrize("mode, alpha", [("balanced", None), ("dirichlet", None), ("dirichlet", 0.3)])
@pytest.mark.parametrize("scope", ["seen", "current"])
def test_build_ttl_stream_holds_one_copy_of_the_stream(scope, mode, alpha):
    cfg = RunConfig()
    tasks = dd.generate_tasks(cfg, 0)
    last = cfg.tasks - 1
    dd.build_ttl_stream(tasks, last, 0, scope, mode, alpha)  # first-call costs stay out
    tracemalloc.start()
    try:
        stream, _ = dd.build_ttl_stream(tasks, last, 0, scope, mode, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # slack: the permutation and its inverse (two more id-sized arrays, and
    # one while the inverse is made), one class's picked rows, and 16 KB
    slack = 3 * stream.ids.nbytes + cfg.samples_ttl * cfg.input_dim * 8 + (16 << 10)
    assert peak <= stream.x.nbytes + stream.ids.nbytes + slack


# ------------------------------------------------------------ replay buffer

def test_buffer_keeps_everything_until_capacity():
    buf = dd.ReplayBuffer(capacity=10, seed=0)
    for i in range(10):
        buf.add(np.full(3, float(i)), y=i % 2, instance_id=i)
    assert len(buf) == 10
    x, y, ids = buf.sample(10)
    assert sorted(ids.tolist()) == list(range(10))


def test_buffer_never_exceeds_capacity_and_samples_without_replacement():
    buf = dd.ReplayBuffer(capacity=5, seed=1)
    for i in range(200):
        buf.add(np.full(2, float(i)), y=0, instance_id=i)
        assert len(buf) <= 5
    assert len(buf) == 5 and buf.n_offered == 200
    x, y, ids = buf.sample(3)
    assert len(set(ids.tolist())) == 3
    x2, _, ids2 = buf.sample(50)  # capped at what's stored
    assert len(ids2) == 5 and len(set(ids2.tolist())) == 5


def test_zero_capacity_buffer_is_inert():
    buf = dd.ReplayBuffer(capacity=0, seed=0)
    for i in range(20):
        buf.add(np.zeros(2), y=0, instance_id=i)
    assert len(buf) == 0 and buf.n_offered == 0
    with pytest.raises(ValueError, match="empty"):
        buf.sample(1)


def test_reservoir_is_unbiased_enough():
    # every offered item should land in the reservoir with similar frequency
    hits = np.zeros(30)
    for seed in range(300):
        buf = dd.ReplayBuffer(capacity=10, seed=seed)
        for i in range(30):
            buf.add(np.zeros(1), y=0, instance_id=i)
        _, _, ids = buf.sample(10)
        hits[ids] += 1
    rates = hits / 300
    assert abs(rates.mean() - 1 / 3) < 0.02
    assert rates.min() > 0.2 and rates.max() < 0.5
