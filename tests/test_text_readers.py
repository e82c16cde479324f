"""Mutation properties of the text readers: one cut or one changed byte either
loads or is a ConfigError that names the file, never a traceback."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dosapp import reporting
from dosapp.config import ConfigError, RunConfig, build_manifest, parse_config_file, read_manifest_config
from dosapp.harness import run_experiment

VALID_INI = b"""\
[run]
variant = plus_sparse
seeds = 0, 1
epochs = 4

[data]
tasks = 3
noise_sigma = 0.5

[model]
use_attention = false

[sparsity]
score_sample_cap = none

[ablate]
variants = dosapp finetune_no_ttl
momentum_grid = 0.9999:0.9999 0.8:0.9
"""


def mutants(data: bytes):
    """data cut short at any byte, or with one byte set to any value."""
    cut = st.integers(0, len(data) - 1).map(lambda n: data[:n])
    changed = st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)).map(
        lambda at: data[:at[0]] + bytes([at[1]]) + data[at[0] + 1:])
    return st.one_of(cut, changed)


def loads_or_names(path, read):
    try:
        read()
    except ConfigError as err:
        assert str(path) in str(err), err


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """The manifest, summary.csv and metrics.jsonl bytes of one small finished run."""
    cfg = RunConfig(tasks=2, samples_train=8, samples_ttl=12, samples_eval=6, epochs=1)
    run_dir = tmp_path_factory.mktemp("run")
    reporting.persist_run(run_dir, build_manifest(cfg, 0), run_experiment(cfg, 0))
    return {name: (run_dir / name).read_bytes() for name in ("manifest.json", "summary.csv", "metrics.jsonl")}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutant")


@settings(max_examples=150, deadline=None)
@seed(6)
@given(data=mutants(VALID_INI))
def test_a_mutated_config_file_loads_or_names_the_file(scratch, data):
    path = scratch / "cfg.ini"
    path.write_bytes(data)
    loads_or_names(path, lambda: parse_config_file(path))


def test_the_valid_config_file_loads(tmp_path):
    (tmp_path / "cfg.ini").write_bytes(VALID_INI)
    cfg, ablate = parse_config_file(tmp_path / "cfg.ini")
    assert cfg.variant == "plus_sparse" and ablate["momentum_grid"] == ((0.9999, 0.9999), (0.8, 0.9))


@settings(max_examples=150, deadline=None)
@seed(6)
@given(data=st.data())
def test_a_mutated_manifest_loads_or_names_the_file(scratch, run_files, data):
    path = scratch / "manifest.json"
    path.write_bytes(data.draw(mutants(run_files["manifest.json"])))
    loads_or_names(path, lambda: read_manifest_config(path))


def _run_dir_with(scratch, run_files, name, data):
    for other, text in run_files.items():
        (scratch / other).write_bytes(data if other == name else text)
    return scratch


@pytest.mark.parametrize("name", ["summary.csv", "metrics.jsonl"])
def test_the_valid_run_files_load(scratch, run_files, name):
    assert reporting.load_run(_run_dir_with(scratch, run_files, name, run_files[name])).seed == 0


@settings(max_examples=150, deadline=None)
@seed(6)
@given(data=st.data())
def test_a_mutated_summary_loads_or_names_the_file(scratch, run_files, data):
    mutant = data.draw(mutants(run_files["summary.csv"]))
    run_dir = _run_dir_with(scratch, run_files, "summary.csv", mutant)
    loads_or_names(run_dir / "summary.csv", lambda: reporting.load_run(run_dir))


def test_a_nul_byte_in_the_summary_loads_or_names_the_file(scratch, run_files):
    # csv refuses a NUL byte before Python 3.11 with a csv.Error, which is no ValueError
    nul = run_files["summary.csv"].replace(b"dosapp", b"dos\0app")
    run_dir = _run_dir_with(scratch, run_files, "summary.csv", nul)
    loads_or_names(run_dir / "summary.csv", lambda: reporting.load_run(run_dir))


@settings(max_examples=150, deadline=None)
@seed(6)
@given(data=st.data())
def test_a_mutated_metrics_file_loads_or_names_the_file(scratch, run_files, data):
    mutant = data.draw(mutants(run_files["metrics.jsonl"]))
    run_dir = _run_dir_with(scratch, run_files, "metrics.jsonl", mutant)
    loads_or_names(run_dir / "metrics.jsonl", lambda: reporting.load_run(run_dir))
