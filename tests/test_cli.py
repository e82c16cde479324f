"""End-to-end CLI: artifacts, reproducibility, error codes, reports."""

import csv
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dosapp.masking as mk
import dosapp.model as dm
import dosapp.reporting as rp
from dosapp.cli import main
from dosapp.config import ConfigError, RunConfig, apply_overrides, build_manifest
from dosapp.harness import run_experiment
from dosapp.reporting import load_run, persist_run


TINY = [
    "data.total_classes=8", "data.tasks=2", "data.classes_per_task=4",
    "data.samples_train=8", "data.samples_ttl=12", "data.samples_eval=6",
    "data.input_dim=16", "model.token_count=2", "model.token_dim=8",
    "model.block_count=2", "model.mlp_hidden_dim=12", "model.embed_dim=8",
    "run.epochs=3", "run.batch_size=16", "ttl.batch_size=16",
    "optimizer.learning_rate=0.05",
]


def tiny_args(*extra):
    out = []
    for item in (*TINY, *extra):
        out += ["--override", item]
    return out


def run_cli(tmp_path, *extra, variant="dosapp", seeds="0"):
    out = tmp_path / "runs"
    rc = main(["run", "--variant", variant, "--seeds", seeds, "--out", str(out),
               *tiny_args(*extra)])
    assert rc == 0
    return out


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


# ------------------------------------------------------------ run

def test_run_writes_the_full_artifact_set(tmp_path, capsys):
    out = run_cli(tmp_path)
    d = out / "dosapp" / "seed0"
    for name in ("manifest.json", "metrics.jsonl", "R_postttl.csv", "R_postsup.csv",
                 "summary.csv", "student.ckpt", "teacher.ckpt"):
        assert (d / name).exists(), name
    # masks only: the scores they were selected from are never written
    assert sorted(p.name for p in (d / "masks").iterdir()) == ["task0.mask", "task1.mask", "ttl_final.mask"]
    stdout = capsys.readouterr().out
    assert "dosapp seed=0: avg_acc=" in stdout and "forgetting=" in stdout

    r_lines = (d / "R_postttl.csv").read_text().splitlines()
    assert r_lines[0] == "session,task0,task1"
    assert len(r_lines) == 3
    assert r_lines[1].endswith(",")  # future task above the diagonal stays empty


def test_same_invocation_twice_is_byte_identical(tmp_path):
    a = run_cli(tmp_path / "a")
    b = run_cli(tmp_path / "b")
    for name in ("R_postttl.csv", "R_postsup.csv", "summary.csv", "metrics.jsonl"):
        fa = (a / "dosapp" / "seed0" / name).read_bytes()
        fb = (b / "dosapp" / "seed0" / name).read_bytes()
        assert fa == fb, name


def test_manifest_reruns_byte_identically(tmp_path):
    first = run_cli(tmp_path / "a") / "dosapp" / "seed0"
    out2 = tmp_path / "b"
    rc = main(["run", "--config", str(first / "manifest.json"), "--out", str(out2)])
    assert rc == 0
    second = out2 / "dosapp" / "seed0"
    for name in ("R_postttl.csv", "R_postsup.csv", "summary.csv", "metrics.jsonl",
                 "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_override_is_recorded_and_effective(tmp_path):
    out = run_cli(tmp_path, "ema.gamma=0.7")
    manifest = json.loads((out / "dosapp" / "seed0" / "manifest.json").read_text())
    assert manifest["config"]["ema"]["gamma"] == 0.7
    assert manifest["seed"] == 0
    base = run_cli(tmp_path / "base")
    assert ((out / "dosapp" / "seed0" / "summary.csv").read_bytes()
            != (base / "dosapp" / "seed0" / "summary.csv").read_bytes())


def test_multi_seed_run_produces_one_directory_per_seed(tmp_path):
    out = run_cli(tmp_path, seeds="0,1")
    assert (out / "dosapp" / "seed0" / "summary.csv").exists()
    assert (out / "dosapp" / "seed1" / "summary.csv").exists()


def test_finetune_variant_writes_no_adaptation_artifacts(tmp_path):
    out = run_cli(tmp_path, variant="finetune_no_ttl")
    d = out / "finetune_no_ttl" / "seed0"
    assert not (d / "teacher.ckpt").exists()
    assert not (d / "masks").exists()
    rows = read_jsonl(d / "metrics.jsonl")
    assert not any(r["type"] == "ttl_batch" for r in rows)
    assert any(r["type"] == "summary" for r in rows)


def _files(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def test_a_rerun_leaves_only_its_own_files_and_the_users(tmp_path):
    # a 3-task run, then the same directory rerun with 2 tasks, then a run with
    # no teacher and no masks: nothing of an earlier run may survive beside the
    # new manifest, and a file the writer never writes must stay
    d = run_cli(tmp_path, "data.total_classes=12", "data.tasks=3") / "dosapp" / "seed0"
    (d / "notes.txt").write_text("mine\n")
    (d / "masks" / "notes.txt").write_text("mine too\n")
    run_cli(tmp_path, "data.total_classes=12")
    fresh = run_cli(tmp_path / "fresh", "data.total_classes=12") / "dosapp" / "seed0"
    assert _files(d) == sorted([*_files(fresh), "notes.txt", "masks/notes.txt"])
    for name in _files(fresh):
        assert (d / name).read_bytes() == (fresh / name).read_bytes(), name

    (d / "masks" / "notes.txt").unlink()
    cfg = apply_overrides(RunConfig(), [*TINY, "run.variant=finetune_no_ttl"])
    persist_run(d, build_manifest(cfg, 0), run_experiment(cfg, 0))
    assert _files(d) == ["R_postsup.csv", "R_postttl.csv", "manifest.json", "metrics.jsonl",
                         "notes.txt", "student.ckpt", "summary.csv"]
    assert not (d / "masks").exists()


def test_a_rerun_removes_the_scores_files_of_an_older_version(tmp_path):
    # versions that wrote masks/task<i>.scores beside each mask leave them in the run directory
    d = run_cli(tmp_path) / "dosapp" / "seed0"
    before = _files(d)
    (d / "masks" / "task0.scores").write_text("dosapp-scores v4 {}\n")
    run_cli(tmp_path)
    assert not (d / "masks" / "task0.scores").exists()
    assert _files(d) == before


class Interrupted(Exception):
    pass


# every function persist_run writes a file with
WRITERS = [(rp, "write_manifest"), (rp, "write_metrics_jsonl"), (rp, "write_r_matrix_csv"),
           (rp, "write_summary_csv"), (dm, "save_checkpoint"), (mk, "save_mask")]


def test_a_rerun_cut_off_at_any_write_leaves_one_run_or_none(tmp_path, monkeypatch):
    # a rerun with other epochs is cut off before each of its writes in turn; load_run must
    # then reject the directory naming the file, or read one whole run, never a mix of two
    cfgs = {"old": apply_overrides(RunConfig(), [*TINY, "run.epochs=1"]),
            "new": apply_overrides(RunConfig(), TINY)}
    results = {name: run_experiment(cfg, 0) for name, cfg in cfgs.items()}
    whole = {}
    for name, cfg in cfgs.items():
        persist_run(tmp_path / name, build_manifest(cfg, 0), results[name])
        whole[name] = {f: (tmp_path / name / f).read_bytes() for f in _files(tmp_path / name)}
    calls = []

    def cut_at(n, write):
        def cut(*args):
            calls.append(write)
            if len(calls) == n:
                raise Interrupted(n)
            return write(*args)
        return cut

    for n in itertools.count(1):
        d = shutil.copytree(tmp_path / "old", tmp_path / f"cut{n}")
        calls.clear()
        with monkeypatch.context() as patch:
            for module, name in WRITERS:
                patch.setattr(module, name, cut_at(n, getattr(module, name)))
            try:
                persist_run(d, build_manifest(cfgs["new"], 0), results["new"])
            except Interrupted:
                pass
        try:
            load_run(d)
        except (ConfigError, OSError) as err:
            assert len(calls) == n and str(d / "manifest.json") in str(err)
        else:
            assert {f: (d / f).read_bytes() for f in _files(d)} in (whole["old"], whole["new"])
        if len(calls) < n:  # the rerun was not cut off: it is whole
            assert {f: (d / f).read_bytes() for f in _files(d)} == whole["new"]
            break
    assert len(calls) == 10  # 4 text files, 2 checkpoints, 3 mask files, the manifest


# ------------------------------------------------------------ error paths

def test_unknown_config_key_exits_2_and_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nbogus_key = 1\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "[run] bogus_key" in err


def test_bad_override_exits_2(tmp_path, capsys):
    rc = main(["run", "--override", "no_dots", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "section.key=value" in capsys.readouterr().err


@pytest.mark.parametrize("args, key", [
    (["--override", "run.seeds="], "[run] seeds"),
    (["--seeds", ""], "[run] seeds"),
    (["--override", "ttl.stream_scope=bogus"], "[ttl] stream_scope"),
    (["--override", "ttl.imbalance=bogus"], "[ttl] imbalance"),
    (["--override", "optimizer.kind=bogus"], "[optimizer] kind"),
    (["--override", "sparsity.c=0"], "[sparsity] c"),
    (["--override", "ema.gamma=2"], "[ema] gamma"),
    (["--override", "ema.lambda=0"], "[ema] lambda"),
    (["--override", "ema.delta=1.5"], "[ema] delta"),
    (["--override", "run.batch_size=0"], "[run] batch_size"),
    (["--override", "ttl.batch_size=0"], "[ttl] batch_size"),
    (["--override", "model.temperature=0"], "[model] temperature"),
    (["--override", "model.token_dim=0"], "[model] token_dim"),
    (["--override", "replay.capacity=-5"], "[replay] capacity"),
    (["--override", "run.epochs=0"], "[run] epochs"),
    (["--override", "ttl.imbalance=dirichlet", "--override", "ttl.dirichlet_alpha=-1"],
     "[ttl] dirichlet_alpha"),
    (["--override", "sparsity.score_sample_cap=0"], "[sparsity] score_sample_cap"),
    (["--override", "data.noise_sigma=-1"], "[data] noise_sigma"),
    (["--override", "optimizer.beta1=1.5"], "[optimizer] beta1"),
    (["--override", "optimizer.learning_rate=0"], "[optimizer] learning_rate"),
    (["--override", "data.tasks=3"], "[data] total_classes"),
    (["--override", "model.token_dim=4"], "[data] input_dim"),
    (["--override", "ttl.imbalance=dirichlet", "--override", "ttl.dirichlet_alpha=inf"],
     "[ttl] dirichlet_alpha"),
    (["--override", "optimizer.learning_rate=inf"], "[optimizer] learning_rate"),
    (["--override", "model.temperature=inf"], "[model] temperature"),
    (["--override", "data.noise_sigma=inf"], "[data] noise_sigma"),
])
def test_bad_value_exits_2_before_any_run(tmp_path, capsys, args, key):
    out = tmp_path / "out"
    rc = main(["run", "--out", str(out), *tiny_args(), *args])  # args last: the later override wins
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("ema", "gamma", 2.0), ("run", "batch_size", 0), ("model", "temperature", 0.0),
    ("run", "epochs", 0), ("data", "tasks", 3), ("optimizer", "learning_rate", float("inf")),
    ("ttl", "dirichlet_alpha", float("inf")),
])
def test_bad_manifest_value_exits_2_before_any_run(tmp_path, capsys, section, key, value):
    cfg = apply_overrides(RunConfig(), TINY)
    manifest = build_manifest(cfg, seed=0)
    manifest["config"][section][key] = value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and f"[{section}] {key}" in err and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("item, key", [
    ("ablate.variants=finetune_no_ttl", "[ablate] variants"),
    ("ablate.momentum_grid=0.8:0.9", "[ablate] momentum_grid"),
])
def test_ablate_override_exits_2_before_any_run(tmp_path, capsys, item, key):
    # [ablate] keys are read from a config file only; an override must not be dropped
    out = tmp_path / "out"
    rc = main(["ablate", "--seeds", "0", "--out", str(out), *tiny_args(item)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and key in err
    assert "read from a config file only" in err
    assert not out.exists()


def test_a_file_and_an_override_may_meet_a_cross_key_rule_together(tmp_path, capsys):
    # the file alone breaks token_count x token_dim = input_dim; the override mends it
    ini = tmp_path / "wide.ini"
    ini.write_text("[model]\ntoken_dim = 16\n")
    kept = [o for o in TINY if not o.startswith(("model.token_dim=", "data.input_dim="))]
    args = [arg for item in (*kept, "data.input_dim=32") for arg in ("--override", item)]
    out = tmp_path / "out"
    rc = main(["run", "--config", str(ini), "--seeds", "0", "--out", str(out), *args])
    assert rc == 0
    manifest = json.loads((out / "dosapp" / "seed0" / "manifest.json").read_text())
    assert (manifest["config"]["model"]["token_dim"], manifest["config"]["data"]["input_dim"]) == (16, 32)


def test_unknown_variant_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--variant", "dosapp_v9", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dosapp_v9" in err and "[run] variant" in err
    assert not out.exists()


@pytest.mark.parametrize("ablate, key", [
    ("variants = dosapp dosapp_v9", "[ablate] variants"),
    ("momentum_grid = 1.5:0.9", "[ablate] momentum_grid"),
])
def test_bad_ablate_value_exits_2_before_any_run(tmp_path, capsys, ablate, key):
    cfg = tmp_path / "ablate.ini"
    cfg.write_text(f"[ablate]\n{ablate}\n")
    out = tmp_path / "out"
    rc = main(["ablate", "--config", str(cfg), "--seeds", "0", "--out", str(out), *tiny_args()])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and key in err
    assert not out.exists()


# complete and well-formed but for one value, so only config_from_manifest rejects it
BAD_GAMMA_MANIFEST = json.dumps(build_manifest(RunConfig(), seed=0)).replace('"gamma": 0.8', '"gamma": 7') + "\n"

MALFORMED_CONFIG_FILES = {
    "no_section.ini": "epochs = 3\n",
    "repeated_section.ini": "[run]\nepochs = 3\n[run]\nbatch_size = 8\n",
    "repeated_key.ini": "[run]\nepochs = 3\nepochs = 4\n",
    "not_json.json": '{"config": {"run": {"epochs": 3}}\n',
    "unknown_empty_section.ini": "[bogus]\n",
    "bad_value.ini": "[optimizer]\nlearning_rate = 0.0x\n",
    "unknown_key.ini": "[run]\nbogus_key = 1\n",
    "bad_ablate_value.ini": "[ablate]\nvariants = dosapp nope\n",
    "json_list.json": "[1, 2]\n",
    "bad_value_manifest.json": BAD_GAMMA_MANIFEST,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIG_FILES))
def test_malformed_config_file_exits_2_before_any_run(tmp_path, capsys, name):
    bad = tmp_path / name
    bad.write_text(MALFORMED_CONFIG_FILES[name])
    out = tmp_path / "out"
    rc = main(["run", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("name, data", [
    ("bad.ini", b"[run]\nepochs = 3\xff\n"),
    ("bad.json", b'{"manifest_version": 1, "note": "\xff"}\n'),
], ids=["ini", "manifest"])
def test_a_config_file_that_is_not_utf8_exits_2_before_any_run(tmp_path, capsys, name, data):
    bad = tmp_path / name
    bad.write_bytes(data)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and str(bad) in err and "UTF-8" in err
    assert not out.exists()


def test_tampered_manifest_version_exits_2(tmp_path, capsys):
    first = run_cli(tmp_path / "a") / "dosapp" / "seed0"
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["manifest_version"] = 99
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(manifest))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "99" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[1, 2]\n", '{"manifest_version": 1\n', '{"manifest_version": 1}\n',
    '{"manifest_version": 1, "config": {"run": {"epochs": 3}}}\n',
    '{"manifest_version": 1, "config": [1]}\n', BAD_GAMMA_MANIFEST,
], ids=["list", "not_json", "no_config", "no_ema", "config_not_object", "bad_value"])
def test_report_on_a_malformed_manifest_exits_2(tmp_path, capsys, text):
    run_dir = tmp_path / "runs" / "seed0"
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(text)
    rc = main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and str(run_dir / "manifest.json") in err


def _edit_summary(text, edit):
    """summary.csv text with edit(header, row) applied to its two lines' cells."""
    header, row = (line.split(",") for line in text.splitlines())
    edit(header, row)
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def _drop_fta(header, row):
    del row[header.index("fta")], header[header.index("fta")]


def _worded_avg_acc(header, row):
    row[header.index("avg_acc")] = "high"


@pytest.mark.parametrize("name, corrupt", [
    ("metrics.jsonl", lambda text: text[: text.rindex("\n", 0, -1) + 8]),  # 7 bytes of the last line
    ("metrics.jsonl", lambda text: text + "[1]\n"),
    ("metrics.jsonl", lambda text: text + '{"type": "eval", "checkpoint": "post_ttl"}\n'),
    ("summary.csv", lambda text: _edit_summary(text, _drop_fta)),
    ("summary.csv", lambda text: _edit_summary(text, _worded_avg_acc)),
], ids=["metrics_cut_mid_line", "metrics_row_not_an_object", "metrics_eval_row_without_cells",
        "summary_without_fta", "summary_not_numeric"])
def test_report_on_a_corrupt_run_file_exits_2(tmp_path, capsys, name, corrupt):
    run_dir = run_cli(tmp_path) / "dosapp" / "seed0"
    path = run_dir / name
    path.write_text(corrupt(path.read_text()))
    rc = main(["report", str(run_dir), "--out", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and str(path) in err


@pytest.mark.parametrize("name", ["manifest.json", "summary.csv", "metrics.jsonl"])
def test_report_on_a_run_file_that_is_not_utf8_exits_2(tmp_path, capsys, name):
    run_dir = run_cli(tmp_path) / "dosapp" / "seed0"
    path = run_dir / name
    path.write_bytes(path.read_bytes() + b"\xff")
    rc = main(["report", str(run_dir), "--out", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and str(path) in err and "UTF-8" in err


def test_a_diverging_run_exits_3_in_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--seeds", "0", "--out", str(out),
               *tiny_args("optimizer.learning_rate=1e300", "run.epochs=1")])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"run failed: dosapp seed=0: non-finite loss or gradient in "
                        r"supervised session 0 epoch 0 batch \d+\n", captured.err)
    assert not out.exists()


def test_a_scoring_pass_that_diverges_exits_3_naming_it(tmp_path, capsys):
    # a tiny temperature overflows session 1's mask scoring, before any of its training steps;
    # any numpy warning on the way fails this test too
    out = tmp_path / "out"
    rc = main(["run", "--seeds", "0", "--out", str(out), "--override", "model.temperature=0.001",
               "--override", "data.tasks=2", "--override", "run.epochs=1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("run failed: dosapp seed=0: non-finite loss or gradient in "
                            "mask scoring session 1 batch 0\n")
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "io error:" in capsys.readouterr().err


def test_the_front_end_loads_no_numpy_and_no_run_stack(monkeypatch):
    # argv parsing, config checks, --help and config errors need only cli and
    # config; numpy and the model come with the first command that runs one,
    # and configparser, hashlib and json with the first INI file or manifest
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import WORKLOADS

    specs = {name: (str(spec["ini"]) if spec["ini"] else None, list(spec["overrides"]))
             for name, spec in sorted(WORKLOADS.items(), key=lambda item: item[1]["ini"] is not None)}
    code = f"SPECS = {specs!r}\n" + textwrap.dedent("""
        import contextlib, io, sys
        def loaded():
            return sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")
                          or m in ("configparser", "hashlib", "json")
                          or m.startswith("dosapp.") and m not in ("dosapp.cli", "dosapp.config"))
        import dosapp, dosapp.cli
        from dosapp.config import RunConfig, apply_overrides, parse_config_file
        seen = {"import": loaded()}
        with contextlib.redirect_stdout(io.StringIO()) as shown:
            try:
                dosapp.cli.main(["--help"])
            except SystemExit as done:
                help_exit = done.code
        seen["help"] = loaded()
        rc = dosapp.cli.main(["run", "--override", "ema.gamma=2"])
        seen["config_error"] = loaded()
        for name, (ini, overrides) in SPECS.items():  # the workloads without an INI file first
            apply_overrides(parse_config_file(ini)[0] if ini else RunConfig(), overrides)
            seen[name] = loaded()
        import json
        print(json.dumps({"help": (help_exit, "usage: dosapp" in shown.getvalue()), "rc": rc,
                          "seen": seen}))
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=Path(__file__).parents[1],
                          env=dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")))
    assert json.loads(done.stdout) == {
        "help": [0, True], "rc": 2,
        "seen": {"import": [], "help": [], "config_error": [],
                 **{name: ["configparser"] if ini else [] for name, (ini, _) in specs.items()}}}


# ------------------------------------------------------------ ablate + report

@pytest.fixture(scope="module")
def ablation_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    cfg = root / "ablate.ini"
    cfg.write_text(
        "[ablate]\n"
        "variants = dosapp finetune_no_ttl\n"
        "momentum_grid = 0.9999:0.9999 0.8:0.6\n"
    )
    out = root / "out"
    with pytest.warns(UserWarning):  # the 0.8:0.6 arm violates the momentum ordering
        rc = main(["ablate", "--config", str(cfg), "--seeds", "0,1",
                   "--out", str(out), *tiny_args()])
    assert rc == 0
    return out


def test_ablate_runs_every_arm(ablation_dir):
    for arm in ("dosapp", "finetune_no_ttl", "momentum-g0.9999-l0.9999", "momentum-g0.8-l0.6"):
        for seed in (0, 1):
            assert (ablation_dir / arm / f"seed{seed}" / "summary.csv").exists(), arm


def test_ablate_writes_report_and_grid(ablation_dir):
    rep = ablation_dir / "report"
    for name in ("aggregate.csv", "curves.csv", "forgetting.csv", "trends.txt",
                 "momentum_grid.csv"):
        assert (rep / name).exists(), name
    grid = (rep / "momentum_grid.csv").read_text().splitlines()
    assert grid[0].startswith("gamma,lambda,delta,single_momentum")
    rows = [line.split(",") for line in grid[1:]]
    flags = {(r[0], r[1]): r[3] for r in rows}
    assert flags[("0.9999", "0.9999")] == "1"
    assert flags[("0.8", "0.6")] == "0"
    trends = (rep / "trends.txt").read_text()
    assert "trend " in trends and ("PASS" in trends or "FAIL" in trends)


def test_report_scans_roots_and_is_idempotent(ablation_dir, tmp_path, capsys):
    rep1 = tmp_path / "r1"
    rep2 = tmp_path / "r2"
    assert main(["report", str(ablation_dir), "--out", str(rep1)]) == 0
    out1 = capsys.readouterr().out
    assert main(["report", str(ablation_dir), "--out", str(rep2)]) == 0
    for name in ("aggregate.csv", "curves.csv", "forgetting.csv", "trends.txt"):
        assert (rep1 / name).read_bytes() == (rep2 / name).read_bytes(), name
    assert "finetune_no_ttl: avg_acc=" in out1
    assert "trend " in out1


def test_aggregate_counts_the_runs_each_row_averages(ablation_dir):
    # the grid arms reuse the dosapp variant name, so dosapp splits into one
    # momentum-labelled row per setting; each row averages two seeds
    agg = (ablation_dir / "report" / "aggregate.csv").read_text().splitlines()
    rows = [line.split(",")[:2] for line in agg[1:]]
    assert len(rows) == 4  # three dosapp momentum settings + finetune_no_ttl
    assert sum(label.startswith("dosapp[") for label, _ in rows) == 3
    assert {n_runs for _, n_runs in rows} == {"2"}


def test_grid_arm_equal_to_the_ladder_counts_each_run_once(tmp_path):
    # 0.8:0.9 are the default momenta, so this arm repeats the ladder's dosapp runs
    cfg = tmp_path / "ablate.ini"
    cfg.write_text("[ablate]\nvariants = dosapp finetune_no_ttl\nmomentum_grid = 0.8:0.9\n")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(cfg), "--seeds", "0,1", "--out", str(out),
                 *tiny_args()]) == 0
    with open(out / "report" / "aggregate.csv") as fh:
        rows = {row["variant"]: row for row in csv.DictReader(fh)}
    assert set(rows) == {"dosapp", "finetune_no_ttl"}
    assert rows["dosapp"]["n_runs"] == "2"
    ladder = []
    for seed in (0, 1):
        with open(out / "dosapp" / f"seed{seed}" / "summary.csv") as fh:
            ladder.append(float(next(csv.DictReader(fh))["avg_acc"]))
    assert float(rows["dosapp"]["avg_acc_mean"]) == float(np.mean(ladder))


def test_trends_compare_the_ladder_run_not_a_grid_arm(tmp_path):
    # the 0.3:0.4 arm is a dosapp run too; finetune_no_ttl ran at the ladder's momenta only
    cfg = tmp_path / "ablate.ini"
    cfg.write_text("[ablate]\nvariants = dosapp finetune_no_ttl\nmomentum_grid = 0.3:0.4\n")
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(cfg), "--seeds", "0", "--out", str(out), *tiny_args()]) == 0
    forgetting = {}
    for arm in ("dosapp", "finetune_no_ttl", "momentum-g0.3-l0.4"):
        with open(out / arm / "seed0" / "summary.csv") as fh:
            forgetting[arm] = float(next(csv.DictReader(fh))["forgetting"])
    assert forgetting["dosapp"] != forgetting["momentum-g0.3-l0.4"]
    trend = next(line for line in (out / "report" / "trends.txt").read_text().splitlines()
                 if "adaptation_reduces_forgetting" in line)
    assert f"forgetting {forgetting['dosapp']:.4f} vs {forgetting['finetune_no_ttl']:.4f}" in trend


def test_report_counts_a_run_from_two_invocations_once(tmp_path):
    # seed 0 of a one-seed and of a two-seed invocation is the same run
    one = run_cli(tmp_path / "one")
    two = run_cli(tmp_path / "two", seeds="0,1")
    assert main(["report", str(one), str(two), "--out", str(tmp_path / "rep")]) == 0
    with open(tmp_path / "rep" / "aggregate.csv") as fh:
        assert [row["n_runs"] for row in csv.DictReader(fh)] == ["2"]


def test_report_rows_have_the_header_column_count(ablation_dir):
    # momentum-labelled rows ("dosapp[g=0.8 l=0.9]") must stay one cell wide
    for name in ("aggregate.csv", "curves.csv", "forgetting.csv"):
        lines = (ablation_dir / "report" / name).read_text().splitlines()
        width = len(lines[0].split(","))
        assert any(line.startswith("dosapp[") for line in lines), name
        assert [len(line.split(",")) for line in lines[1:]] == [width] * (len(lines) - 1), name


def test_report_on_explicit_run_dirs(ablation_dir, tmp_path, capsys):
    d0 = ablation_dir / "dosapp" / "seed0"
    d1 = ablation_dir / "dosapp" / "seed1"
    rc = main(["report", str(d0), str(d1), "--out", str(tmp_path / "rep")])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("dosapp")][0]
    assert "±" in line  # two seeds: std is reported


def test_single_seed_report_omits_std(ablation_dir, tmp_path, capsys):
    d0 = ablation_dir / "dosapp" / "seed0"
    rc = main(["report", str(d0), "--out", str(tmp_path / "rep")])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("dosapp")][0]
    assert "±" not in line
    agg = (tmp_path / "rep" / "aggregate.csv").read_text().splitlines()
    header = agg[0].split(",")
    row = agg[1].split(",")
    assert row[header.index("avg_acc_std")] == ""
