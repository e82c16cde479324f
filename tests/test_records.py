"""Tensor-record files: pinned bytes on disk, and rejection of cut or corrupt files."""

import re

import numpy as np
import pytest

import dosapp.masking as mk
import dosapp.model as dm
from dosapp.records import read_records, write_records

CHECKPOINT_TEXT = (
    'dosapp-checkpoint v2 {"candidates": ["block0.mlp.fc1.weight"], '
    '"config": {"block_count": 1, "embed_dim": 1, "input_dim": 2, "mlp_hidden_dim": 1, '
    '"token_count": 1, "token_dim": 2, "use_attention": false}, '
    '"meta": {"active_classes": [0, 2], "note": "golden"}}\n'
    "block0.mlp.fc1.weight shape=2,1\n"
    "0x1.0000000000000p-1 -0x1.4000000000000p+0\n"
    "proj.weight shape=2,1\n"
    "0x1.999999999999ap-4 -0x0.0p+0\n"
    "class_table shape=3,1\n"
    "0x1.0000000000000p+0 -0x1.0000000000000p+0 0x1.01297d23ab683p-995\n"
    "end\n"
)

MASK_TEXT = (
    'dosapp-mask v2 {"origin": "union_reselected", "sparsity": 0.1}\n'
    "block0.mlp.fc1.weight shape=2,1\n"
    "10\n"
    "w shape=3\n"
    "011\n"
    "end\n"
)

SCORES_TEXT = (
    'dosapp-scores v2 {"samples": 17, "task": 3}\n'
    "block0.mlp.fc1.weight shape=2,1\n"
    "0x0.0p+0 0x1.ad7f29abcaf48p-24\n"
    "w shape=3\n"
    "0x1.4000000000000p+1 0x1.8000000000000p-1 0x1.0000000000000p+0\n"
    "end\n"
)

# The same three files in the v1 format, which no loader reads any more.
V1_TEXTS = {
    "checkpoint": (
        "dosapp-checkpoint v1\n"
        'config {"block_count": 1, "embed_dim": 1, "input_dim": 2, "mlp_hidden_dim": 1, '
        '"token_count": 1, "token_dim": 2, "use_attention": false}\n'
        'meta {"active_classes": [0, 2], "note": "golden"}\n'
        "tensor block0.mlp.fc1.weight candidate=1 shape=2,1\n"
        "0x1.0000000000000p-1 -0x1.4000000000000p+0\n"
        "tensor proj.weight candidate=0 shape=2,1\n"
        "0x1.999999999999ap-4 -0x0.0p+0\n"
        "tensor class_table candidate=0 shape=3,1\n"
        "0x1.0000000000000p+0 -0x1.0000000000000p+0 0x1.01297d23ab683p-995\n"
        "end\n"
    ),
    "mask": (
        "dosapp-mask v1 sparsity=0x1.999999999999ap-4 origin=union_reselected\n"
        "block0.mlp.fc1.weight shape=2,1\n"
        "10\n"
        "w shape=3\n"
        "011\n"
    ),
    "scores": (
        "dosapp-scores v1 task=3 samples=17\n"
        "block0.mlp.fc1.weight shape=2,1\n"
        "0x0.0p+0 0x1.ad7f29abcaf48p-24\n"
        "w shape=3\n"
        "0x1.4000000000000p+1 0x1.8000000000000p-1 0x1.0000000000000p+0\n"
    ),
}


def golden_model():
    cfg = dm.EncoderConfig(input_dim=2, token_count=1, token_dim=2, block_count=1,
                           mlp_hidden_dim=1, embed_dim=1, use_attention=False)
    params = dm.ParameterSet(cfg)
    params.add("block0.mlp.fc1.weight", np.array([[0.5], [-1.25]]), candidate=True)
    params.add("proj.weight", np.array([[0.1], [-0.0]]))
    table = dm.ClassEmbeddingTable(np.array([[1.0], [-1.0], [3e-300]]), {2, 0})
    return params, table


def golden_mask():
    return mk.Mask(bits={"block0.mlp.fc1.weight": np.array([[True], [False]]),
                         "w": np.array([False, True, True])},
                   sparsity=0.1, origin="union_reselected")


def golden_scores():
    return mk.ScoreMap(scores={"block0.mlp.fc1.weight": np.array([[0.0], [1e-7]]),
                               "w": np.array([2.5, 0.75, 1.0])},
                       task_id=3, sample_count=17)


def save_golden_checkpoint(path, params, table):
    dm.save_checkpoint(path, params, table, meta={"note": "golden"})


def test_files_match_the_pinned_bytes(tmp_path):
    params, table = golden_model()
    cases = (
        ("c.ckpt", CHECKPOINT_TEXT, lambda p: save_golden_checkpoint(p, params, table),
         lambda p: save_golden_checkpoint(p, *dm.load_checkpoint(p)[:2])),
        ("m.mask", MASK_TEXT, lambda p: mk.save_mask(p, golden_mask()),
         lambda p: mk.save_mask(p, mk.load_mask(p))),
        ("s.scores", SCORES_TEXT, lambda p: mk.save_scores(p, golden_scores()),
         lambda p: mk.save_scores(p, mk.load_scores(p))),
    )
    for name, text, save, resave in cases:
        path = tmp_path / name
        save(path)
        assert path.read_bytes() == text.encode(), name
        resave(path)  # load, then save what was loaded: same bytes again
        assert path.read_bytes() == text.encode(), name


def _cut_lines(text, keep):
    return "".join(text.splitlines(keepends=True)[:keep])


# Every case is a file a crash, a bad copy or an older version can leave behind.
DAMAGED_CHECKPOINTS = {
    "cut_at_record_boundary": _cut_lines(CHECKPOINT_TEXT, 5),
    "empty": "",
    "header_only": _cut_lines(CHECKPOINT_TEXT, 1),
    "head_without_body": _cut_lines(CHECKPOINT_TEXT, 2) + "end\n",
    "body_cut_mid_line": CHECKPOINT_TEXT[:CHECKPOINT_TEXT.index("-0x1.4")],
    "no_final_newline": CHECKPOINT_TEXT[:-1],
    "count_mismatch": CHECKPOINT_TEXT.replace("shape=3,1", "shape=4,1"),
    "repeated_name": CHECKPOINT_TEXT.replace("proj.weight shape", "block0.mlp.fc1.weight shape"),
    "bad_candidate_flag": CHECKPOINT_TEXT.replace('["block0.mlp.fc1', '["block0.mlp.fc9'),
    "candidates_not_a_list": CHECKPOINT_TEXT.replace('["block0.mlp.fc1.weight"]', '"block0.mlp.fc1.weight"'),
    "config_not_json": CHECKPOINT_TEXT.replace('"use_attention": false}', '"use_attention": false'),
    "config_not_an_object": CHECKPOINT_TEXT.replace('"config": {"block_count"', '"config": [{"block_count"')
                                           .replace('false}, "meta"', 'false}], "meta"'),
    "config_unknown_key": CHECKPOINT_TEXT.replace('"block_count"', '"blocks"'),
    "config_bad_value": CHECKPOINT_TEXT.replace('"embed_dim": 1', '"embed_dim": 0'),
    "meta_not_json": CHECKPOINT_TEXT.replace('"note": "golden"', '"note": golden'),
    "meta_not_an_object": CHECKPOINT_TEXT.replace('"meta": {"active_classes": [0, 2], "note": "golden"}',
                                                  '"meta": [0, 2]'),
    "active_classes_not_ids": CHECKPOINT_TEXT.replace("[0, 2], ", '"02", '),
    "active_classes_nested": CHECKPOINT_TEXT.replace("[0, 2], ", "[[0], 2], "),
    "v1_file": V1_TEXTS["checkpoint"],
}

DAMAGED_MASKS = {
    "empty": "",
    "head_without_body": _cut_lines(MASK_TEXT, 4) + "end\n",
    "body_cut_mid_line": MASK_TEXT[:MASK_TEXT.index("011") + 2],
    "no_final_newline": MASK_TEXT[:-1],
    "count_mismatch": MASK_TEXT.replace("shape=3", "shape=4"),
    "repeated_name": MASK_TEXT.replace("w shape=3", "block0.mlp.fc1.weight shape=3"),
    "bad_bit": MASK_TEXT.replace("011", "0x1"),
    "bad_header_attribute": MASK_TEXT.replace('"origin"', '"source"'),
    "bad_sparsity": MASK_TEXT.replace('"sparsity": 0.1', '"sparsity": "zz"'),
    "v1_file": V1_TEXTS["mask"],
}

DAMAGED_SCORES = {
    "empty": "",
    "head_without_body": _cut_lines(SCORES_TEXT, 4) + "end\n",
    "body_cut_mid_line": SCORES_TEXT[:SCORES_TEXT.index("0x1.0000000000000p+0")],
    "no_final_newline": SCORES_TEXT[:-1],
    "count_mismatch": SCORES_TEXT.replace("shape=3", "shape=2"),
    "repeated_name": SCORES_TEXT.replace("w shape=3", "block0.mlp.fc1.weight shape=3"),
    "bad_value": SCORES_TEXT.replace("0x1.8000000000000p-1", "0x1.8zp-1"),
    "non_integer_task": SCORES_TEXT.replace('"task": 3', '"task": "x"'),
    "non_integer_samples": SCORES_TEXT.replace('"samples": 17', '"samples": 1.5'),
    "boolean_task": SCORES_TEXT.replace('"task": 3', '"task": true'),
    "v1_file": V1_TEXTS["scores"],
}


def _assert_rejected(tmp_path, name, text, load):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("case", sorted(DAMAGED_CHECKPOINTS))
def test_damaged_checkpoint_is_rejected(tmp_path, case):
    _assert_rejected(tmp_path, "c.ckpt", DAMAGED_CHECKPOINTS[case], dm.load_checkpoint)


@pytest.mark.parametrize("case", sorted(DAMAGED_MASKS))
def test_damaged_mask_is_rejected(tmp_path, case):
    _assert_rejected(tmp_path, "m.mask", DAMAGED_MASKS[case], mk.load_mask)


@pytest.mark.parametrize("case", sorted(DAMAGED_SCORES))
def test_damaged_scores_are_rejected(tmp_path, case):
    _assert_rejected(tmp_path, "s.scores", DAMAGED_SCORES[case], mk.load_scores)


LOADERS = {"checkpoint": dm.load_checkpoint, "mask": mk.load_mask, "scores": mk.load_scores}
TEXTS = {"checkpoint": CHECKPOINT_TEXT, "mask": MASK_TEXT, "scores": SCORES_TEXT}


@pytest.mark.parametrize("kind", sorted(TEXTS))
def test_every_cut_is_rejected(tmp_path, kind):
    path = tmp_path / "cut"
    text = TEXTS[kind]
    for size in range(len(text)):
        path.write_text(text[:size])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            LOADERS[kind](path)


@pytest.mark.parametrize("kind", sorted(V1_TEXTS))
def test_a_v1_file_is_an_unsupported_header(tmp_path, kind):
    path = tmp_path / kind
    path.write_text(V1_TEXTS[kind])
    with pytest.raises(ValueError, match=rf"unsupported header .* in {re.escape(str(path))} "
                                         rf"\(want 'dosapp-{kind} v2'\)"):
        LOADERS[kind](path)


# Each would write a file that read_records rejects or reads back shifted.
UNREADABLE_RECORDS = {
    "zero_d_array": ("w", np.array(1.5)),
    "newline_in_name": ("a\nb", np.zeros(2)),
    "carriage_return_in_name": ("a\rb", np.zeros(2)),
    "empty_name": ("", np.zeros(2)),
    "repeated_name": ("ok", np.zeros(2)),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_RECORDS))
def test_the_writer_refuses_a_record_the_reader_cannot_read_back(tmp_path, case):
    name, arr = UNREADABLE_RECORDS[case]
    path = tmp_path / "r"
    with pytest.raises(ValueError, match=re.escape(f"record {name!r}")):
        write_records(path, "dosapp-scores", {}, [("ok", np.ones(1)), (name, arr)])
    assert not path.exists()


def test_empty_arrays_and_odd_names_read_back(tmp_path):
    path = tmp_path / "r"
    records = {"a shape=2": np.zeros((2, 0)), " spaced ": np.array([-0.0, np.inf]), "end": np.ones(1)}
    write_records(path, "dosapp-scores", {}, records.items())
    attrs, back = read_records(path, "dosapp-scores", float, {})
    assert attrs == {} and list(back) == list(records)
    for name, arr in records.items():
        assert back[name].shape == arr.shape and back[name].tobytes() == arr.tobytes(), name
