"""Tensor-record files: pinned bytes on disk, and rejection of cut or corrupt files."""

import base64
import hashlib
import re
import struct

import numpy as np
import pytest

import dosapp.masking as mk
import dosapp.model as dm
from dosapp.config import RunConfig
from dosapp.records import read_records, write_records

CHECKPOINT_TEXT = (
    'dosapp-checkpoint v4 {"candidates": ["block0.mlp.fc1.weight"], "meta": {"note": "golden"}}\n'
    "block0.ln2.gain shape=2\n"
    "AAAAAAAA8D8AAAAAAAAAQA==\n"
    "block0.ln2.bias shape=2\n"
    "AAAAAAAAAAAAAAAAAADgvw==\n"
    "block0.mlp.fc1.weight shape=2,1\n"
    "AAAAAAAA4D8AAAAAAAD0vw==\n"
    "block0.mlp.fc1.bias shape=1\n"
    "AAAAAAAA0D8=\n"
    "block0.mlp.fc2.weight shape=1,2\n"
    "AAAAAAAAAMAAAAAAAADAPw==\n"
    "block0.mlp.fc2.bias shape=2\n"
    "/Knx0k1iUD8AAAAAAAAAgA==\n"
    "proj.weight shape=2,1\n"
    "mpmZmZmZuT8AAAAAAAAAgA==\n"
    "class_table shape=3,1\n"
    "AAAAAAAA8D8AAAAAAADwv4O2OtKXEsAB\n"
    "end sha256=ff68e88fbb1313183dde829095517598f3f6239902f0c755e9a4a1d8e90c8b10\n"
)

MASK_TEXT = (
    'dosapp-mask v4 {"origin": "union_reselected", "sparsity": 0.1}\n'
    "block0.mlp.fc1.weight shape=2,1\n"
    "AQA=\n"
    "w shape=3\n"
    "AAEB\n"
    "end sha256=6cb798087976febdbee1af96d983981eb3fd1c689cffdf6bb9150a10c9d738d6\n"
)

# Two files in the v3 format, which no loader reads any more: its checkpoint
# header also held the encoder's config and the active classes.
V3_TEXTS = {
    "checkpoint": (
        'dosapp-checkpoint v3 {"candidates": ["block0.mlp.fc1.weight"], '
        '"config": {"block_count": 1, "embed_dim": 1, "input_dim": 2, "mlp_hidden_dim": 1, '
        '"token_count": 1, "token_dim": 2, "use_attention": false}, '
        '"meta": {"active_classes": [0, 2], "note": "golden"}}\n'
        "block0.mlp.fc1.weight shape=2,1\n"
        "AAAAAAAA4D8AAAAAAAD0vw==\n"
        "proj.weight shape=2,1\n"
        "mpmZmZmZuT8AAAAAAAAAgA==\n"
        "class_table shape=3,1\n"
        "AAAAAAAA8D8AAAAAAADwv4O2OtKXEsAB\n"
        "end sha256=8fde7b50a2d3731cd75a30eb336a533f512ca5e032614b59e80a619fe2514467\n"
    ),
    "mask": (
        'dosapp-mask v3 {"origin": "union_reselected", "sparsity": 0.1}\n'
        "block0.mlp.fc1.weight shape=2,1\n"
        "AQA=\n"
        "w shape=3\n"
        "AAEB\n"
        "end sha256=7bea2b906f92dc9c49700dbc818ef843b651431558396e6b06f13bab632d77c2\n"
    ),
}

# The same two files in the v2 format, which no loader reads any more.
V2_TEXTS = {
    "checkpoint": (
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
    ),
    "mask": (
        'dosapp-mask v2 {"origin": "union_reselected", "sparsity": 0.1}\n'
        "block0.mlp.fc1.weight shape=2,1\n"
        "10\n"
        "w shape=3\n"
        "011\n"
        "end\n"
    ),
}

# The same two files in the v1 format, which no loader reads any more.
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
}


# The encoder of the golden checkpoint: one block without attention, 2-wide tokens.
GOLDEN_CONFIG = RunConfig(input_dim=2, token_count=1, token_dim=2, block_count=1, mlp_hidden_dim=1,
                          embed_dim=1, use_attention=False)


def golden_model():
    params = dm.ParameterSet()
    for path, value in (("block0.ln2.gain", [1.0, 2.0]), ("block0.ln2.bias", [0.0, -0.5]),
                        ("block0.mlp.fc1.weight", [[0.5], [-1.25]]), ("block0.mlp.fc1.bias", [0.25]),
                        ("block0.mlp.fc2.weight", [[-2.0, 0.125]]), ("block0.mlp.fc2.bias", [1e-3, -0.0]),
                        ("proj.weight", [[0.1], [-0.0]])):
        params.add(path, np.array(value))
    table = dm.ClassEmbeddingTable(np.array([[1.0], [-1.0], [3e-300]]))
    return params, table


def test_the_golden_checkpoint_holds_a_real_encoder():
    params, _ = golden_model()
    real = dm.init_model(GOLDEN_CONFIG, seed=0)
    def layout(p):
        return [(path, t.shape) for path, t in p.entries.items()]
    assert layout(params) == layout(real)
    assert params.candidate_paths() == real.candidate_paths()
    assert dm.encoder_shape(params) == (2, 1, 1, False)


def golden_mask():
    return mk.Mask(bits={"block0.mlp.fc1.weight": np.array([[True], [False]]),
                         "w": np.array([False, True, True])},
                   sparsity=0.1, origin="union_reselected")


def save_golden_checkpoint(path, params, table):
    dm.save_checkpoint(path, params, table, meta={"note": "golden"})


def test_files_match_the_pinned_bytes(tmp_path):
    params, table = golden_model()
    cases = (
        ("c.ckpt", CHECKPOINT_TEXT, lambda p: save_golden_checkpoint(p, params, table),
         lambda p: save_golden_checkpoint(p, *dm.load_checkpoint(p)[:2])),
        ("m.mask", MASK_TEXT, lambda p: mk.save_mask(p, golden_mask()),
         lambda p: mk.save_mask(p, mk.load_mask(p))),
    )
    for name, text, save, resave in cases:
        path = tmp_path / name
        save(path)
        assert path.read_bytes() == text.encode(), name
        resave(path)  # load, then save what was loaded: same bytes again
        assert path.read_bytes() == text.encode(), name


def _cut_lines(text, keep):
    return "".join(text.splitlines(keepends=True)[:keep])


def _signed(body):
    """body plus a valid end line: the damage is then seen by the check it is meant for."""
    return body + f"end sha256={hashlib.sha256(body.encode()).hexdigest()}\n"


def _edited(text, old, new):
    body = text[:text.rindex("end sha256=")]
    assert old in body
    return _signed(body.replace(old, new))


def _f8(*values):
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()


# Every case is a file a crash, a bad copy, a hand edit or an older version can leave behind.
DAMAGED_CHECKPOINTS = {
    "cut_at_record_boundary": _cut_lines(CHECKPOINT_TEXT, 5),
    "empty": "",
    "header_only": _cut_lines(CHECKPOINT_TEXT, 1),
    "head_without_body": _signed(_cut_lines(CHECKPOINT_TEXT, 2)),
    "body_cut_mid_line": CHECKPOINT_TEXT[:CHECKPOINT_TEXT.index("AAAAAAAD0vw")],
    "no_final_newline": CHECKPOINT_TEXT[:-1],
    "changed_weight": CHECKPOINT_TEXT.replace("mpmZmZmZuT8", "mpmZmZmZuT9"),
    "changed_digest": CHECKPOINT_TEXT.replace("sha256=ff", "sha256=0f"),
    "count_mismatch": _edited(CHECKPOINT_TEXT, "shape=3,1", "shape=4,1"),
    "repeated_name": _edited(CHECKPOINT_TEXT, "proj.weight shape", "block0.mlp.fc1.weight shape"),
    "bad_candidate_flag": _edited(CHECKPOINT_TEXT, '["block0.mlp.fc1', '["block0.mlp.fc9'),
    "candidates_not_a_list": _edited(CHECKPOINT_TEXT, '["block0.mlp.fc1.weight"]', '"block0.mlp.fc1.weight"'),
    "config_unknown_key": _edited(CHECKPOINT_TEXT, '"meta": {', '"config": {"block_count": 1}, "meta": {'),
    "meta_not_json": _edited(CHECKPOINT_TEXT, '"note": "golden"', '"note": golden'),
    "meta_not_an_object": _edited(CHECKPOINT_TEXT, '"meta": {"note": "golden"}', '"meta": [0, 2]'),
    "block_lacks_a_tensor": _edited(CHECKPOINT_TEXT, "block0.mlp.fc1.bias shape=1\nAAAAAAAA0D8=\n", ""),
    "shapes_do_not_chain": _edited(CHECKPOINT_TEXT, "fc2.weight shape=1,2", "fc2.weight shape=2,1"),
    "bad_value": _edited(CHECKPOINT_TEXT, "mpmZmZmZuT8", "mpmZmZ*ZuT8"),
    "overflowing_hex_value": _edited(CHECKPOINT_TEXT, "mpmZmZmZuT8AAAAAAAAAgA==", "0x1p+99999"),
    "nan_value": _edited(CHECKPOINT_TEXT, "AAAAAAAA8D8AAAAAAADwv4O2OtKXEsAB", _f8(1.0, -1.0, float("nan"))),
    "inf_value": _edited(CHECKPOINT_TEXT, "AAAAAAAA8D8AAAAAAADwv4O2OtKXEsAB", _f8(1.0, float("-inf"), 3e-300)),
    "v1_file": V1_TEXTS["checkpoint"],
    "v2_file": V2_TEXTS["checkpoint"],
    "v3_file": V3_TEXTS["checkpoint"],
}

DAMAGED_MASKS = {
    "empty": "",
    "head_without_body": _signed(_cut_lines(MASK_TEXT, 4)),
    "body_cut_mid_line": MASK_TEXT[:MASK_TEXT.index("AAEB") + 2],
    "no_final_newline": MASK_TEXT[:-1],
    "changed_bit": MASK_TEXT.replace("AAEB", "AQEB"),
    "count_mismatch": _edited(MASK_TEXT, "shape=3", "shape=4"),
    "repeated_name": _edited(MASK_TEXT, "w shape=3", "block0.mlp.fc1.weight shape=3"),
    "bad_bit": _edited(MASK_TEXT, "AAEB", "AAIB"),
    "bad_header_attribute": _edited(MASK_TEXT, '"origin"', '"source"'),
    "bad_sparsity": _edited(MASK_TEXT, '"sparsity": 0.1', '"sparsity": "zz"'),
    "v1_file": V1_TEXTS["mask"],
    "v2_file": V2_TEXTS["mask"],
    "v3_file": V3_TEXTS["mask"],
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


LOADERS = {"checkpoint": dm.load_checkpoint, "mask": mk.load_mask}
TEXTS = {"checkpoint": CHECKPOINT_TEXT, "mask": MASK_TEXT}


@pytest.mark.parametrize("kind", sorted(TEXTS))
def test_every_cut_is_rejected(tmp_path, kind):
    path = tmp_path / "cut"
    text = TEXTS[kind]
    for size in range(len(text)):
        path.write_text(text[:size])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            LOADERS[kind](path)


@pytest.mark.parametrize("kind", sorted(TEXTS))
def test_every_byte_change_is_rejected(tmp_path, kind):
    # the digest covers every byte, so even a flipped low bit inside a weight cannot load
    path = tmp_path / "changed"
    data = TEXTS[kind].encode()
    for pos in range(len(data)):
        for flip in (0x01, 0x80):  # a byte that stays ASCII, and one that is not UTF-8
            path.write_bytes(data[:pos] + bytes([data[pos] ^ flip]) + data[pos + 1:])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                LOADERS[kind](path)


def test_bodies_are_little_endian_bytes_under_a_digest_of_the_rest():
    lines = CHECKPOINT_TEXT.splitlines(keepends=True)
    assert struct.unpack("<3d", base64.b64decode(lines[-2])) == (1.0, -1.0, 3e-300)
    assert base64.b64decode(MASK_TEXT.splitlines()[2]) == b"\x01\x00"
    for text in TEXTS.values():
        body, end = text[:text.rindex("end ")], text[text.rindex("end "):]
        assert end == f"end sha256={hashlib.sha256(body.encode()).hexdigest()}\n"


def _assert_unsupported(tmp_path, kind, text):
    path = tmp_path / kind
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"unsupported header .* in {re.escape(str(path))} "
                                         rf"\(want 'dosapp-{kind} v4'\)"):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", sorted(V1_TEXTS))
def test_a_v1_file_is_an_unsupported_header(tmp_path, kind):
    _assert_unsupported(tmp_path, kind, V1_TEXTS[kind])


@pytest.mark.parametrize("kind", sorted(V2_TEXTS))
def test_a_v2_file_is_an_unsupported_header(tmp_path, kind):
    _assert_unsupported(tmp_path, kind, V2_TEXTS[kind])


@pytest.mark.parametrize("kind", sorted(V3_TEXTS))
def test_a_v3_file_is_an_unsupported_header(tmp_path, kind):
    _assert_unsupported(tmp_path, kind, V3_TEXTS[kind])


# Header values of another JSON type than the key's; no file kind has an int key, so read_records
# is called directly.
BAD_HEADER_VALUES = {
    "non_integer_task": {"samples": 17, "task": "x"},
    "non_integer_samples": {"samples": 1.5, "task": 3},
    "boolean_task": {"samples": 17, "task": True},  # true is no int
}


@pytest.mark.parametrize("case", sorted(BAD_HEADER_VALUES))
def test_a_header_value_of_another_json_type_is_rejected(tmp_path, case):
    keys = {"samples": int, "task": int}
    path = tmp_path / "r"
    write_records(path, "dosapp-test", {"samples": 17, "task": 3}, [("w", np.ones(1))])
    assert read_records(path, "dosapp-test", float, keys)[0] == {"samples": 17, "task": 3}
    write_records(path, "dosapp-test", BAD_HEADER_VALUES[case], [("w", np.ones(1))])
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed header")):
        read_records(path, "dosapp-test", float, keys)


# Each would write a file that read_records rejects, or whose lines a text-mode reader splits.
UNREADABLE_RECORDS = {
    "zero_d_array": ("w", np.array(1.5)),
    "newline_in_name": ("a\nb", np.zeros(2)),
    "carriage_return_in_name": ("a\rb", np.zeros(2)),
    "empty_name": ("", np.zeros(2)),
    "repeated_name": ("ok", np.zeros(2)),
    "nan_value": ("w", np.array([1.0, np.nan])),
    "inf_value": ("w", np.array([[-np.inf]])),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_RECORDS))
def test_the_writer_refuses_a_record_the_reader_cannot_read_back(tmp_path, case):
    name, arr = UNREADABLE_RECORDS[case]
    path = tmp_path / "r"
    with pytest.raises(ValueError, match=re.escape(f"record {name!r}")):
        write_records(path, "dosapp-test", {}, [("ok", np.ones(1)), (name, arr)])
    assert not path.exists()


def test_empty_arrays_and_odd_names_read_back(tmp_path):
    path = tmp_path / "r"
    records = {"a shape=2": np.zeros((2, 0)), " spaced ": np.array([-0.0, 5e-324, 1.7976931348623157e308]),
               "end": np.ones(1)}
    write_records(path, "dosapp-test", {}, records.items())
    attrs, back = read_records(path, "dosapp-test", float, {})
    assert attrs == {} and list(back) == list(records)
    for name, arr in records.items():
        assert back[name].shape == arr.shape and back[name].tobytes() == arr.tobytes(), name
