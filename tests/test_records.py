"""Tensor-record files: pinned bytes on disk, and rejection of cut or corrupt files."""

import base64
import hashlib
import re
import struct

import numpy as np
import pytest

import dosapp.masking as mk
import dosapp.model as dm
from dosapp.autodiff import Tensor
from dosapp.config import RunConfig
from dosapp.records import read_records, write_records

CHECKPOINT_TEXT = (
    "dosapp-checkpoint v5\n"
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
    "end sha256=f0b5d14a3e0164687984693aed504697bb928421d90cd054e6f6540a32f66509\n"
)

MASK_TEXT = (
    "dosapp-mask v5\n"
    "block0.mlp.fc1.weight shape=2,1\n"
    "AQA=\n"
    "w shape=3\n"
    "AAEB\n"
    "end sha256=fe7a2a3bfcc89f52bfa5890d007cfb42c93fbfb5e8676137eb177026c2970b9d\n"
)

# The same two files in the v4 format, which no loader reads any more: its header
# also held a JSON object of attributes that the tensors or the run's manifest restate.
V4_TEXTS = {
    "checkpoint": (
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
    ),
    "mask": (
        'dosapp-mask v4 {"origin": "union_reselected", "sparsity": 0.1}\n'
        "block0.mlp.fc1.weight shape=2,1\n"
        "AQA=\n"
        "w shape=3\n"
        "AAEB\n"
        "end sha256=6cb798087976febdbee1af96d983981eb3fd1c689cffdf6bb9150a10c9d738d6\n"
    ),
}

# The same two files in the v3 format, which no loader reads any more: its checkpoint
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
    params = {path: Tensor(np.array(value)) for path, value in (
        ("block0.ln2.gain", [1.0, 2.0]), ("block0.ln2.bias", [0.0, -0.5]),
        ("block0.mlp.fc1.weight", [[0.5], [-1.25]]), ("block0.mlp.fc1.bias", [0.25]),
        ("block0.mlp.fc2.weight", [[-2.0, 0.125]]), ("block0.mlp.fc2.bias", [1e-3, -0.0]),
        ("proj.weight", [[0.1], [-0.0]]))}
    table = np.array([[1.0], [-1.0], [3e-300]])
    return params, table


def test_the_golden_checkpoint_holds_a_real_encoder():
    params, _ = golden_model()
    real = dm.init_model(GOLDEN_CONFIG, seed=0)
    def layout(p):
        return [(path, t.shape) for path, t in p.items()]
    assert layout(params) == layout(real)
    assert dm.candidate_paths(params) == dm.candidate_paths(real)
    assert dm.encoder_shape(params) == (2, 1, 1, False)


def golden_mask():
    return {"block0.mlp.fc1.weight": np.array([[True], [False]]), "w": np.array([False, True, True])}


def test_files_match_the_pinned_bytes(tmp_path):
    params, table = golden_model()
    cases = (
        ("c.ckpt", CHECKPOINT_TEXT, lambda p: dm.save_checkpoint(p, params, table),
         lambda p: dm.save_checkpoint(p, *dm.load_checkpoint(p))),
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


def _after_version(text, attrs):
    """text signed again with attrs after the version on its header line."""
    return _edited(text, " v5\n", f" v5 {attrs}\n")


CHECKPOINT_V4_ATTRS = '{"candidates": ["block0.mlp.fc1.weight"], "meta": {"note": "golden"}}'
MASK_V4_ATTRS = '{"origin": "union_reselected", "sparsity": 0.1}'


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
    "changed_digest": CHECKPOINT_TEXT.replace("sha256=f0", "sha256=00"),
    "count_mismatch": _edited(CHECKPOINT_TEXT, "shape=3,1", "shape=4,1"),
    "repeated_name": _edited(CHECKPOINT_TEXT, "proj.weight shape", "block0.mlp.fc1.weight shape"),
    "text_after_the_version": _after_version(CHECKPOINT_TEXT, CHECKPOINT_V4_ATTRS),
    # The v4 header attributes, damaged as a v4 reader saw them, are text after the version now.
    "bad_candidate_flag": _after_version(CHECKPOINT_TEXT, CHECKPOINT_V4_ATTRS.replace('["block0.mlp.fc1', '["block0.mlp.fc9')),
    "candidates_not_a_list": _after_version(
        CHECKPOINT_TEXT, CHECKPOINT_V4_ATTRS.replace('["block0.mlp.fc1.weight"]', '"block0.mlp.fc1.weight"')),
    "config_unknown_key": _after_version(
        CHECKPOINT_TEXT, CHECKPOINT_V4_ATTRS.replace('"meta": {', '"config": {"block_count": 1}, "meta": {')),
    "meta_not_json": _after_version(CHECKPOINT_TEXT, CHECKPOINT_V4_ATTRS.replace('"note": "golden"', '"note": golden')),
    "meta_not_an_object": _after_version(
        CHECKPOINT_TEXT, CHECKPOINT_V4_ATTRS.replace('"meta": {"note": "golden"}', '"meta": [0, 2]')),
    "block_lacks_a_tensor": _edited(CHECKPOINT_TEXT, "block0.mlp.fc1.bias shape=1\nAAAAAAAA0D8=\n", ""),
    "shapes_do_not_chain": _edited(CHECKPOINT_TEXT, "fc2.weight shape=1,2", "fc2.weight shape=2,1"),
    "bad_value": _edited(CHECKPOINT_TEXT, "mpmZmZmZuT8", "mpmZmZ*ZuT8"),
    "overflowing_hex_value": _edited(CHECKPOINT_TEXT, "mpmZmZmZuT8AAAAAAAAAgA==", "0x1p+99999"),
    "nan_value": _edited(CHECKPOINT_TEXT, "AAAAAAAA8D8AAAAAAADwv4O2OtKXEsAB", _f8(1.0, -1.0, float("nan"))),
    "inf_value": _edited(CHECKPOINT_TEXT, "AAAAAAAA8D8AAAAAAADwv4O2OtKXEsAB", _f8(1.0, float("-inf"), 3e-300)),
    "v1_file": V1_TEXTS["checkpoint"],
    "v2_file": V2_TEXTS["checkpoint"],
    "v3_file": V3_TEXTS["checkpoint"],
    "v4_file": V4_TEXTS["checkpoint"],
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
    "text_after_the_version": _after_version(MASK_TEXT, MASK_V4_ATTRS),
    "bad_header_attribute": _after_version(MASK_TEXT, MASK_V4_ATTRS.replace('"origin"', '"source"')),
    "bad_sparsity": _after_version(MASK_TEXT, MASK_V4_ATTRS.replace('"sparsity": 0.1', '"sparsity": "zz"')),
    "v1_file": V1_TEXTS["mask"],
    "v2_file": V2_TEXTS["mask"],
    "v3_file": V3_TEXTS["mask"],
    "v4_file": V4_TEXTS["mask"],
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
                                         rf"\(want 'dosapp-{kind} v5'\)"):
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


@pytest.mark.parametrize("kind", sorted(V4_TEXTS))
def test_a_v4_file_is_an_unsupported_header(tmp_path, kind):
    _assert_unsupported(tmp_path, kind, V4_TEXTS[kind])


# The header is the magic and the version alone; any more text on its line is rejected, so the
# reader is called directly with each file signed as written.
TEXT_AFTER_THE_VERSION = {
    "json_object": ' {"samples": 17, "task": 3}',
    "trailing_space": " ",
    "second_version": " v5",
}


@pytest.mark.parametrize("case", sorted(TEXT_AFTER_THE_VERSION))
def test_text_after_the_version_is_rejected(tmp_path, case):
    path = tmp_path / "r"
    write_records(path, "dosapp-test", [("w", np.ones(1))])
    assert read_records(path, "dosapp-test", float).keys() == {"w"}
    text = _edited(path.read_text(), "dosapp-test v5\n", f"dosapp-test v5{TEXT_AFTER_THE_VERSION[case]}\n")
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"unsupported header .* in {re.escape(str(path))}"):
        read_records(path, "dosapp-test", float)


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
        write_records(path, "dosapp-test", [("ok", np.ones(1)), (name, arr)])
    assert not path.exists()


def test_empty_arrays_and_odd_names_read_back(tmp_path):
    path = tmp_path / "r"
    records = {"a shape=2": np.zeros((2, 0)), " spaced ": np.array([-0.0, 5e-324, 1.7976931348623157e308]),
               "end": np.ones(1)}
    write_records(path, "dosapp-test", records.items())
    back = read_records(path, "dosapp-test", float)
    assert list(back) == list(records)
    for name, arr in records.items():
        assert back[name].shape == arr.shape and back[name].tobytes() == arr.tobytes(), name
