"""Fuzzing the stored artifacts the CLI reads: a damaged file is refused.

Each test starts from one valid artifact (a trained model, an attack set
with its manifest, an IDX image/label pair), damages it in one way that leaves it invalid, runs the command that
reads it under CliRunner, and asserts a clean refusal: exit code 1 or 2, no
Python traceback, and no output file. The damages are: a required key
dropped, a value (or a spec size) of another JSON type, NaN planted, huge
dimensions declared, the text truncated, and bytes flipped to non-UTF-8; a
model file's float64 payload cut, lengthened, or with a value's exponent
bits flipped on, and the whole file cut in its header or payload; an IDX header word changed, a label past the
surrogate's classes, or an IDX file cut or lengthened; a stored .emtn
tensor cut, with a flipped magic or version byte, a rank
above 32, dims that disagree with its payload, a zero dim, or a NaN or
out-of-range pixel. A damaged tensor's refusal must also name the file and
say what is wrong with it.
Each damaged attack set also goes to load_attack_set itself: it refuses the
set with an AdvmError that names the manifest or the tensor, and the same
text is what eval printed; a label outside the target's classes is the one
damage it passes on, for the scorer to refuse.
The attack-set keys come from the manifest's own field table, so a field
added there is fuzzed too, and one element of each of its lists is retyped.
Hypothesis runs derandomized and without an example database, so every run
draws the same examples.
"""

import copy
import json
import os
import shutil
import struct
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from advm.cli import main
from advm.errors import CorruptFile, EmptyDataset, VersionMismatch
from advm.evaluate import _ADVSET_FIELDS, load_attack_set

from conftest import decode_model, param_order

_FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# Stand-ins for a value of the wrong JSON type; a damage picks one whose type differs.
_VALUES = (None, True, False, 0, 7, -1, 0.5, float("nan"), "", "text", [], [1], ["a"], {},
           {"k": 1})
_HUGE = st.integers(10**5, 2**31 - 1)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A trained model, an attack set crafted on it, and an IDX pair."""
    root = tmp_path_factory.mktemp("fuzz")
    runner = CliRunner()
    result = runner.invoke(main, ["train", "--arch", "logistic", "--epochs", "1",
                                  "--dataset", "synthetic:2x3x6:0.05", "--seed", "3",
                                  "--out", str(root / "surr.json")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["attack", "--surrogate", str(root / "surr.json"),
                                  "--dataset", "synthetic:2x2x6:0.05", "--attack", "i-fgsm",
                                  "--iters", "1", "--seed", "3", "--out", str(root / "advset")])
    assert result.exit_code == 0, result.output
    (root / "imgs.idx").write_bytes(_IDX_IMAGES)
    (root / "lbls.idx").write_bytes(_IDX_LABELS)
    return root


def _assert_refused(result, written):
    assert result.exit_code in (1, 2), result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
    assert not os.path.exists(written)


def _at(doc, path):
    """The container holding path's last key, and that key."""
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def _other_type(data, old):
    return data.draw(st.sampled_from([v for v in _VALUES if type(v) is not type(old)]))


def _damage_text(data, text: str, cuts: tuple) -> bytes:
    """The text cut to a length in cuts, or one of its ASCII bytes flipped
    above 0x7f: between ASCII neighbours that is never valid UTF-8."""
    if data.draw(st.booleans()):
        return text[:data.draw(st.integers(*cuts))].encode()
    raw = bytearray(text.encode())
    i = data.draw(st.integers(0, len(raw) - 1))
    raw[i] = raw[i] ^ data.draw(st.integers(0x80, 0xFF))
    return bytes(raw)


def _damage_json(data, doc: dict, paths: list, damages: dict) -> bytes:
    """A required key dropped or retyped, one of the artifact's own damages,
    or the text truncated or flipped."""
    kind = data.draw(st.sampled_from(["drop", "retype", "text", *damages]))
    doc = copy.deepcopy(doc)
    if kind == "text":   # any cut loses at least the closing brace
        text = json.dumps(doc, sort_keys=True)
        return _damage_text(data, text, (0, len(text) - 1))
    if kind in ("drop", "retype"):
        parent, key = _at(doc, data.draw(st.sampled_from(paths)))
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = _other_type(data, parent[key])
    else:
        damages[kind](data, doc)
    return json.dumps(doc, sort_keys=True).encode()


# -- models: advm attack --surrogate and advm eval --targets ------------------------


def _plant_nan_in_spec(data, doc):
    doc["spec"][data.draw(st.sampled_from(["num_classes", "seed", "conv_kernel"]))] = \
        float("nan")


def _retype_a_spec_size(data, doc):
    """An input side of equal value but another JSON type: 1 as true, 6 as 6.0."""
    sizes = doc["spec"]["input_shape"]
    i = data.draw(st.integers(0, len(sizes) - 1))
    v = sizes[i]
    sizes[i] = data.draw(st.sampled_from([float(v), str(v), [v]] + ([True] if v == 1 else [])))


def _declare_huge_model_dims(data, doc):
    if data.draw(st.booleans()):
        doc["spec"]["input_shape"] = [data.draw(_HUGE), data.draw(_HUGE), 1]
    else:
        entry = doc["params"][data.draw(st.sampled_from(sorted(doc["params"])))]
        entry["shape"] = [data.draw(_HUGE) for _ in entry["shape"]]


def _damage_payload(data, params: dict, payload: bytes) -> bytes:
    """The raw float64 payload cut or lengthened, one value's exponent bits all
    flipped on (an infinity or a NaN), or a NaN or infinity planted by value."""
    edit = data.draw(st.sampled_from(["cut", "flip", "nan", "one value more",
                                      "one value fewer", "trailing bytes"]))
    if edit == "cut":
        return payload[:-data.draw(st.integers(1, len(payload)))]
    if edit == "flip":
        # a little-endian float64's 11 exponent bits: the low 7 of its last byte
        # and the high 4 of the byte before; set them all, the sign untouched
        raw = bytearray(payload)
        i = 8 * data.draw(st.integers(0, len(raw) // 8 - 1))
        raw[i + 6] |= 0xF0
        raw[i + 7] |= 0x7F
        return bytes(raw)
    if edit == "nan":
        values = np.concatenate([params[k].reshape(-1) for k in param_order(params)])
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        return values.astype("<f8").tobytes()
    if edit == "one value more":
        return payload + struct.pack("<d", 0.5)
    if edit == "one value fewer":
        return payload[:-8]
    return payload + bytes(data.draw(st.integers(1, 7)))


@_FUZZ
@given(data=st.data())
def test_a_damaged_model_is_refused_by_attack_and_eval(artifacts, data):
    with open(artifacts / "surr.json", "rb") as fh:
        raw = fh.read()
    doc, params = decode_model(raw)
    paths = [("format",), ("version",), ("name",), ("spec",), ("params",)]
    paths += [("spec", key) for key in doc["spec"]]
    for p in doc["params"]:
        paths += [("params", p), ("params", p, "shape")]
    head, _, payload = raw.partition(b"\n")
    kind = data.draw(st.sampled_from(["header", "payload", "cut"]))
    if kind == "header":   # its text cut or flipped, or a key dropped, retyped or edited
        damaged = _damage_json(data, doc, paths, {"nan": _plant_nan_in_spec,
                                                  "size": _retype_a_spec_size,
                                                  "huge": _declare_huge_model_dims})
        damaged += b"\n" + payload
    elif kind == "payload":
        damaged = head + b"\n" + _damage_payload(data, params, payload)
    else:   # the whole file cut short, in its header or in its payload
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1))]
    with tempfile.TemporaryDirectory(dir=artifacts) as scratch:
        model = os.path.join(scratch, "model.json")
        with open(model, "wb") as fh:
            fh.write(damaged)
        out = os.path.join(scratch, "advset")
        _assert_refused(CliRunner().invoke(main, ["attack", "--surrogate", model, "--dataset",
                                                  "synthetic:2x2x6", "--out", out]), out)
        out = os.path.join(scratch, "report.csv")
        _assert_refused(CliRunner().invoke(main, ["eval", "--adv", str(artifacts / "advset"),
                                                  "--targets", model, "--out", out]), out)


# -- attack sets: advm eval --adv ---------------------------------------------------


def _plant_nan_in_advset(data, doc):
    if data.draw(st.booleans()):
        doc["count"] = float("nan")
    else:
        doc["labels"][data.draw(st.integers(0, len(doc["labels"]) - 1))] = float("nan")


def _declare_a_huge_count(data, doc):
    doc["count"] = data.draw(_HUGE)


def _break_a_listed_value(data, doc):
    key, value = data.draw(st.sampled_from([
        ("files", "../" + doc["files"][0]), ("files", "/etc/passwd"), ("files", ""),
        ("files", ".."), ("files", "missing.emtn"), ("files", 3),
        ("labels", 99), ("labels", -1), ("labels", "cat"), ("labels", True), ("labels", 1.0),
        ("surrogates", ""), ("surrogates", 1),
    ]))
    doc[key][data.draw(st.integers(0, len(doc[key]) - 1))] = value


def _shorten_a_list(data, doc):
    key = data.draw(st.sampled_from([k for k, kind in _ADVSET_FIELDS.items() if kind is list]))
    doc[key] = doc[key][:data.draw(st.integers(0, len(doc[key]) - 1))]


def _assert_load_refused(adv_dir, result, tensors):
    """load_attack_set refuses adv_dir as eval did, naming its manifest or one of
    tensors; a set it loads must have been refused by eval for a label."""
    try:
        load_attack_set(adv_dir)
    except (CorruptFile, EmptyDataset, VersionMismatch) as exc:
        named = [os.path.join(adv_dir, "manifest.json"),
                 *(f"unreadable adversarial tensor {name}: " for name in tensors)]
        assert any(n in str(exc) for n in named), str(exc)
        assert f"Error: {type(exc).__name__}: {exc}" in result.output, result.output
    else:
        assert "Error: LabelOutOfRange: label " in result.output, result.output


@_FUZZ
@given(data=st.data())
def test_a_damaged_attack_set_is_refused_by_eval(artifacts, data):
    with open(artifacts / "advset" / "manifest.json") as fh:
        doc = json.load(fh)
    paths = [(key,) for key in ("format", "version", *_ADVSET_FIELDS)]
    with tempfile.TemporaryDirectory(dir=artifacts) as scratch:
        adv_dir = os.path.join(scratch, "advset")
        shutil.copytree(artifacts / "advset", adv_dir)
        if data.draw(st.integers(0, 9)) == 0:   # a tensor that declares huge dims
            with open(os.path.join(adv_dir, doc["files"][0]), "r+b") as fh:
                fh.seek(9 + 4 * data.draw(st.integers(0, 2)))
                fh.write(struct.pack("<I", data.draw(_HUGE)))
        else:
            damaged = _damage_json(data, doc, paths, {"nan": _plant_nan_in_advset,
                                                      "huge": _declare_a_huge_count,
                                                      "value": _break_a_listed_value,
                                                      "short": _shorten_a_list})
            with open(os.path.join(adv_dir, "manifest.json"), "wb") as fh:
                fh.write(damaged)
        out = os.path.join(scratch, "report.csv")
        result = CliRunner().invoke(main, ["eval", "--adv", adv_dir, "--targets",
                                           str(artifacts / "surr.json"), "--out", out])
        _assert_refused(result, out)
        _assert_load_refused(adv_dir, result, [*doc["files"], "missing.emtn"])


_LIST_FIELDS = [key for key, kind in _ADVSET_FIELDS.items() if kind is list]


@pytest.mark.parametrize("key", _LIST_FIELDS)
def test_an_attack_set_list_element_of_another_type_is_refused_by_eval(artifacts, key):
    with open(artifacts / "advset" / "manifest.json") as fh:
        doc = json.load(fh)
    bad = [v for v in _VALUES if type(v) is not type(doc[key][0])]
    for j, value in enumerate(bad):
        damaged = copy.deepcopy(doc)
        damaged[key][j % len(damaged[key])] = value
        with tempfile.TemporaryDirectory(dir=artifacts) as scratch:
            adv_dir = os.path.join(scratch, "advset")
            shutil.copytree(artifacts / "advset", adv_dir)
            with open(os.path.join(adv_dir, "manifest.json"), "w") as fh:
                json.dump(damaged, fh, sort_keys=True)
            out = os.path.join(scratch, "report.csv")
            result = CliRunner().invoke(main, ["eval", "--adv", adv_dir, "--targets",
                                               str(artifacts / "surr.json"), "--out", out])
            _assert_refused(result, out)
            _assert_load_refused(adv_dir, result, [])


# -- stored tensors: advm eval --adv -------------------------------------------------

# Each damage of a stored rank-3 .emtn tensor, with the text its refusal must carry.
_TENSOR_DAMAGES = {
    "cut in header": "shorter than its fixed header",
    "cut in dims": "truncated inside the dims block",
    "cut in payload": "payload bytes",
    "magic": "expected b'EMTN'",
    "version": "unsupported tensor format version",
    "rank": "implausible tensor rank",
    "dims disagree": "payload bytes",
    "zero dim": "payload bytes",
    "zero-size tensor": "expected a non-empty image, got shape",
    "nan": "non-finite",
    "out of range": "outside [0, 1]",
}
_PAYLOAD = 9 + 4 * 3   # magic, version and rank, then three dims
_TENSOR_FUZZ = settings(_FUZZ, max_examples=10)


def _damage_tensor(data, kind: str, blob: bytes) -> bytes:
    """The tensor blob damaged in the one way kind names."""
    raw = bytearray(blob)
    dim = 9 + 4 * data.draw(st.integers(0, 2))
    if kind.startswith("cut"):
        low, high = {"cut in header": (0, 8), "cut in dims": (9, _PAYLOAD - 1),
                     "cut in payload": (_PAYLOAD, len(raw) - 1)}[kind]
        return blob[:data.draw(st.integers(low, high))]
    if kind == "magic":
        raw[data.draw(st.integers(0, 3))] ^= data.draw(st.integers(1, 255))
    elif kind == "version":
        raw[4] = data.draw(st.integers(0, 255).filter(lambda v: v != 1))
    elif kind == "rank":
        struct.pack_into("<I", raw, 5, data.draw(st.integers(33, 2**32 - 1)))
    elif kind == "dims disagree":   # one side changed, or payload bytes added
        if data.draw(st.booleans()):
            old = struct.unpack_from("<I", raw, dim)[0]
            struct.pack_into("<I", raw, dim,
                             data.draw(st.integers(1, 64).filter(lambda v: v != old)))
        else:
            raw += bytes(data.draw(st.integers(1, 64)))
    elif kind in ("zero dim", "zero-size tensor"):
        struct.pack_into("<I", raw, dim, 0)
        if kind == "zero-size tensor":   # a valid .emtn that holds no pixel
            del raw[_PAYLOAD:]
    else:
        pixel = _PAYLOAD + 8 * data.draw(st.integers(0, (len(raw) - _PAYLOAD) // 8 - 1))
        bad = ((float("nan"), float("inf"), float("-inf")) if kind == "nan"
               else (-0.5, 1.5, -1e-9, 1.0 + 1e-9, -1e300, 1e300))
        struct.pack_into("<d", raw, pixel, data.draw(st.sampled_from(bad)))
    return bytes(raw)


@pytest.mark.parametrize("kind", list(_TENSOR_DAMAGES))
@_TENSOR_FUZZ
@given(data=st.data())
def test_a_damaged_tensor_is_refused_by_eval(artifacts, kind, data):
    with open(artifacts / "advset" / "manifest.json") as fh:
        name = data.draw(st.sampled_from(json.load(fh)["files"]))
    with tempfile.TemporaryDirectory(dir=artifacts) as scratch:
        adv_dir = os.path.join(scratch, "advset")
        shutil.copytree(artifacts / "advset", adv_dir)
        path = os.path.join(adv_dir, name)
        with open(path, "rb") as fh:
            damaged = _damage_tensor(data, kind, fh.read())
        with open(path, "wb") as fh:
            fh.write(damaged)
        out = os.path.join(scratch, "report.csv")
        result = CliRunner().invoke(main, ["eval", "--adv", adv_dir, "--targets",
                                           str(artifacts / "surr.json"), "--out", out])
        _assert_refused(result, out)
        assert f"unreadable adversarial tensor {name}: " in result.output
        assert _TENSOR_DAMAGES[kind] in result.output, result.output
        with pytest.raises(CorruptFile, match=f"unreadable adversarial tensor {name}: "):
            load_attack_set(adv_dir)


# -- IDX pairs: advm attack --dataset idx:IMAGES,LABELS -------------------------------

# Four 6x6 images labeled 0, 1, 0, 1: the surrogate's input shape and classes.
_IDX_IMAGES = struct.pack(">4I", 0x803, 4, 6, 6) + bytes((i * 37) % 256 for i in range(144))
_IDX_LABELS = struct.pack(">2I", 0x801, 4) + bytes([0, 1, 0, 1])
# (file, header word): the image magic, count, rows and cols; the label magic and count.
_IDX_WORDS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1))


def _damage_idx(data) -> list:
    """The pair with one header word changed, a label past the surrogate's two
    classes, or one file cut short or lengthened."""
    files = [bytearray(_IDX_IMAGES), bytearray(_IDX_LABELS)]
    kind = data.draw(st.sampled_from(["header", "label", "cut", "extend"]))
    f = data.draw(st.integers(0, 1))
    if kind == "header":   # any one changed word breaks the magic or the payload size
        f, word = data.draw(st.sampled_from(_IDX_WORDS))
        old = struct.unpack_from(">I", files[f], 4 * word)[0]
        new = data.draw(st.one_of(st.integers(0, 9), _HUGE, st.just(2**32 - 1))
                        .filter(lambda v: v != old))
        struct.pack_into(">I", files[f], 4 * word, new)
    elif kind == "label":
        files[1][8 + data.draw(st.integers(0, 3))] = data.draw(st.integers(2, 255))
    elif kind == "cut":
        files[f] = files[f][:data.draw(st.integers(0, len(files[f]) - 1))]
    else:
        files[f] += bytes(data.draw(st.integers(1, 64)))
    return files


@_FUZZ
@given(data=st.data())
def test_a_damaged_idx_pair_is_refused_by_attack(artifacts, data):
    with tempfile.TemporaryDirectory(dir=artifacts) as scratch:
        paths = [os.path.join(scratch, name) for name in ("imgs.idx", "lbls.idx")]
        for path, raw in zip(paths, _damage_idx(data)):
            with open(path, "wb") as fh:
                fh.write(raw)
        out = os.path.join(scratch, "advset")
        _assert_refused(CliRunner().invoke(main, ["attack", "--surrogate",
                                                  str(artifacts / "surr.json"), "--dataset",
                                                  f"idx:{paths[0]},{paths[1]}", "--out", out]),
                        out)


def test_the_undamaged_artifacts_are_accepted(artifacts, tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["attack", "--surrogate", str(artifacts / "surr.json"),
                                  "--dataset", "synthetic:2x2x6", "--out", str(tmp_path / "a")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["eval", "--adv", str(artifacts / "advset"), "--targets",
                                  str(artifacts / "surr.json"), "--out", str(tmp_path / "r.csv")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["attack", "--surrogate", str(artifacts / "surr.json"),
                                  "--dataset", f"idx:{artifacts / 'imgs.idx'},"
                                  f"{artifacts / 'lbls.idx'}", "--attack", "i-fgsm",
                                  "--iters", "1", "--out", str(tmp_path / "b")])
    assert result.exit_code == 0, result.output
