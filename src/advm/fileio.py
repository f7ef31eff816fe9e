"""Atomic file writes, and the one checked reader of JSON manifests.

Artifacts (tensors, model files, reports) are written to a temporary
file in the destination directory and moved into place with os.replace,
so a crash mid-write never leaves a truncated artifact behind.

A manifest (a model file's header line, an attack set's manifest.json) is
one JSON object with a format and a version; parse_manifest parses it once
and checks it against a nested key -> type table.
"""

import json
import os
import tempfile

from .errors import CorruptFile, VersionMismatch

# How parse_manifest names an expected type: in JSON's words, since the text is JSON.
_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def parse_manifest(data: bytes, path: str, fmt: str, version: int, fields: dict) -> dict:
    """The JSON object in data, UTF-8 read from path, once format, version and fields check out.

    fields maps each required key to its value's type, compared with `type(v) is T`
    so a bool is never an int; `object` takes any value, and a nested dict is a
    sub-object's table, where key "*" stands for every key. A failure is a
    CorruptFile (VersionMismatch for another version) that names the key path.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # RecursionError: nested too deep
        raise CorruptFile(f"unreadable manifest {path}: {exc}") from exc
    if type(doc) is not dict:
        raise CorruptFile(f"{path} is not a JSON object")
    found = (doc.get("format"), doc.get("version"))
    if found != (fmt, version) or type(found[1]) is not int:
        error = VersionMismatch if found[0] == fmt else CorruptFile
        raise error(f"{path}: expected format {fmt} version {version}, got "
                    f"{found[0]!r} version {found[1]!r}")
    _check_fields(doc, fields, path, "")
    return doc


def _check_fields(obj: dict, fields: dict, path: str, where: str) -> None:
    for key, kind in fields.items():
        for k in obj if key == "*" else (key,):
            if k not in obj:
                raise CorruptFile(f"{path} lacks {where}{k}")
            got = type(obj[k]).__name__
            if type(kind) is dict:
                if got != "dict":
                    raise CorruptFile(f"{path}: {where}{k} is a {got}, not an object")
                _check_fields(obj[k], kind, path, f"{where}{k}.")
            elif kind is not object and type(obj[k]) is not kind:
                raise CorruptFile(f"{path}: {where}{k} must be {_KINDS[kind]}, got {got}")
