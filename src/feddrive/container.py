"""Deterministic binary container for checkpoints.

Byte layout (all integers little-endian):

    offset 0   8 bytes   magic ``b"FDCKPT1\\n"``
    offset 8   4 bytes   uint32 header length H
    offset 12  H bytes   UTF-8 JSON header
    offset 12+H          raw array payload

Header JSON (keys sorted, compact separators, so identical content produces
identical bytes):

    {
      "format_version": 1,
      "arrays": [{"name": str, "dtype": str, "shape": [int, ...],
                  "offset": int, "nbytes": int}, ...],
      "meta": {... JSON-serializable metadata ...}
    }

Array payloads are C-order little-endian, concatenated in header order.
Unlike zip-based formats there are no timestamps, so writing the same
content twice yields byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"FDCKPT1\n"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """Corrupt, truncated, or unsupported checkpoint file."""


def save_container(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write the header, then each array's bytes straight from a little-endian C-order view."""
    payload, entries, offset = [], [], 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        entries.append(
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes}
        )
        payload.append(arr)
        offset += arr.nbytes
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "arrays": entries, "meta": meta},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for arr in payload:
            f.write(memoryview(arr))


def load_container(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise ContainerError(f"{path}: not a checkpoint container (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_start = len(MAGIC) + 4
    header_end = header_start + header_len
    if len(blob) < header_end:
        raise ContainerError(f"{path}: truncated header")
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: corrupt header: {exc}") from None
    if header.get("format_version") != FORMAT_VERSION:
        raise ContainerError(
            f"{path}: unsupported format version {header.get('format_version')!r}"
        )
    entries, meta = header.get("arrays"), header.get("meta")
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise ContainerError(f"{path}: header needs an 'arrays' list and a 'meta' object")
    view = memoryview(blob)
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        try:
            name, dtype, shape = str(entry["name"]), np.dtype(entry["dtype"]), [int(n) for n in entry["shape"]]
            offset, nbytes = int(entry["offset"]), int(entry["nbytes"])
        except (KeyError, TypeError, ValueError):
            raise ContainerError(f"{path}: malformed array entry {entry!r}") from None
        if dtype.kind not in "biuf":  # feddrive writes float64 and int64 arrays only
            raise ContainerError(f"{path}: array {name!r} has dtype {dtype.str}, not bool, int, uint or float")
        if offset < 0 or nbytes < 0:
            raise ContainerError(f"{path}: array {name!r} has a negative offset or size")
        if min(shape, default=0) < 0 or nbytes != math.prod(shape) * dtype.itemsize:
            raise ContainerError(
                f"{path}: array {name!r} holds {nbytes} bytes, not shape {shape} of {dtype.str}"
            )
        start = header_end + offset
        if len(blob) < start + nbytes:
            raise ContainerError(f"{path}: truncated payload for array {name!r}")
        arrays[name] = np.frombuffer(view[start : start + nbytes], dtype=dtype).reshape(shape).copy()
    return arrays, meta
