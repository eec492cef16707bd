"""Plain-text model container.

Layout, in order, one array block per parameter tensor:

    GRUCDR 1
    dims <input> <hidden> <output>
    <name> <dim> [<dim>]
    <row of repr() floats, space-separated>
    ...
    norm_offset <dim>
    norm_scale <dim>
    end

repr() floats round-trip exactly through float(), so a save/load cycle
reproduces bit-identical weights. The trailing ``end`` line guards against
truncated files.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadMagicError,
    DimensionMismatchError,
    ModelFormatError,
    TruncatedFileError,
    VersionMismatchError,
)
from .gru import GruParams, param_shapes
from .training import Normalizer

MAGIC = "GRUCDR"
VERSION = 1


def _emit_array(lines: list[str], name: str, arr: np.ndarray) -> None:
    dims = " ".join(str(n) for n in arr.shape)
    lines.append(f"{name} {dims}")
    rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
    for row in rows:
        lines.append(" ".join(repr(float(v)) for v in row))


def dumps_model(p: GruParams, norm: Normalizer) -> str:
    p.validate()
    if norm.offset.shape != (p.input_dim,):
        raise DimensionMismatchError(
            f"normalizer dim {norm.offset.shape} does not match input dim {p.input_dim}")
    lines = [f"{MAGIC} {VERSION}", f"dims {p.input_dim} {p.hidden_dim} {p.output_dim}"]
    for name, arr in p.arrays().items():
        _emit_array(lines, name, arr)
    _emit_array(lines, "norm_offset", norm.offset)
    _emit_array(lines, "norm_scale", norm.scale)
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_line(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        raise TruncatedFileError("unexpected end of model file")

    def at_end(self) -> bool:
        return all(not line.strip() for line in self.lines[self.pos:])


def _read_array(reader: _Reader, name: str, shape: tuple[int, ...]) -> np.ndarray:
    header = reader.next_line().split()
    if header[0] != name:
        raise ModelFormatError(f"expected array {name!r}, found {header[0]!r}")
    try:
        dims = tuple(int(v) for v in header[1:])
    except ValueError as exc:
        raise ModelFormatError(f"bad dimensions for {name}: {header[1:]}") from exc
    if dims != shape:
        raise DimensionMismatchError(f"{name} has dims {dims}, expected {shape}")
    n_rows = 1 if len(shape) == 1 else shape[0]
    row_len = shape[-1]
    values = []
    for _ in range(n_rows):
        parts = reader.next_line().split()
        if len(parts) != row_len:
            raise ModelFormatError(f"{name}: row has {len(parts)} values, expected {row_len}")
        try:
            values.append([float(v) for v in parts])
        except ValueError as exc:
            raise ModelFormatError(f"{name}: unparseable float") from exc
    return np.array(values, dtype=np.float64).reshape(shape)


def loads_model(text: str) -> tuple[GruParams, Normalizer]:
    reader = _Reader(text)
    try:
        header = reader.next_line().split()
    except TruncatedFileError:
        raise BadMagicError("not a model file (empty)") from None
    if not header or header[0] != MAGIC:
        raise BadMagicError(f"not a model file (magic {header[0]!r})" if header
                            else "not a model file (empty)")
    if len(header) != 2 or not header[1].isdigit():
        raise ModelFormatError(f"malformed header: {' '.join(header)}")
    if int(header[1]) != VERSION:
        raise VersionMismatchError(f"unsupported model version {header[1]}")

    dims_line = reader.next_line().split()
    if dims_line[0] != "dims" or len(dims_line) != 4:
        raise ModelFormatError("missing dims line")
    try:
        d, h, o = (int(v) for v in dims_line[1:])
    except ValueError as exc:
        raise ModelFormatError(f"bad dims: {dims_line[1:]}") from exc
    if min(d, h, o) < 1:
        raise DimensionMismatchError(f"dims must be positive, got {d} {h} {o}")

    shapes = {**param_shapes(d, h, o), "norm_offset": (d,), "norm_scale": (d,)}
    arrays = {name: _read_array(reader, name, shape) for name, shape in shapes.items()}
    if reader.next_line() != "end":
        raise ModelFormatError("missing end marker")
    if not reader.at_end():
        raise ModelFormatError("trailing content after end marker")

    norm = Normalizer(offset=arrays.pop("norm_offset"), scale=arrays.pop("norm_scale"))
    p = GruParams(**arrays)
    p.validate()
    return p, norm


def save_model(path, p: GruParams, norm: Normalizer) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_model(p, norm))


def load_model(path) -> tuple[GruParams, Normalizer]:
    with open(path, encoding="utf-8") as fh:
        return loads_model(fh.read())
