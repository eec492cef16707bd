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
    quoted,
)
from .gru import GruParams, param_shapes
from .ingest import read_lines
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


def _next_line(lines) -> tuple[int, list[str]]:
    """The next (line number, words) of lines; TruncatedFileError at the end."""
    for numbered in lines:
        return numbered
    raise TruncatedFileError("unexpected end of model file")


def _read_array(lines, name: str, shape: tuple[int, ...]) -> np.ndarray:
    no, header = _next_line(lines)
    if header[0] != name:
        raise ModelFormatError(f"line {no}: expected array {name!r}, found {quoted(header[0])}")
    try:
        dims = tuple(int(v) for v in header[1:])
    except ValueError as exc:
        raise ModelFormatError(
            f"line {no}: bad dimensions for {name}: {quoted(header[1:], str)}") from exc
    if dims != shape:
        raise DimensionMismatchError(f"line {no}: {name} has dims {dims}, expected {shape}")
    n_rows = 1 if len(shape) == 1 else shape[0]
    row_len = shape[-1]
    values = []
    for _ in range(n_rows):
        no, parts = _next_line(lines)
        if len(parts) != row_len:
            raise ModelFormatError(
                f"line {no}: {name}: row has {len(parts)} values, expected {row_len}")
        try:
            values.append([float(v) for v in parts])
        except ValueError as exc:
            raise ModelFormatError(f"line {no}: {name}: unparseable float") from exc
    return np.array(values, dtype=np.float64).reshape(shape)


def loads_model(text) -> tuple[GruParams, Normalizer]:
    """The model and normalizer in text, checked line by line.

    text is the whole file, or its lines without line ends (as
    str.splitlines or read_lines gives them), which are read only up to the
    first line in error: a file that is not a model is refused at line 1.
    A refusal made at a line names it (`line N: `), blank lines counted;
    an empty file and one that ends early are refused as such.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    lines = ((no, words) for no, words in enumerate(map(str.split, lines), 1) if words)
    try:
        no, header = _next_line(lines)
    except TruncatedFileError:
        raise BadMagicError("not a model file (empty)") from None
    if header[0] != MAGIC:
        raise BadMagicError(f"line {no}: not a model file (magic {quoted(header[0])})")
    if len(header) != 2 or not header[1].isdigit():
        raise ModelFormatError(f"line {no}: malformed header: {quoted(' '.join(header), str)}")
    if int(header[1]) != VERSION:
        raise VersionMismatchError(f"line {no}: unsupported model version {header[1]}")

    no, dims_line = _next_line(lines)
    if dims_line[0] != "dims" or len(dims_line) != 4:
        raise ModelFormatError(f"line {no}: missing dims line")
    try:
        d, h, o = (int(v) for v in dims_line[1:])
    except ValueError as exc:
        raise ModelFormatError(f"line {no}: bad dims: {quoted(dims_line[1:], str)}") from exc
    if min(d, h, o) < 1:
        raise DimensionMismatchError(f"line {no}: dims must be positive, got {d} {h} {o}")

    shapes = {**param_shapes(d, h, o), "norm_offset": (d,), "norm_scale": (d,)}
    arrays = {name: _read_array(lines, name, shape) for name, shape in shapes.items()}
    no, end = _next_line(lines)
    if end != ["end"]:
        raise ModelFormatError(f"line {no}: missing end marker")
    if (extra := next(lines, None)) is not None:
        raise ModelFormatError(f"line {extra[0]}: trailing content after end marker")

    norm = Normalizer(offset=arrays.pop("norm_offset"), scale=arrays.pop("norm_scale"))
    p = GruParams(**arrays)
    p.validate()
    return p, norm


def save_model(path, p: GruParams, norm: Normalizer) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_model(p, norm))


def load_model(path) -> tuple[GruParams, Normalizer]:
    # read block by block: a refused line stops the read there
    with open(path, encoding="utf-8") as fh:
        return loads_model(read_lines(fh))
