import tracemalloc

import numpy as np
import pytest

from cdrsweep import (
    BadMagicError,
    DimensionMismatchError,
    ModelFormatError,
    NonFiniteInputError,
    Normalizer,
    TruncatedFileError,
    VersionMismatchError,
    dumps_model,
    init_params,
    load_model,
    loads_model,
    save_model,
)


def make_pair(seed=0, h=5, d=4, o=4):
    rng = np.random.default_rng(seed)
    p = init_params(d, h, o, rng)
    for arr in p.arrays().values():
        arr += rng.normal(scale=0.7, size=arr.shape)
    norm = Normalizer(offset=rng.normal(size=d), scale=rng.uniform(0.5, 3.0, size=d))
    return p, norm


def test_roundtrip_is_bit_exact():
    p, norm = make_pair()
    back_p, back_norm = loads_model(dumps_model(p, norm))
    for name, arr in p.arrays().items():
        assert np.array_equal(arr, getattr(back_p, name)), name
    assert np.array_equal(norm.offset, back_norm.offset)
    assert np.array_equal(norm.scale, back_norm.scale)


def test_roundtrip_through_a_file(tmp_path):
    p, norm = make_pair(seed=3)
    path = tmp_path / "model.txt"
    save_model(path, p, norm)
    back_p, back_norm = load_model(path)
    assert np.array_equal(p.W_out, back_p.W_out)
    assert np.array_equal(norm.scale, back_norm.scale)
    # serialization is deterministic
    save_model(tmp_path / "again.txt", p, norm)
    assert path.read_bytes() == (tmp_path / "again.txt").read_bytes()


def test_header_and_layout():
    p, norm = make_pair(h=2)
    lines = dumps_model(p, norm).splitlines()
    assert lines[0] == "GRUCDR 1"
    assert lines[1] == "dims 4 2 4"
    assert lines[2].startswith("W_r 2 2")
    assert lines[-1] == "end"


def test_bad_magic_and_version():
    p, norm = make_pair()
    text = dumps_model(p, norm)
    with pytest.raises(BadMagicError):
        loads_model(text.replace("GRUCDR 1", "NOTAMODEL 1", 1))
    with pytest.raises(VersionMismatchError):
        loads_model(text.replace("GRUCDR 1", "GRUCDR 2", 1))
    with pytest.raises(BadMagicError):
        loads_model("")


def test_load_model_refuses_a_file_that_is_not_a_model_at_line_1(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("time,A,B,C,D\n" + "2013-11-17T22:10:00Z,1,2,3,4\n" * 830_000)
    assert path.stat().st_size > 24 * 10**6
    tracemalloc.start()
    try:
        with pytest.raises(BadMagicError,
                           match="^line 1: not a model file \\(magic 'time,A,B,C,D'\\)$"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the whole file read first peaked at 154 MB


def test_truncation_detected():
    p, norm = make_pair()
    lines = dumps_model(p, norm).splitlines()
    with pytest.raises(TruncatedFileError):
        loads_model("\n".join(lines[:10]))
    # a file cut just before its end marker is truncated too
    with pytest.raises(TruncatedFileError):
        loads_model("\n".join(lines[:-1]))


def _edit_line(text, i, new):
    lines = text.splitlines()
    lines[i] = new(lines[i])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("i, edit, message", [
    (0, lambda s: s + " x", "malformed header: GRUCDR 1 x"),
    (0, lambda s: "GRUCDR one", "malformed header: GRUCDR one"),
    (1, lambda s: s.replace("dims", "dimz"), "missing dims line"),
    (1, lambda s: s + " 4", "missing dims line"),
    (1, lambda s: s.replace(" 2 ", " two "), r"bad dims: \['4', 'two', '4'\]"),
    (2, lambda s: s + " x", r"bad dimensions for W_r: \['2', '2', 'x'\]"),
    (3, lambda s: s.rsplit(" ", 1)[0], "W_r: row has 1 values, expected 2"),
    (-1, lambda s: "fin", "missing end marker"),
    (35, lambda s: s.replace("norm_scale", "norm_sc"),
     "expected array 'norm_scale', found 'norm_sc'"),
])
def test_each_format_error_names_what_is_wrong(i, edit, message):
    p, norm = make_pair(h=2)
    text = dumps_model(p, norm)
    line_no = range(1, len(text.splitlines()) + 1)[i]  # the edited line's
    with pytest.raises(ModelFormatError, match=f"^line {line_no}: {message}$"):
        loads_model(_edit_line(text, i, edit))


def test_a_refusal_counts_the_blank_lines_before_its_line():
    p, norm = make_pair(h=2)
    lines = dumps_model(p, norm).splitlines()
    text = "\n".join(["", "  "] + lines[:-1] + ["", "fin"]) + "\n"
    with pytest.raises(ModelFormatError, match=f"^line {len(lines) + 3}: missing end marker$"):
        loads_model(text)
    # the empty file and the one that ends early keep their messages
    with pytest.raises(BadMagicError, match=r"^not a model file \(empty\)$"):
        loads_model("\n \n")
    with pytest.raises(TruncatedFileError, match="^unexpected end of model file$"):
        loads_model("\n".join(lines[:-1]))


def test_dimension_mismatch_detected():
    p, norm = make_pair(h=3)
    text = dumps_model(p, norm)
    with pytest.raises(DimensionMismatchError):
        loads_model(text.replace("W_r 3 3", "W_r 3 4", 1))
    with pytest.raises(DimensionMismatchError):
        loads_model(text.replace("dims 4 3 4", "dims 4 0 4", 1))


def test_garbage_values_and_trailing_content_rejected():
    p, norm = make_pair()
    text = dumps_model(p, norm)
    first_value = text.splitlines()[3].split()[0]
    with pytest.raises(ModelFormatError):
        loads_model(text.replace(first_value, "zzz", 1))
    with pytest.raises(ModelFormatError):
        loads_model(text + "stray\n")


def test_wrong_array_name_rejected():
    p, norm = make_pair(h=2)
    text = dumps_model(p, norm)
    with pytest.raises(ModelFormatError):
        loads_model(text.replace("W_z 2 2", "W_q 2 2", 1))


def test_normalizer_dim_must_match_input_dim():
    p, _ = make_pair()
    bad = Normalizer(offset=np.zeros(3), scale=np.ones(3))
    with pytest.raises(DimensionMismatchError):
        dumps_model(p, bad)


def test_non_finite_normalizer_rejected():
    p, norm = make_pair(h=2)
    text = dumps_model(p, norm)
    head, scale_row = text.split("norm_scale 4\n")
    values = scale_row.splitlines()[0].split()
    bad = head + "norm_scale 4\n" + " ".join(["nan"] + values[1:]) + "\nend\n"
    with pytest.raises(NonFiniteInputError):
        loads_model(bad)
