"""Artifact framing, and fuzzing of the model and config readers.

Every fuzzed input must either load into a well-formed object or raise
a PatchVoteError subclass; any other exception fails the test. The index
reader is fuzzed the same way in test_index.py.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchvote.artifact import Reader, decode_json, pack, read_file
from patchvote.config import Config, dumps_canonical, from_dict, load_config
from patchvote.embed import (
    MODEL_MAGIC,
    TowerParams,
    init_params,
    load_model,
    save_model,
)
from patchvote.errors import FormatError, PatchVoteError


class TestFraming:
    def test_pack_layout(self):
        blob = pack(b"ABCD", (1, 2**32 - 1), b"xy", np.array([1.5], dtype="<f4"))
        head = b"ABCD" + struct.pack("<II", 1, 2**32 - 1)
        assert blob == head + b"xy" + struct.pack("<f", 1.5)

    def test_reader_walks_what_pack_wrote(self):
        blob = pack(b"MGC0", (3,), b"abc", np.arange(6, dtype="<f4"))
        r = Reader(blob, "thing", b"MGC0")
        (n,) = r.u32(1, "header")
        assert r.take(n, "name") == b"abc"
        (w,) = r.f4([(2, 3)], "weights")
        assert w.dtype == np.float64 and w.flags["WRITEABLE"]
        np.testing.assert_array_equal(w, np.arange(6).reshape(2, 3))
        r.end()

    def test_f4_blocks_are_views_of_one_widened_block(self):
        r = Reader(np.arange(10, dtype="<f4").tobytes(), "thing")
        a, b = r.f4([(2, 3), (4,)], "weights")
        assert a.base is b.base and a.base.dtype == np.float64
        np.testing.assert_array_equal(a, np.arange(6).reshape(2, 3))
        np.testing.assert_array_equal(b, np.arange(6, 10))
        a[...] = -1
        np.testing.assert_array_equal(b, np.arange(6, 10))

    def test_read_file_buffer_gives_writable_views(self, tmp_path):
        p = tmp_path / "a.bin"
        p.write_bytes(pack(b"MGC0", (2,), np.array([7, 9], dtype="<u4")))
        r = Reader(read_file(str(p)), "thing", b"MGC0")
        (n,) = r.u32(1, "header")
        ids = r.array("<u4", (n,), "ids")
        r.end()
        assert ids.flags["WRITEABLE"] and ids.tolist() == [7, 9]

    @pytest.mark.parametrize("blob", [b"", b"MG", b"XGC0rest"])
    def test_bad_magic_names_artifact(self, blob):
        with pytest.raises(FormatError, match="^thing: bad magic"):
            Reader(blob, "thing", b"MGC0")

    def test_short_read_names_artifact_and_part(self):
        r = Reader(b"MGC0" + b"\x01\x00", "thing", b"MGC0")
        with pytest.raises(FormatError, match="^thing: truncated header"):
            r.u32(1, "header")

    def test_oversized_count_is_a_short_read(self):
        r = Reader(b"\x00" * 8, "thing")
        with pytest.raises(FormatError, match="truncated weights"):
            r.f4([(2**32 - 1, 2**32 - 1)], "weights")

    def test_trailing_bytes_rejected(self):
        r = Reader(b"\x00" * 5, "thing")
        r.u32(1, "header")
        with pytest.raises(FormatError, match="^thing: 1 trailing bytes"):
            r.end()

    @pytest.mark.parametrize("raw", [b"\xff{}", b"{", b"[]", b"null", b"7"])
    def test_decode_json_rejects_non_objects(self, raw):
        with pytest.raises(FormatError, match="^doc is not"):
            decode_json(raw, "doc")


def json_values():
    scalars = (
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )


def flip_bits(blob: bytes, flips) -> bytes:
    out = bytearray(blob)
    for pos, bit in flips:
        out[pos % len(out)] ^= 1 << bit
    return bytes(out)


RANDOM_BYTES_OR_DOCUMENTS = st.binary(max_size=256) | json_values().map(
    lambda v: json.dumps(v).encode()
)
FLIPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**16), st.integers(0, 7)),
    min_size=1,
    max_size=4,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


def write(path, blob: bytes) -> str:
    path.write_bytes(blob)
    return str(path)


# ---------------------------------------------------------------------------
# model


def valid_model(tmp_path) -> bytes:
    p = tmp_path / "valid.p2cm"
    save_model(init_params(4, 6, 3, 2, seed=0), str(p))
    return p.read_bytes()


def model_loads_or_rejects(path: str) -> None:
    try:
        params, sections = load_model(path)
    except PatchVoteError:
        return
    assert isinstance(params, TowerParams)
    for t in (params.image, params.shape):
        h, d = t.W2.shape
        assert t.W1.shape[1] == h and t.b1.shape == (h,) and t.b2.shape == (d,)
    assert sections == {}


class TestModelReaderFuzz:
    @pytest.fixture(scope="class")
    def blob(self, workdir):
        return valid_model(workdir)

    def test_trailing_partial_section_header(self, workdir, blob):
        """The model ends at its towers, so a tagged section's start is trailing bytes."""
        with pytest.raises(FormatError, match="trailing bytes"):
            load_model(write(workdir / "m.p2cm", blob + b"TAG"))

    @settings(max_examples=150, deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=1.0))
    def test_fuzz_truncation(self, workdir, blob, cut):
        data = blob[: int(cut * len(blob))]
        model_loads_or_rejects(write(workdir / "fz.p2cm", data))

    @settings(max_examples=300, deadline=None)
    @given(flips=FLIPS)
    def test_fuzz_bit_flips(self, workdir, blob, flips):
        model_loads_or_rejects(write(workdir / "fz.p2cm", flip_bits(blob, flips)))

    @settings(max_examples=200, deadline=None)
    @given(tail=st.binary(max_size=256), with_magic=st.booleans())
    @example(tail=struct.pack("<5I", 1, 2**32 - 1, 7, 2**32 - 1, 1), with_magic=True)
    @example(tail=struct.pack("<5I", 1, 0, 0, 0, 0) + b"POSE\xff\xff", with_magic=True)
    def test_fuzz_random_bytes(self, workdir, tail, with_magic):
        blob = (MODEL_MAGIC if with_magic else b"") + tail
        model_loads_or_rejects(write(workdir / "fz.p2cm", blob))


# ---------------------------------------------------------------------------
# config


def config_loads_or_rejects(path: str) -> None:
    try:
        cfg = load_config(path)
    except PatchVoteError:
        return
    assert isinstance(cfg, Config)


class TestConfigReaderFuzz:
    @pytest.fixture(scope="class")
    def blob(self):
        return dumps_canonical(from_dict({"tau": 0.2, "kr": 12, "seed": 7})).encode()

    @settings(max_examples=150, deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=1.0))
    def test_fuzz_truncation(self, workdir, blob, cut):
        data = blob[: int(cut * len(blob))]
        config_loads_or_rejects(write(workdir / "fz.json", data))

    @settings(max_examples=300, deadline=None)
    @given(flips=FLIPS)
    def test_fuzz_bit_flips(self, workdir, blob, flips):
        config_loads_or_rejects(write(workdir / "fz.json", flip_bits(blob, flips)))

    @settings(max_examples=200, deadline=None)
    @given(raw=RANDOM_BYTES_OR_DOCUMENTS)
    def test_fuzz_random_bytes_and_documents(self, workdir, raw):
        config_loads_or_rejects(write(workdir / "fz.json", raw))
