"""Artifact framing, and fuzzing of the model, view set, config and benchmark readers.

Every fuzzed input must either load into a well-formed object or raise
a PatchVoteError subclass; any other exception fails the test. The index
and pose-section readers are fuzzed the same way in test_index.py and
test_pose.py.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchvote.artifact import Reader, decode_json, fields, pack
from patchvote.config import Config, dumps_canonical, from_dict, load_config
from patchvote.embed import (
    MODEL_MAGIC,
    TowerParams,
    init_params,
    load_model,
    save_model,
)
from patchvote.errors import FormatError, PatchVoteError
from patchvote.synth import (
    Benchmark,
    generate_benchmark,
    load_benchmark,
    save_benchmark,
)
from patchvote.views import (
    ViewSet,
    kmedoids,
    load_viewset,
    random_rotations,
    save_viewset,
)


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

    def test_fields_wraps_missing_and_mistyped(self):
        with pytest.raises(FormatError, match="^doc: missing or malformed field: Key"):
            with fields("doc"):
                {}["n"]
        with pytest.raises(FormatError, match="^doc: missing or malformed field: Type"):
            with fields("doc"):
                int([1])


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
# view set


def viewset_loads_or_rejects(path: str) -> None:
    try:
        vs = load_viewset(path)
    except PatchVoteError:
        return
    assert isinstance(vs, ViewSet)
    assert vs.medoids.dtype == np.float64 and vs.medoids.shape == (len(vs), 4)
    assert isinstance(vs.seed, int) and isinstance(vs.source_size, int)


class TestViewSetReaderFuzz:
    @pytest.fixture(scope="class")
    def blob(self, workdir):
        p = workdir / "valid_views.json"
        save_viewset(kmedoids(random_rotations(12, seed=4), k=3, seed=1), str(p))
        return p.read_bytes()

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"n": 1, "medoids": [[1, 0, 0, "x"]]},
            {"n": 1, "medoids": [[1, 0, 0, None]]},
            {"n": 1, "medoids": [[1, 0, 0]]},
            {"n": 2, "medoids": [[1, 0, 0, 0], [1, 0]]},
            {"medoids": [[1, 0, 0, 0]]},
            {"n": 1, "medoids": [[1, 0, 0, 0]], "seed": "s"},
            {"n": 1, "medoids": [[1, 0, 0, 0]], "seed": 1e400},
            {"n": 1, "medoids": [[1, 0, 0, 0]], "source_size": [3]},
        ],
        ids=[
            "list-root", "string-medoid", "null-medoid", "short-row", "ragged",
            "no-n", "string-seed", "infinite-seed", "list-source-size",
        ],
    )
    def test_malformed_document_is_format_error(self, workdir, doc):
        text = json.dumps(doc).replace("Infinity", "1e400")
        with pytest.raises(FormatError, match="view set"):
            load_viewset(write(workdir / "bad_views.json", text.encode()))

    @settings(max_examples=150, deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=1.0))
    def test_fuzz_truncation(self, workdir, blob, cut):
        data = blob[: int(cut * len(blob))]
        viewset_loads_or_rejects(write(workdir / "fz_views.json", data))

    @settings(max_examples=300, deadline=None)
    @given(flips=FLIPS)
    def test_fuzz_bit_flips(self, workdir, blob, flips):
        data = flip_bits(blob, flips)
        viewset_loads_or_rejects(write(workdir / "fz_views.json", data))

    @settings(max_examples=200, deadline=None)
    @given(raw=RANDOM_BYTES_OR_DOCUMENTS)
    def test_fuzz_random_bytes_and_documents(self, workdir, raw):
        viewset_loads_or_rejects(write(workdir / "fz_views.json", raw))


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


# ---------------------------------------------------------------------------
# benchmark manifest


def benchmark_loads_or_rejects(path: str) -> None:
    try:
        bench = load_benchmark(path)
    except PatchVoteError:
        return
    assert isinstance(bench, Benchmark)
    for q in bench.queries:
        assert q.view_quat.shape == (4,)
        assert q.shape_id in bench.shapes and q.gt_shape_id in bench.shapes
    assert set(bench.database_ids) <= set(bench.shapes)


class TestBenchmarkReaderFuzz:
    """Corrupted manifests beside the valid OBJ files they name."""

    @pytest.fixture(scope="class")
    def bench_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bench")
        bench = generate_benchmark(4, 0.0, 1, 2, random_rotations(4, seed=2))
        save_benchmark(bench, str(root))
        return root

    @pytest.fixture(scope="class")
    def blob(self, bench_dir):
        return (bench_dir / "benchmark.json").read_bytes()

    def test_missing_obj_names_the_shape(self, bench_dir, blob):
        doc = json.loads(blob)
        doc["shapes"]["1"]["obj"] = "shape_9999.obj"
        path = write(bench_dir / "bad.json", json.dumps(doc).encode())
        with pytest.raises(FormatError, match="shape 1.*shape_9999.obj"):
            load_benchmark(path)

    def test_unlisted_database_shape_rejected(self, bench_dir, blob):
        doc = json.loads(blob)
        doc["database"].append(42)
        path = write(bench_dir / "bad.json", json.dumps(doc).encode())
        with pytest.raises(FormatError, match="unlisted shapes \\[42\\]"):
            load_benchmark(path)

    def test_non_utf8_manifest_is_format_error(self, bench_dir, blob):
        path = write(bench_dir / "bad.json", b"\xff" + blob)
        with pytest.raises(FormatError, match="benchmark manifest"):
            load_benchmark(path)

    @settings(max_examples=100, deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=1.0))
    def test_fuzz_truncation(self, bench_dir, blob, cut):
        data = blob[: int(cut * len(blob))]
        benchmark_loads_or_rejects(write(bench_dir / "fz.json", data))

    @settings(max_examples=300, deadline=None)
    @given(flips=FLIPS)
    def test_fuzz_bit_flips(self, bench_dir, blob, flips):
        benchmark_loads_or_rejects(write(bench_dir / "fz.json", flip_bits(blob, flips)))

    @settings(max_examples=200, deadline=None)
    @given(raw=RANDOM_BYTES_OR_DOCUMENTS)
    def test_fuzz_random_bytes_and_documents(self, bench_dir, raw):
        benchmark_loads_or_rejects(write(bench_dir / "fz.json", raw))
