import numpy as np
import pytest

from patchvote.errors import SynthError
from patchvote.synth import (
    PARAM_RANGES,
    SynthSpec,
    generate_benchmark,
    generate_shape,
)
from patchvote.views import random_rotations

# the canonical grid query views are offset from; any non-empty set of
# rotations serves
GRID = random_rotations(16, seed=0)


def mid_params(category: str) -> dict:
    out = {}
    for name, (lo, hi) in PARAM_RANGES[category].items():
        out[name] = (lo + hi) / 2 if name != "drawer_count" else 3.0
    return out


class TestGenerateShape:
    def test_chair_box_arithmetic(self):
        mesh = generate_shape(SynthSpec("chair", mid_params("chair")))
        assert len(mesh.vertices) == 48   # 6 boxes x 8
        assert len(mesh.triangles) == 72  # 6 boxes x 12

    def test_table_box_arithmetic(self):
        mesh = generate_shape(SynthSpec("table", mid_params("table")))
        assert len(mesh.vertices) == 40
        assert len(mesh.triangles) == 60

    def test_cabinet_box_count_follows_drawers(self):
        params = mid_params("cabinet")
        params["drawer_count"] = 4.0
        mesh = generate_shape(SynthSpec("cabinet", params))
        assert len(mesh.vertices) == 8 * 5
        assert len(mesh.triangles) == 12 * 5

    def test_normalized_output(self):
        mesh = generate_shape(SynthSpec("chair", mid_params("chair")))
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        np.testing.assert_allclose((lo + hi) / 2, 0.0, atol=1e-9)
        assert (hi - lo).max() == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_bit_identical(self):
        spec = SynthSpec("table", mid_params("table"))
        a = generate_shape(spec)
        b = generate_shape(spec)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.triangles, b.triangles)

    def test_out_of_range_rejected(self):
        params = mid_params("chair")
        params["leg_height"] = 99.0
        with pytest.raises(SynthError, match="leg_height"):
            generate_shape(SynthSpec("chair", params))

    def test_unknown_category_rejected(self):
        with pytest.raises(SynthError, match="category"):
            generate_shape(SynthSpec("sofa", {}))

    def test_missing_parameter_rejected(self):
        params = mid_params("table")
        del params["top_width"]
        with pytest.raises(SynthError, match="top_width"):
            generate_shape(SynthSpec("table", params))

    def test_category_label_attached(self):
        mesh = generate_shape(SynthSpec("cabinet", mid_params("cabinet")))
        assert mesh.category == "cabinet"


class TestGenerateBenchmark:
    def test_zero_fraction_all_shapes_in_database(self):
        bench = generate_benchmark(8, 0.0, 2, 0, GRID)
        assert sorted(bench.database_ids) == sorted(bench.shapes)
        assert all(not q.leave_out for q in bench.queries)
        assert all(q.gt_shape_id == q.shape_id for q in bench.queries)

    def test_half_fraction_splits(self):
        bench = generate_benchmark(20, 0.5, 1, 1, GRID)
        assert len(bench.database_ids) == 10
        assert len(bench.shapes) == 20
        assert len(bench.queries) == 20

    def test_leave_out_integrity(self):
        bench = generate_benchmark(12, 0.25, 2, 2, GRID)
        db = set(bench.database_ids)
        for q in bench.queries:
            if q.leave_out:
                assert q.shape_id not in db
                assert q.gt_shape_id in db

    def test_part_sharing_with_parent(self):
        bench = generate_benchmark(12, 0.25, 1, 3, GRID)
        for sid, entry in bench.shapes.items():
            if entry.parent_id < 0:
                continue
            parent = bench.shapes[entry.parent_id]
            assert parent.spec.category == entry.spec.category
            shared = sum(
                1
                for k, v in entry.spec.params.items()
                if parent.spec.params[k] == v
            )
            assert shared >= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_held_out_shares_at_least_three_parameters(self, seed):
        """A mutation swaps 1-2 parameters, and every category has at least 5."""
        assert min(len(ranges) for ranges in PARAM_RANGES.values()) >= 5
        bench = generate_benchmark(12, 0.5, 1, seed, GRID)
        held_out = [e for e in bench.shapes.values() if e.parent_id >= 0]
        assert len(held_out) == 6
        for entry in held_out:
            parent = bench.shapes[entry.parent_id].spec.params
            shared = sum(parent[k] == v for k, v in entry.spec.params.items())
            assert shared >= len(parent) - 2 >= 3

    def test_held_out_differs_from_every_db_shape(self):
        bench = generate_benchmark(16, 0.25, 1, 4, GRID)
        db_keys = {
            (e.spec.category, tuple(sorted(e.spec.params.items())))
            for sid, e in bench.shapes.items()
            if sid in set(bench.database_ids)
        }
        for sid, e in bench.shapes.items():
            if sid in set(bench.database_ids):
                continue
            key = (e.spec.category, tuple(sorted(e.spec.params.items())))
            assert key not in db_keys

    def test_deterministic(self):
        a = generate_benchmark(10, 0.2, 2, 5, GRID)
        b = generate_benchmark(10, 0.2, 2, 5, GRID)
        assert [q.shape_id for q in a.queries] == [q.shape_id for q in b.queries]
        for qa, qb in zip(a.queries, b.queries):
            np.testing.assert_array_equal(qa.view_quat, qb.view_quat)
        for sid in a.shapes:
            np.testing.assert_array_equal(
                a.shapes[sid].mesh.vertices, b.shapes[sid].mesh.vertices
            )

    def test_too_few_shapes_rejected(self):
        with pytest.raises(SynthError, match="num_shapes"):
            generate_benchmark(3, 0.0, 1, 0, GRID)

    def test_fraction_bounds(self):
        with pytest.raises(SynthError):
            generate_benchmark(8, 1.0, 1, 0, GRID)

    @pytest.mark.parametrize("views_per_query", [0, -3])
    def test_no_views_per_query_rejected(self, views_per_query):
        with pytest.raises(SynthError, match="views_per_query"):
            generate_benchmark(8, 0.0, views_per_query, 0, GRID)

    def test_empty_database_rejected(self):
        with pytest.raises(SynthError, match="empty database"):
            generate_benchmark(4, 0.9, 1, 0, GRID)
