"""Shape generator: named placements, seeded randomness, enumeration."""

from __future__ import annotations

import pytest

from gridgaps import DigitalObject, ShapeSpec, census, enumerate_all_objects, generate
from gridgaps.gaps import count_gaps_block_formula, count_gaps_formula, count_gaps_oracle
from gridgaps.shapes import describe

# frozen first-run output of (random, n=2, extents 4x4, density 0.5, seed 42)
GOLDEN_RANDOM_2D = [
    (0, 1), (0, 2), (0, 3), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1),
]


class TestNamedShapes:
    def test_single(self):
        assert generate(ShapeSpec("single", 3)).centers() == [(0, 0, 0)]

    def test_diagonal_pair_canonical(self):
        obj = generate(ShapeSpec("diagonal_pair", 3))
        assert obj.centers() == [(0, 0, 0), (1, 1, 0)]
        assert count_gaps_oracle(obj, 1).g == 1

    def test_diagonal_pair_is_strictly_codim2_adjacent(self):
        for n in (2, 3, 4, 5):
            obj = generate(ShapeSpec("diagonal_pair", n))
            v1, v2 = sorted(obj.voxels)
            from gridgaps import adjacency

            assert adjacency(v1, v2).adjacent_at == n - 2

    def test_facet_block(self):
        obj = generate(ShapeSpec("facet_block", 3))
        assert obj.centers() == [(0, 0, 0), (1, 0, 0)]
        assert census(obj).c_prime[2] == 1

    def test_l_block(self):
        obj = generate(ShapeSpec("l_block", 3))
        assert obj.centers() == [(0, 0, 0), (0, 1, 0), (1, 0, 0)]
        assert census(obj).c_star[2] == 14

    def test_box(self):
        obj = generate(ShapeSpec("box", 2, extents=(2, 2)))
        assert len(obj) == 4

    def test_checkerboard(self):
        obj = generate(ShapeSpec("checkerboard", 2, extents=(3, 3)))
        assert obj.centers() == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
        assert count_gaps_formula(obj) == 4

    def test_checkerboard_is_gap_dense(self):
        obj = generate(ShapeSpec("checkerboard", 3, extents=(3, 3, 3)))
        g = count_gaps_oracle(obj, 1).g
        assert g == count_gaps_formula(obj) == count_gaps_block_formula(obj)
        assert g > 0


class TestRandomShapes:
    def test_golden_fixture(self):
        spec = ShapeSpec("random", 2, extents=(4, 4), density=0.5, seed=42)
        assert generate(spec).centers() == GOLDEN_RANDOM_2D

    def test_same_spec_same_object(self):
        spec = ShapeSpec("random", 3, extents=(4, 4, 4), density=0.3, seed=7)
        assert generate(spec) == generate(spec)

    def test_different_seed_differs(self):
        a = generate(ShapeSpec("random", 2, extents=(6, 6), density=0.5, seed=1))
        b = generate(ShapeSpec("random", 2, extents=(6, 6), density=0.5, seed=2))
        assert a != b

    def test_density_extremes(self):
        full = generate(ShapeSpec("random", 2, extents=(3, 3), density=1.0, seed=5))
        none = generate(ShapeSpec("random", 2, extents=(3, 3), density=0.0, seed=5))
        assert len(full) == 9 and len(none) == 0

    def test_describe_records_rng(self):
        spec = ShapeSpec("random", 2, extents=(4, 4), density=0.5, seed=42)
        note = describe(spec)
        assert "seed=42" in note and "rng=cpython-random-mt19937" in note


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ShapeSpec("blob", 2)

    def test_dimension_zero(self):
        with pytest.raises(ValueError) as err:
            ShapeSpec("single", 0)
        assert str(err.value) == "ambient dimension must be >= 1, got 0"

    def test_missing_extents(self):
        with pytest.raises(ValueError):
            ShapeSpec("box", 2)

    def test_bad_extent_length(self):
        with pytest.raises(ValueError):
            ShapeSpec("box", 3, extents=(2, 2))

    def test_bad_density(self):
        with pytest.raises(ValueError):
            ShapeSpec("random", 2, extents=(2, 2), density=1.5, seed=1)

    def test_missing_seed(self):
        with pytest.raises(ValueError):
            ShapeSpec("random", 2, extents=(2, 2), density=0.5)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            ShapeSpec("random", 2, extents=(2, 2), density=0.5, seed=-1)
        with pytest.raises(ValueError):
            ShapeSpec("random", 2, extents=(2, 2), density=0.5, seed=1 << 64)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(kind="single", n=True),
            dict(kind="random", n=2, extents=(True, 2), density=0.5, seed=1),
            dict(kind="random", n=2, extents=(2, 2), density=True, seed=1),
            dict(kind="random", n=2, extents=(2, 2), density=0.5, seed=True),
        ],
        ids=["n", "extents", "density", "seed"],
    )
    def test_bool_field_rejected(self, fields):
        with pytest.raises(TypeError, match="bool"):
            ShapeSpec(**fields)

    @pytest.mark.parametrize(
        "args, fields",
        [
            (("box", 2.0), dict(extents=(2, 2))),
            (("box", 2), dict(extents=(2.0, 2))),
            (("random", 2, (2, 2), 0.5, 1.5), {}),
        ],
        ids=["n", "extents", "seed"],
    )
    def test_non_int_field_rejected(self, args, fields):
        # each passes the range checks, so only the type check refuses it
        with pytest.raises(TypeError, match="must be integers"):
            ShapeSpec(*args, **fields)

    def test_diagonal_pair_needs_n2(self):
        with pytest.raises(ValueError):
            ShapeSpec("diagonal_pair", 1)

    @pytest.mark.parametrize("kind", ["single", "box", "l_block", "checkerboard"])
    def test_density_only_for_random(self, kind):
        extents = (2, 2) if kind in ("box", "checkerboard") else None
        with pytest.raises(ValueError, match="density"):
            ShapeSpec(kind, 2, extents=extents, density=0.3)

    @pytest.mark.parametrize("kind", ["single", "box", "diagonal_pair", "checkerboard"])
    def test_seed_only_for_random(self, kind):
        extents = (2, 2) if kind in ("box", "checkerboard") else None
        with pytest.raises(ValueError, match="seed"):
            ShapeSpec(kind, 2, extents=extents, seed=5)

    @pytest.mark.parametrize("kind", ["single", "diagonal_pair", "l_block", "facet_block"])
    def test_extents_only_for_extent_kinds(self, kind):
        with pytest.raises(ValueError, match="extents"):
            ShapeSpec(kind, 2, extents=(2, 2))


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_all_objects(2, (2, 2))) == 16
        assert sum(1 for _ in enumerate_all_objects(2, (1, 1))) == 2
        assert sum(1 for _ in enumerate_all_objects(3, (2, 2, 2))) == 256

    def test_all_distinct_and_deterministic(self):
        seen = {frozenset(o.voxels) for o in enumerate_all_objects(2, (2, 2))}
        assert len(seen) == 16
        first = [o.centers() for o in enumerate_all_objects(2, (2, 2))]
        second = [o.centers() for o in enumerate_all_objects(2, (2, 2))]
        assert first == second
        assert first[0] == []  # the empty object comes first

    def test_volume_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_all_objects(2, (5, 5)))

    def test_bad_extents(self):
        with pytest.raises(ValueError):
            next(enumerate_all_objects(2, (2,)))
