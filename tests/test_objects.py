"""Digital objects: cell enumeration, free cells, borders, censuses."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgaps import (
    Cell,
    DigitalObject,
    census,
    enumerate_all_objects,
    faces,
)
from gridgaps.dvo import dumps, loads

from oracles import o_b_boundary, o_cells, o_census, o_is_free

SINGLE3 = DigitalObject.from_centers(3, [(0, 0, 0)])
DOMINO3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 0, 0)])
DIAG3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0)])
LBLOCK3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
CUBE222 = DigitalObject.from_centers(3, list(product((0, 1), repeat=3)))
SQUARE22 = DigitalObject.from_centers(2, list(product((0, 1), repeat=2)))
EMPTY3 = DigitalObject(3)


def random_object(n: int, extent: int, density: float, seed: int) -> DigitalObject:
    rng = random.Random(seed)
    centers = [
        c
        for c in product(range(extent), repeat=n)
        if rng.random() < density
    ]
    return DigitalObject.from_centers(n, centers)


class TestConstruction:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            DigitalObject.from_centers(2, [(0, 0), (0, 0)])

    def test_non_voxel_rejected(self):
        with pytest.raises(ValueError):
            DigitalObject(2, [Cell((1, 0))])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DigitalObject.from_centers(3, [(0, 0)])

    def test_empty_is_fine(self):
        assert len(EMPTY3) == 0
        assert census(EMPTY3).c == (0, 0, 0, 0)

    def test_centers_round_trip(self):
        pts = [(0, -2, 5), (1, 1, 0)]
        assert DigitalObject.from_centers(3, pts).centers() == sorted(pts)

    def test_out_of_range_center_named_as_written(self):
        big = (1 << 59) + 1
        with pytest.raises(ValueError) as err:
            DigitalObject.from_centers(2, [(0, 0), (big, 0)])
        assert str(big) in str(err.value) and str(2 * big) not in str(err.value)

    def test_non_integer_center_named_as_written(self):
        with pytest.raises(TypeError, match="0.5"):
            DigitalObject.from_centers(2, [(0.5, 0)])

    def test_bool_center_rejected(self):
        with pytest.raises(TypeError):
            DigitalObject.from_centers(2, [(True, 0)])

    def test_translate_out_of_range_raises(self):
        obj = DigitalObject.from_centers(2, [(0, 0), (1, 1)])
        with pytest.raises(ValueError) as err:
            obj.translate((1 << 60, 0))
        # either shifted center may be checked first; both are out of range
        big = 1 << 60
        assert f"({big}, 0)" in str(err.value) or f"({big + 1}, 1)" in str(err.value)
        edge = 1 << 59
        assert obj.translate((edge - 1, -edge)).centers() == [
            (edge - 1, -edge),
            (edge, 1 - edge),
        ]

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        st.tuples(st.integers(-(1 << 60), 1 << 60), st.integers(-(1 << 60), 1 << 60)),
    )
    @settings(max_examples=80)
    def test_translate_result_round_trips_or_raises(self, centers, vec):
        obj = DigitalObject.from_centers(2, centers)
        try:
            moved = obj.translate(vec)
        except ValueError:
            return
        assert loads(dumps(moved)) == moved

    def test_value_semantics(self):
        a = DigitalObject.from_centers(2, [(0, 0), (1, 1)])
        b = DigitalObject.from_centers(2, [(1, 1), (0, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != DigitalObject.from_centers(2, [(0, 0)])


class TestCellEnumeration:
    def test_single_voxel_edges(self):
        assert len(census(SINGLE3).cells_by_dim[1]) == 12

    def test_empty_object(self):
        assert census(EMPTY3).cells_by_dim[1] == frozenset()

    def test_diagonal_pair_edges(self):
        # frozen by oracle: 12 + 12 minus the one shared hub edge
        assert len(census(DIAG3).cells_by_dim[1]) == 23


class TestFreeCells:
    def test_single_voxel_cells_all_free(self):
        cen = census(SINGLE3)
        for i in range(3):
            for e in cen.cells_by_dim[i]:
                assert cen.is_free(e)

    def test_domino_shared_face_not_free(self):
        assert not census(DOMINO3).is_free(Cell((1, 0, 0)))

    def test_square_center_vertex_not_free(self):
        assert not census(SQUARE22).is_free(Cell((1, 1)))

    def test_not_a_cell_rejected(self):
        with pytest.raises(ValueError):
            census(SINGLE3).is_free(Cell((7, 7, 7)))

    def test_voxel_dimension_rejected(self):
        with pytest.raises(ValueError, match="below n"):
            census(SINGLE3).is_free(Cell((0, 0, 0)))

    def test_wrong_ambient_dimension_rejected(self):
        # a 4-coordinate cell is no cell of a 3-object, whatever its dimension
        cen = census(SINGLE3)
        for e in (Cell((0, 0, 0, 0)), Cell((1, 0, 0, 0)), Cell((1, 1)), Cell((0, 0))):
            with pytest.raises(ValueError, match="ambient dimensions differ"):
                cen.is_free(e)


class TestBorder:
    def test_single_voxel_faces(self):
        assert len(census(SINGLE3).border(2)) == 6

    def test_domino_faces(self):
        assert len(census(DOMINO3).border(2)) == 10

    def test_lblock_faces(self):
        assert len(census(LBLOCK3).border(2)) == 14

    def test_border_at_dimension_zero_exists(self):
        # 0-cells are classifiable as free like any other dimension
        assert len(census(SQUARE22).border(0)) == 8

    def test_range_validation(self):
        for i in (3, -1):
            with pytest.raises(ValueError):
                census(SINGLE3).border(i)


CENSUS_FIXTURES = [
    (SINGLE3, (8, 12, 6, 1), (8, 12, 6, 0)),
    (DOMINO3, (12, 20, 11, 2), (12, 20, 10, 0)),
    (DIAG3, (14, 23, 12, 2), (14, 23, 12, 0)),
    (LBLOCK3, (16, 28, 16, 3), (16, 28, 14, 0)),
    (CUBE222, (27, 54, 36, 8), (26, 48, 24, 0)),
    (SQUARE22, (9, 12, 4), (8, 8, 0)),
    (EMPTY3, (0, 0, 0, 0), (0, 0, 0, 0)),
]


class TestCensus:
    @pytest.mark.parametrize("obj, c, c_star", CENSUS_FIXTURES)
    def test_fixture_counts(self, obj, c, c_star):
        cen = census(obj)
        assert cen.c == c
        assert cen.c_star == c_star
        assert cen.c_prime == tuple(a - b for a, b in zip(c, c_star))
        assert cen.beta == cen.c_prime

    @pytest.mark.parametrize("obj, c, c_star", CENSUS_FIXTURES)
    def test_partition_and_facet_count_identity(self, obj, c, c_star):
        cen = census(obj)
        n = obj.n
        for i in range(n + 1):
            assert cen.c[i] == cen.c_star[i] + cen.c_prime[i]
        assert cen.c[n - 1] == 2 * n * cen.c[n] - cen.c_prime[n - 1]

    def test_cached_sets_match_counts(self):
        cen = census(LBLOCK3)
        assert [len(s) for s in cen.cells_by_dim] == list(cen.c)
        assert [len(s) for s in cen.free_by_dim] == list(cen.c_star)
        assert cen.border(2) == cen.free_by_dim[2]
        assert cen.is_free(Cell((1, 1, 1)))
        assert not cen.is_free(Cell((1, 0, 0)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_objects_match_interval_oracle(self, n):
        for seed in range(12):
            obj = random_object(n, 3, 0.5, seed)
            vox = frozenset(tuple(v) for v in obj.voxels)
            assert (census(obj).c, census(obj).c_star, census(obj).c_prime) == o_census(n, vox)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_facet_count_identity_on_random_objects(self, n):
        for seed in range(200):
            obj = random_object(n, 3, 0.5, 1000 * n + seed)
            cen = census(obj)
            assert cen.c[n - 1] == 2 * n * cen.c[n] - cen.c_prime[n - 1]

    def test_translation_invariance(self):
        for vec in [(1, 0, 0), (-3, 7, 2)]:
            moved = census(DIAG3.translate(vec))
            base = census(DIAG3)
            assert moved.c == base.c
            assert moved.c_star == base.c_star

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=0,
            max_size=10,
            unique=True,
        ),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    @settings(max_examples=60)
    def test_translation_invariance_property(self, centers, vec):
        obj = DigitalObject.from_centers(2, centers)
        base, moved = census(obj), census(obj.translate(vec))
        assert (base.c, base.c_star) == (moved.c, moved.c_star)


def assert_census_matches_oracle(obj: DigitalObject) -> None:
    """Counts and cached cell sets against the interval oracles."""
    n = obj.n
    vox = frozenset(tuple(v) for v in obj.voxels)
    cen = census(obj)
    assert (cen.c, cen.c_star, cen.c_prime) == o_census(n, vox)
    for i in range(n + 1):
        cells_i = o_cells(vox, i)
        assert cen.cells_by_dim[i] == cells_i
        assert cen.free_by_dim[i] == {e for e in cells_i if o_is_free(vox, e)}


class TestCensusDifferential:
    """The face-multiplicity census against the interval oracles."""

    @pytest.mark.parametrize("n, extents", [(3, (2, 2, 2)), (2, (3, 3))])
    def test_every_object_of_small_boxes(self, n, extents):
        for obj in enumerate_all_objects(n, extents):
            assert_census_matches_oracle(obj)

    @given(
        st.sampled_from([2, 3]).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(*[st.integers(-(1 << 59) + 2, (1 << 59) - 2)] * n),
                    min_size=1,
                    max_size=3,
                ),
                st.lists(
                    st.tuples(*[st.integers(-1, 1)] * n), min_size=1, max_size=4
                ),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_negative_and_far_apart_centers(self, drawn):
        # small clusters around anchors anywhere in the +-2**59 center range
        n, anchors, offsets = drawn
        centers = {
            tuple(a + d for a, d in zip(anchor, offset))
            for anchor in anchors
            for offset in offsets
        }
        assert_census_matches_oracle(DigitalObject.from_centers(n, centers))

    def test_extreme_centers(self):
        edge = 1 << 59
        obj = DigitalObject.from_centers(
            2, [(edge, edge), (-edge, -edge), (edge - 1, edge - 1), (-edge, edge)]
        )
        assert_census_matches_oracle(obj)

    def test_line_and_empty(self):
        assert_census_matches_oracle(DigitalObject.from_centers(1, [(0,), (1,), (5,)]))
        assert_census_matches_oracle(EMPTY3)


class TestBBoundary:
    def test_hub_edge_of_diagonal_pair(self):
        assert census(DIAG3).b_boundary(Cell((1, 1, 0)), 2) == 4

    def test_edge_of_single_voxel(self):
        assert census(SINGLE3).b_boundary(Cell((1, 1, 0)), 2) == 2

    def test_non_free_cell_gives_zero(self):
        assert census(SQUARE22).b_boundary(Cell((1, 1)), 1) == 0

    def test_matches_oracle(self):
        cen = census(LBLOCK3)
        vox = frozenset(tuple(v) for v in LBLOCK3.voxels)
        for i in range(2):
            for j in range(i + 1, 3):
                for e in cen.cells_by_dim[i]:
                    assert cen.b_boundary(e, j) == o_b_boundary(3, vox, tuple(e), j)

    def test_range_validation(self):
        cen = census(SINGLE3)
        with pytest.raises(ValueError):
            cen.b_boundary(Cell((1, 1, 0)), 3)  # j must stay below n
        with pytest.raises(ValueError):
            cen.b_boundary(Cell((1, 1, 0)), 1)  # j must exceed dim(e)
        with pytest.raises(ValueError):
            cen.b_boundary(Cell((7, 7, 1)), 2)  # not a cell of the object

    def test_border_sum_identity_on_domino(self):
        # frozen by oracle: sum of b_2 over the free edges is 4 * 10
        cen = census(DOMINO3)
        assert sum(cen.b_boundary(e, 2) for e in cen.border(1)) == 40


class TestFreeFaceHeredity:
    @pytest.mark.parametrize("obj", [SINGLE3, DOMINO3, DIAG3, LBLOCK3, CUBE222, SQUARE22])
    def test_every_face_of_a_free_cell_is_free(self, obj):
        cen = census(obj)
        n = obj.n
        for j in range(1, n):
            for f in cen.free_by_dim[j]:
                for i in range(j):
                    for e in faces(f, i):
                        assert e in cen.free_by_dim[i]

    @pytest.mark.parametrize("n", [2, 3])
    def test_on_random_objects(self, n):
        for seed in range(20):
            obj = random_object(n, 3, 0.6, 555 + seed)
            cen = census(obj)
            for j in range(1, n):
                for f in cen.free_by_dim[j]:
                    for e in faces(f, j - 1):
                        assert e in cen.free_by_dim[j - 1]
