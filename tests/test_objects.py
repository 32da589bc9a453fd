"""Digital objects: cell enumeration, free cells, borders, censuses."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgaps import (
    Cell,
    DigitalObject,
    ShapeSpec,
    census,
    faces,
    generate,
)
from gridgaps.dvo import dumps, loads

from oracles import o_b_boundary, o_census
from references import (
    CUBE222,
    DIAG3,
    DOMINO3,
    EDGE,
    EMPTY3,
    LBLOCK3,
    LINE1,
    SINGLE3,
    SQUARE22,
    assert_census_matches_oracle,
    oracle_sets,
)


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

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_non_int_dimension_rejected(self, n):
        # an n = True object would dump as "dvo True", which loads refuses
        with pytest.raises(TypeError, match="ambient dimension"):
            DigitalObject(n, [])

    def test_translate_out_of_range_raises(self):
        obj = DigitalObject.from_centers(2, [(0, 0), (1, 1)])
        with pytest.raises(ValueError) as err:
            obj.translate((1 << 60, 0))
        # either shifted center may be checked first; both are out of range
        big = 1 << 60
        assert f"({big}, 0)" in str(err.value) or f"({big + 1}, 1)" in str(err.value)
        assert obj.translate((EDGE - 1, -EDGE)).centers() == [
            (EDGE - 1, -EDGE),
            (EDGE, 1 - EDGE),
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

    @pytest.mark.parametrize("perm", [(0, 1, 2), (2, 0, 1), (1, 0, 2)])
    def test_permute_axes_is_the_checked_object(self, perm):
        # permute_axes skips the per-voxel check of DigitalObject(n, voxels),
        # so it must give the object that check gives
        obj = DigitalObject.from_centers(3, [(0, -2, 5), (1, 1, 0), (3, 0, 0)])
        moved = obj.permute_axes(perm)
        checked = DigitalObject(3, (Cell(v[k] for k in perm) for v in obj.voxels))
        assert (moved, hash(moved)) == (checked, hash(checked))
        assert type(moved.voxels) is frozenset
        assert moved.centers() == sorted(tuple(c[k] for k in perm) for c in obj.centers())

    def test_permute_axes_refuses_a_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            SINGLE3.permute_axes((0, 0, 1))

    def test_value_semantics(self):
        a = DigitalObject.from_centers(2, [(0, 0), (1, 1)])
        b = DigitalObject.from_centers(2, [(1, 1), (0, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != DigitalObject.from_centers(2, [(0, 0)])
        assert a.__eq__(a.voxels) is NotImplemented and a != a.voxels

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError) as err:
            DigitalObject(0)
        assert str(err.value) == "ambient dimension must be >= 1, got 0"

    def test_translate_wrong_length_rejected(self):
        with pytest.raises(ValueError) as err:
            SINGLE3.translate((1, 0))
        assert str(err.value) == "translation vector has wrong length"

    def test_container_protocol_and_repr(self):
        obj = DigitalObject.from_centers(2, [(1, 1), (0, 0), (0, 1)])
        assert Cell((0, 2)) in obj and Cell((2, 0)) not in obj
        assert list(obj) == [Cell((0, 0)), Cell((0, 2)), Cell((2, 2))]
        assert repr(obj) == "DigitalObject(n=2, voxels=3)"


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

    def test_cell_sets_slice_and_compare_as_tuples(self):
        cells = census(LBLOCK3).cells_by_dim
        assert cells[1:] == tuple(cells)[1:] and type(cells[1:]) is tuple
        assert cells == tuple(cells)
        assert cells.__eq__(list(cells)) is NotImplemented
        assert cells != list(cells)

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
            obj = generate(ShapeSpec("random", n, (3,) * n, 0.5, seed))
            cen = census(obj)
            assert (cen.c, cen.c_star, cen.c_prime) == o_census(n, frozenset(map(tuple, obj.voxels)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_facet_count_identity_on_random_objects(self, n):
        for seed in range(200):
            obj = generate(ShapeSpec("random", n, (3,) * n, 0.5, 1000 * n + seed))
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


class TestCensusDifferential:
    """The census against the interval oracles on far-apart clusters and
    at the range's ends; every object of the 2x2x2 and 3x3 boxes is
    checked in ``test_bitmaps.TestOracles``."""

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
        obj = DigitalObject.from_centers(n, centers)
        assert_census_matches_oracle(obj, census(obj), oracle_sets(obj))

    def test_extreme_centers(self):
        obj = DigitalObject.from_centers(
            2, [(EDGE, EDGE), (-EDGE, -EDGE), (EDGE - 1, EDGE - 1), (-EDGE, EDGE)]
        )
        assert_census_matches_oracle(obj, census(obj), oracle_sets(obj))

    def test_line_and_empty(self):
        for obj in (LINE1, EMPTY3):
            assert_census_matches_oracle(obj, census(obj), oracle_sets(obj))


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
            obj = generate(ShapeSpec("random", n, (3,) * n, 0.6, 555 + seed))
            cen = census(obj)
            for j in range(1, n):
                for f in cen.free_by_dim[j]:
                    for e in faces(f, j - 1):
                        assert e in cen.free_by_dim[j - 1]
