"""Closed-form counts vs enumeration, duality, and degree-sum identities."""

from __future__ import annotations

from math import comb

import pytest

from gridgaps import (
    Cell,
    DigitalObject,
    b_in_voxel,
    block_cell_count,
    block_free_facets,
    bounds,
    c_bounded,
    c_bounding,
    census,
    cofaces,
    degrees_from_relation,
    faces,
    incidence_sum_check,
    lblock_cell_count,
    lblock_free_facets,
)

from oracles import o_census


def _domino(n: int) -> DigitalObject:
    return DigitalObject.from_centers(n, [(0,) * n, (1,) + (0,) * (n - 1)])


def _lblock(n: int) -> DigitalObject:
    return DigitalObject.from_centers(
        n,
        [(0,) * n, (1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2)],
    )


class TestBoundingCounts:
    @pytest.mark.parametrize(
        "i, j, expected", [(2, 3, 6), (0, 3, 8), (0, 1, 2), (1, 3, 12)]
    )
    def test_c_bounding_values(self, i, j, expected):
        assert c_bounding(i, j) == expected

    @pytest.mark.parametrize(
        "i, j, n, expected",
        [(1, 2, 3, 4), (0, 2, 2, 4), (0, 1, 1, 1 * 2), (2, 3, 4, 4)],
    )
    def test_c_bounded_values(self, i, j, n, expected):
        assert c_bounded(i, j, n) == expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_c_bounded_is_4_at_codim_step(self, n):
        assert c_bounded(n - 2, n - 1, n) == 4

    def test_range_validation(self):
        with pytest.raises(ValueError):
            c_bounding(2, 2)
        with pytest.raises(ValueError):
            c_bounded(1, 3, 2)
        with pytest.raises(ValueError):
            b_in_voxel(2, 1, 3)

    def test_duality_identity(self):
        # bounded counts are bounding counts read through the dual lattice
        for n in range(1, 13):
            for j in range(1, n + 1):
                for i in range(j):
                    assert c_bounded(i, j, n) == c_bounding(n - j, n - i)

    def test_degree_balance_identity(self):
        # b * c_(i->n) = c_(i->j) * c_(j->n) for every valid triple
        for n in range(1, 13):
            for j in range(1, n):
                for i in range(j):
                    assert b_in_voxel(i, j, n) * c_bounding(i, n) == c_bounding(
                        i, j
                    ) * c_bounding(j, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_cell_enumeration(self, n):
        voxel_cell = Cell((0,) * n)
        for j in range(1, n + 1):
            f = Cell(tuple(0 if k < j else 1 for k in range(n)))
            for i in range(j):
                assert len(faces(f, i)) == c_bounding(i, j)
        for i in range(n):
            e = Cell(tuple(0 if k < i else 1 for k in range(n)))
            for j in range(i + 1, n + 1):
                assert len(cofaces(e, j)) == c_bounded(i, j, n)
        assert len(faces(voxel_cell, 0)) == c_bounding(0, n)

    @pytest.mark.parametrize(
        "i, j, n, expected", [(0, 1, 3, 3), (1, 2, 3, 2), (0, 3, 3, 1), (2, 3, 5, 3)]
    )
    def test_b_in_voxel_values(self, i, j, n, expected):
        assert b_in_voxel(i, j, n) == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_b_in_voxel_codim_values(self, n):
        assert b_in_voxel(n - 2, n - 1, n) == 2
        assert b_in_voxel(0, n, n) == 1

    def test_b_in_voxel_by_direct_count(self):
        # j-cells of one voxel bounded by one of its i-cells
        v = Cell((0, 0, 0))
        vertex = Cell((1, 1, 1))
        edges_of_v = faces(v, 1)
        assert sum(1 for f in edges_of_v if bounds(vertex, f)) == b_in_voxel(0, 1, 3)
        squares_of_v = faces(v, 2)
        assert sum(1 for f in squares_of_v if bounds(vertex, f)) == b_in_voxel(0, 2, 3)


class TestBlockCensusForms:
    @pytest.mark.parametrize(
        "i, n, expected", [(0, 3, 12), (2, 3, 11), (3, 3, 2), (0, 2, 6), (1, 2, 7)]
    )
    def test_block_cell_count_values(self, i, n, expected):
        assert block_cell_count(i, n) == expected

    @pytest.mark.parametrize(
        "i, n, expected", [(0, 3, 16), (1, 3, 28), (3, 3, 3), (0, 4, 32), (3, 4, 22)]
    )
    def test_lblock_cell_count_values(self, i, n, expected):
        assert lblock_cell_count(i, n) == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_block_census_matches_enumeration(self, n):
        cen = census(_domino(n))
        for i in range(n + 1):
            assert cen.c[i] == block_cell_count(i, n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lblock_census_matches_enumeration(self, n):
        cen = census(_lblock(n))
        for i in range(n + 1):
            assert cen.c[i] == lblock_cell_count(i, n)

    @pytest.mark.parametrize("n, expected", [(1, 2), (2, 6), (3, 10), (4, 14)])
    def test_block_free_facets_values(self, n, expected):
        assert block_free_facets(n) == expected

    @pytest.mark.parametrize("n, expected", [(2, 8), (3, 14), (4, 20)])
    def test_lblock_free_facets_values(self, n, expected):
        assert lblock_free_facets(n) == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_free_facets_match_classification(self, n):
        assert census(_domino(n)).c_star[n - 1] == block_free_facets(n)
        assert census(_lblock(n)).c_star[n - 1] == lblock_free_facets(n)

    def test_divisions_are_exact_everywhere(self):
        # the interior division can never truncate on a valid input
        for n in range(1, 21):
            for i in range(n + 1):
                c_to_n = (1 << (n - i)) * comb(n, i)
                assert (3 * n + i) * c_to_n % (2 * n) == 0
                assert (2 * n + i) * c_to_n % n == 0
                block_cell_count(i, n)
                if n >= 2:
                    lblock_cell_count(i, n)

    def test_inexact_division_raises(self):
        from gridgaps.counting import _exact_div

        assert _exact_div(12, 4) == 3
        with pytest.raises(ArithmeticError) as err:
            _exact_div(7, 2)
        assert str(err.value) == "7 is not divisible by 2"

    def test_range_validation(self):
        with pytest.raises(ValueError):
            block_cell_count(4, 3)
        with pytest.raises(ValueError):
            lblock_cell_count(0, 1)
        with pytest.raises(ValueError):
            block_free_facets(0)
        with pytest.raises(ValueError):
            lblock_free_facets(1)


class TestIncidenceSums:
    def test_single_voxel_vertices_vs_edges(self):
        v = Cell((0, 0, 0))
        verts, edges = sorted(faces(v, 0)), sorted(faces(v, 1))
        pts, blks = degrees_from_relation(verts, edges, bounds)
        assert sum(d for _, d in pts) == 24
        assert sum(d for _, d in blks) == 24
        assert incidence_sum_check(pts, blks)

    def test_empty_structure(self):
        assert incidence_sum_check([], [])

    def test_domino_borders(self):
        obj = _domino(3)
        cen = census(obj)
        free1 = sorted(cen.free_by_dim[1])
        free2 = sorted(cen.free_by_dim[2])
        pts, blks = degrees_from_relation(free1, free2, bounds)
        assert sum(d for _, d in pts) == 40
        assert sum(d for _, d in blks) == 40
        assert incidence_sum_check(pts, blks)
        assert (cen.c[1], cen.c[2]) == (20, 11)

    def test_detects_mismatched_degrees(self):
        assert not incidence_sum_check([("p", 1)], [("b", 2)])


class TestAgainstIntervalOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_block_and_lblock_against_oracle_census(self, n):
        for obj in (_domino(n), _lblock(n)):
            vox = frozenset(tuple(v) for v in obj.voxels)
            c, c_star, c_prime = o_census(n, vox)
            cen = census(obj)
            assert cen.c == c
            assert cen.c_star == c_star
            assert cen.c_prime == c_prime
