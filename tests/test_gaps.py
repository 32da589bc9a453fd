"""Gap detectors, five-way classification, and the three counting routes."""

from __future__ import annotations

import random
from dataclasses import fields, replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgaps import (
    Cell,
    DigitalObject,
    GapReport,
    HubTag,
    census,
    classification_histogram,
    classify_cell,
    count_gaps_block_formula,
    count_gaps_formula,
    count_gaps_oracle,
    enumerate_all_objects,
    hub_nub_partition,
    is_gap,
    is_gap_by_adjacency,
)
from gridgaps.cli import main

from oracles import o_gap_count

SINGLE3 = DigitalObject.from_centers(3, [(0, 0, 0)])
DOMINO3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 0, 0)])
DIAG3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0)])
LBLOCK3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
CUBE222 = DigitalObject.from_centers(3, list(product((0, 1), repeat=3)))
SQUARE22 = DigitalObject.from_centers(2, list(product((0, 1), repeat=2)))
DIAG2 = DigitalObject.from_centers(2, [(0, 0), (1, 1)])
EMPTY3 = DigitalObject(3)

HUB_EDGE = Cell((1, 1, 0))  # shared edge of the diagonal pair


def random_object(n: int, extent: int, density: float, seed: int) -> DigitalObject:
    rng = random.Random(seed)
    centers = [c for c in product(range(extent), repeat=n) if rng.random() < density]
    return DigitalObject.from_centers(n, centers)


class TestClassify:
    def test_diagonal_pair_hub_is_tandem(self):
        klass = classify_cell(DIAG3, HUB_EDGE)
        assert klass.tag is HubTag.GAP_TANDEM
        assert klass.voxels == DIAG3.voxels

    def test_domino_shared_face_edges_are_facet_pairs(self):
        klass = classify_cell(DOMINO3, Cell((1, 1, 0)))
        assert klass.tag is HubTag.FACET_PAIR_BLOCK
        assert klass.voxels == DOMINO3.voxels

    def test_square_center_is_full_block(self):
        assert classify_cell(SQUARE22, Cell((1, 1))).tag is HubTag.FULL_BLOCK

    def test_lblock_center(self):
        klass = classify_cell(LBLOCK3, Cell((1, 1, 0)))
        assert klass.tag is HubTag.L_BLOCK
        assert len(klass.voxels) == 3

    def test_simple_cell(self):
        assert classify_cell(SINGLE3, Cell((1, 1, 0))).tag is HubTag.SIMPLE

    def test_errors(self):
        with pytest.raises(ValueError):
            classify_cell(SINGLE3, Cell((1, 0, 0)))  # an (n-1)-cell
        with pytest.raises(ValueError):
            classify_cell(SINGLE3, Cell((7, 7, 0)))  # not a cell of the object

    # frozen from the interval-oracle classification scan
    @pytest.mark.parametrize(
        "obj, expected, total",
        [
            (SQUARE22, {"simple": 4, "facet_pair_block": 4, "full_block": 1}, 9),
            (LBLOCK3, {"simple": 21, "facet_pair_block": 6, "l_block": 1}, 28),
            (SINGLE3, {"simple": 12}, 12),
            (DIAG3, {"simple": 22, "gap_tandem": 1}, 23),
        ],
    )
    def test_histograms(self, obj, expected, total):
        hist = classification_histogram(obj)
        got = {tag.value: k for tag, k in hist.items() if k}
        assert got == expected
        assert sum(hist.values()) == total == census(obj).c[obj.n - 2]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exactly_one_tag_consistent_with_freeness(self, n):
        for seed in range(15):
            obj = random_object(n, 3, 0.5, 31 * n + seed)
            cen = census(obj)
            free = cen.free_by_dim[n - 2]
            for e in cen.cells_by_dim[n - 2]:
                klass = classify_cell(obj, e)
                assert (klass.tag is HubTag.FULL_BLOCK) == (e not in free)
                assert (klass.tag is HubTag.GAP_TANDEM) == is_gap(obj, e, n - 2)


def classify_cell_tally(obj: DigitalObject) -> dict[HubTag, int]:
    hist = {tag: 0 for tag in HubTag}
    for e in census(obj).cells_by_dim[obj.n - 2]:
        hist[classify_cell(obj, e).tag] += 1
    return hist


class TestHistogramDifferential:
    """The one-pass block-trace histogram against per-cell classify_cell."""

    @pytest.mark.parametrize("n, extents", [(3, (2, 2, 2)), (2, (3, 3))])
    def test_every_object_of_small_boxes(self, n, extents):
        for obj in enumerate_all_objects(n, extents):
            assert classification_histogram(obj) == classify_cell_tally(obj)

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(*[st.integers(-(1 << 59) + 1, (1 << 59) - 1)] * n),
                    min_size=1,
                    max_size=3,
                ),
                st.lists(
                    st.tuples(*[st.integers(-1, 1)] * n), min_size=1, max_size=8
                ),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_negative_and_far_apart_centers(self, drawn):
        # small clusters around anchors anywhere in the +-2**59 center range,
        # so blocks across every axis pair meet voxels on both sides
        n, anchors, offsets = drawn
        centers = {
            tuple(a + d for a, d in zip(anchor, offset))
            for anchor in anchors
            for offset in offsets
        }
        obj = DigitalObject.from_centers(n, centers)
        assert classification_histogram(obj) == classify_cell_tally(obj)

    def test_classify_runs_no_census(self, tmp_path, monkeypatch, capsys):
        from gridgaps import cli, objects

        path = tmp_path / "obj.dvo"
        path.write_text("dvo 3\n0 0 0\n1 1 0\n1 0 0\n2 2 1\n", encoding="utf-8")
        expected = []
        for flags in ([], ["--json"]):
            assert main(["classify", str(path), *flags]) == 0
            expected.append(capsys.readouterr().out)

        def refused(obj):
            raise AssertionError("classify ran a census")

        # gaps reaches the census only through objects (``_census_of``)
        for module in (cli, objects):
            monkeypatch.setattr(module, "census", refused)
        for flags, out in zip(([], ["--json"]), expected):
            assert main(["classify", str(path), *flags]) == 0
            assert capsys.readouterr().out == out


class TestIsGap:
    def test_diagonal_pixel_pair(self):
        assert is_gap(DIAG2, Cell((1, 1)), 0)

    def test_domino_has_no_edge_gap(self):
        for e in census(DOMINO3).cells_by_dim[1]:
            assert not is_gap(DOMINO3, e, 1)

    def test_single_voxel_never_gaps(self):
        for i in (0, 1):
            for e in census(SINGLE3).cells_by_dim[i]:
                assert not is_gap(SINGLE3, e, i)

    def test_lower_dimensional_gap(self):
        # two voxels sharing exactly one vertex: a 0-gap in 3D
        obj = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 1)])
        assert is_gap(obj, Cell((1, 1, 1)), 0)
        assert count_gaps_oracle(obj, 0).g == 1
        assert count_gaps_oracle(obj, 1).g == 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            is_gap(DIAG3, Cell((1, 1, 0)), 3)
        with pytest.raises(ValueError):
            is_gap(DIAG3, Cell((1, 1, 0)), 0)  # dimension mismatch with i


class TestAdjacencyDetector:
    def test_hub_edge_detected(self):
        assert is_gap_by_adjacency(DIAG3, HUB_EDGE)

    def test_lblock_center_rejected(self):
        # the third voxel is facet-adjacent to both tandem candidates
        assert not is_gap_by_adjacency(LBLOCK3, Cell((1, 1, 0)))

    def test_domino_edges_rejected(self):
        for e in census(DOMINO3).cells_by_dim[1]:
            assert not is_gap_by_adjacency(DOMINO3, e)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equivalence_with_block_inspection(self, n):
        for seed in range(25):
            obj = random_object(n, 3, 0.5, 77 * n + seed)
            for e in census(obj).cells_by_dim[n - 2]:
                assert is_gap(obj, e, n - 2) == is_gap_by_adjacency(obj, e)


GAP_FIXTURES = [
    (SINGLE3, 0),
    (DOMINO3, 0),
    (DIAG3, 1),
    (LBLOCK3, 0),
    (CUBE222, 0),
    (DIAG2, 1),
    (EMPTY3, 0),
]


class TestCounts:
    @pytest.mark.parametrize("obj, expected", GAP_FIXTURES)
    def test_all_three_methods(self, obj, expected):
        assert count_gaps_oracle(obj, obj.n - 2).g == expected
        assert count_gaps_formula(obj) == expected
        assert count_gaps_block_formula(obj) == expected

    def test_report_shape(self):
        report = count_gaps_oracle(DIAG3, 1)
        assert report.i == 1
        assert report.hubs == (HUB_EDGE,)
        assert report.g == len(report.hubs)
        assert count_gaps_oracle(DIAG3, 0) == GapReport(i=0, hubs=(), g=0)
        assert [f.name for f in fields(GapReport)] == ["i", "hubs", "g"]

    def test_checkerboard_matches_oracle(self):
        obj = DigitalObject.from_centers(
            2, [(a, b) for a in range(3) for b in range(3) if (a + b) % 2 == 0]
        )
        vox = frozenset(tuple(v) for v in obj.voxels)
        assert count_gaps_oracle(obj, 0).g == o_gap_count(2, vox, 0) == 4
        assert count_gaps_formula(obj) == 4

    @pytest.mark.parametrize("n", [2, 3])
    def test_triple_agreement_matches_interval_oracle(self, n):
        for seed in range(30):
            obj = random_object(n, 3, 0.5, 13 * n + seed)
            vox = frozenset(tuple(v) for v in obj.voxels)
            expected = o_gap_count(n, vox, n - 2)
            assert count_gaps_oracle(obj, n - 2).g == expected
            assert count_gaps_formula(obj) == expected
            assert count_gaps_block_formula(obj) == expected

    def test_invariance_under_translation_and_permutation(self):
        obj = random_object(3, 4, 0.5, 99)
        base = count_gaps_formula(obj)
        assert count_gaps_formula(obj.translate((5, -2, 1))) == base
        assert count_gaps_formula(obj.permute_axes((2, 0, 1))) == base
        assert count_gaps_oracle(obj.permute_axes((1, 0, 2)), 1).g == base

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_invariance_under_axis_reflection(self, n):
        # negating one center coordinate maps i-cells to i-cells and blocks
        # to blocks, so the census, all three gap counts and the mirrored
        # hubs must be unchanged
        def mirror(coords, axis):
            return tuple(-x if k == axis else x for k, x in enumerate(coords))

        for seed in range(4):
            obj = random_object(n, 4, 0.5, 41 * n + seed)
            cen = census(obj)
            base = count_gaps_oracle(obj, n - 2, cen)
            formulas = count_gaps_formula(obj, cen), count_gaps_block_formula(obj, cen)
            for axis in range(n):
                flipped = DigitalObject.from_centers(
                    n, [mirror(c, axis) for c in obj.centers()]
                )
                got_cen = census(flipped)
                assert got_cen.c == cen.c and got_cen.c_star == cen.c_star
                assert got_cen.c_prime == cen.c_prime
                got = count_gaps_oracle(flipped, n - 2, got_cen)
                assert got.g == base.g
                assert (
                    count_gaps_formula(flipped, got_cen),
                    count_gaps_block_formula(flipped, got_cen),
                ) == formulas
                assert set(got.hubs) == {mirror(e, axis) for e in base.hubs}

    def test_oracle_scan_takes_cells_not_freeness_from_the_census(self):
        cen = census(DIAG3)
        assert count_gaps_oracle(DIAG3, 1, cen) == count_gaps_oracle(DIAG3, 1)
        # with every cell marked non-free the formulas move, the scan does not
        doctored = replace(
            cen, c_star=(0,) * 4, free_by_dim=(frozenset(),) * 4
        )
        report = count_gaps_oracle(DIAG3, 1, doctored)
        assert report.hubs == (HUB_EDGE,) and report.g == 1
        assert count_gaps_formula(DIAG3, doctored) == 0

    @pytest.mark.parametrize(
        "count",
        [
            lambda obj, cen: count_gaps_oracle(obj, obj.n - 2, cen),
            count_gaps_formula,
            count_gaps_block_formula,
            hub_nub_partition,
        ],
        ids=["oracle", "formula", "block_formula", "hub_nub_partition"],
    )
    def test_census_of_another_dimension_rejected(self, count):
        # a 2-D census once gave count_gaps_formula -8 on a 3-D object
        for obj, other in ((DIAG3, DIAG2), (DIAG2, DIAG3)):
            with pytest.raises(ValueError, match="census of dimension"):
                count(obj, census(other))

    def test_n1_rejected(self):
        line = DigitalObject.from_centers(1, [(0,), (2,)])
        with pytest.raises(ValueError):
            count_gaps_formula(line)
        with pytest.raises(ValueError):
            count_gaps_oracle(line, 0)


class TestHubNubPartition:
    @pytest.mark.parametrize(
        "obj, hubs, nubs",
        [(DIAG3, 1, 22), (DOMINO3, 0, 20), (SINGLE3, 0, 12), (SQUARE22, 0, 8)],
    )
    def test_fixture_partitions(self, obj, hubs, nubs):
        got_hubs, got_nubs = hub_nub_partition(obj)
        assert (len(got_hubs), len(got_nubs)) == (hubs, nubs)

    def test_partition_covers_border(self):
        cen = census(DIAG3)
        hubs, nubs = hub_nub_partition(DIAG3, cen)
        assert hubs | nubs == cen.free_by_dim[1]
        assert not hubs & nubs
        assert hubs == frozenset({HUB_EDGE})

    def test_counts_match_formula(self):
        for seed in range(10):
            obj = random_object(3, 4, 0.5, seed)
            cen = census(obj)
            hubs, nubs = hub_nub_partition(obj, cen)
            assert len(hubs) == count_gaps_formula(obj, cen)
            assert len(nubs) == cen.c_star[1] - len(hubs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_degree_sum_replay(self, n):
        # the free-facet degrees over the (n-2)-border add up two ways:
        # 2(n-1)c*_{n-1} from the incidence structure, 4g + 2(c*-g) from
        # the hub/nub split; equating them is the gap formula itself
        for seed in range(10):
            obj = random_object(n, 4, 0.5, 17 * n + seed)
            cen = census(obj)
            hubs, nubs = hub_nub_partition(obj, cen)
            total = sum(cen.b_boundary(e, n - 1) for e in cen.free_by_dim[n - 2])
            assert total == 2 * (n - 1) * cen.c_star[n - 1]
            assert total == 4 * len(hubs) + 2 * len(nubs)
