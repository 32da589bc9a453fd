"""The census's bitmaps against their per-cell references on named
objects: the range corners, low dimensions and free cells outside the
listed span, real and doctored. A failing identity must name the first
failing cell in witness order, as its reference does, and ``verify`` must
decode no cell tuples but the (n-2)-cells. The check families, references
and objects come from ``references.py``. On every object of the 2x2x2
box, and of the box moved by one, each family runs on the one census
``references.box_222`` builds for it.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace
from itertools import cycle

import pytest

from gridgaps import (
    Cell,
    DigitalObject,
    ShapeSpec,
    census,
    enumerate_all_objects,
    faces,
    generate,
)
from gridgaps import cli, dvo, gaps, objects
from gridgaps.cells import COORD_LIMIT, _parity
from gridgaps.gaps import HubTag, count_gaps_oracle
from gridgaps.identities import border_sum, check_object, hub_nub_degree
from gridgaps.bitmaps import _Bitmaps
from gridgaps.objects import CellCensus

from references import (
    CORNERS,
    DIAG2,
    EMPTY3,
    FAR_DIAG3,
    HUBS3,
    LINE1,
    LOW,
    RANDOM3,
    RANDOM4,
    REFERENCES,
    assert_all_censuses_agree,
    assert_bitmaps_match_rebuilt,
    assert_bitmaps_match_tuples,
    assert_border_sum_on_doctored,
    assert_identities_match,
    assert_is_gap_matches_oracle,
    assert_probes_decode,
    box_222,
    face_side_sums,
    held,
    in_order,
    index,
    listing_free_outside,
    oracle_sets,
    reaching_past,
    with_listing,
)


class TestPackedProbes:
    def test_every_object_of_a_222_box(self):
        parities = set()
        for obj, cen, sets in box_222():
            parities |= assert_all_censuses_agree(obj, cen, sets)
        assert parities == {0, 1}

    def test_every_object_of_a_222_box_translated(self):
        # only the census reaching past the object flips its least parity
        parities = set()
        for moved, cen, _ in box_222(moved=True):
            parities |= assert_all_censuses_agree(moved, cen)
        assert parities == {0, 1}

    @pytest.mark.parametrize(
        "obj, tiles",
        list(zip(CORNERS, (4, 9, 1, 3))),
        ids=["n2", "n3-with-hubs", "n3-diagonal", "n1-line"],
    )
    def test_range_corners(self, obj, tiles):
        # a tile for each corner's voxels (the diagonal pair shares one),
        # and on the line one for 0, 1 and 5 between the two ends
        cen = census(obj)
        assert assert_all_censuses_agree(obj, cen, oracle_sets(obj)) == {0, 1}
        assert len(cen._bitmaps.tiles) == tiles

    @pytest.mark.parametrize(
        "obj",
        [
            LINE1,
            DIAG2,
            HUBS3,
            DigitalObject.from_centers(4, [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 0)]),
            FAR_DIAG3,  # at the -2**60 corner, so only the vertex lies outside
        ],
        ids=["n1", "n2-diagonal", "n3-with-hubs", "n4", "n3-diagonal-corner"],
    )
    def test_free_cells_outside_the_listed_span(self, obj):
        cen = listing_free_outside(census(obj))
        assert_probes_decode(cen)
        assert_bitmaps_match_tuples(obj, cen)
        if obj.n >= 2 and obj is not FAR_DIAG3:
            witness = hub_nub_degree(obj, cen).witness  # names a far cell, decoded
            assert any(f"cell=({x}, " in witness for x in (COORD_LIMIT - 1, 1 - COORD_LIMIT))


class TestDirectView:
    def test_every_object_of_a_222_box(self):
        for _, cen, _ in box_222():
            assert_bitmaps_match_rebuilt(cen)

    @pytest.mark.parametrize(
        "obj",
        CORNERS + [LINE1, EMPTY3],
        ids=["n2", "n3-with-hubs", "n3-diagonal", "n1-corners", "n1-line", "empty"],
    )
    def test_corners_line_and_empty(self, obj):
        assert_bitmaps_match_rebuilt(census(obj))

    def test_verify_decodes_only_the_codim2_cells(self):
        obj = DigitalObject.from_centers(
            4, [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 0), (2, 2, 1, 1), (3, 3, 1, 1)]
        )
        cen = census(obj)

        def decoded():
            return [
                [i for i, cells in enumerate(sets._sets) if cells is not None]
                for sets in (cen.cells_by_dim, cen.free_by_dim)
            ]

        # verify decodes no listing; the reference scan decodes the (n-2)-cells alone
        assert all(r.passed for r in check_object(obj, cen))
        assert decoded() == [[], []]
        assert count_gaps_oracle(obj, obj.n - 2, cen).g == 1
        assert decoded() == [[obj.n - 2], []]


def test_census_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        cen = census(HUBS3)
        assert cen.b_boundary(Cell((1, 1, 0)), 2) == 4
        assert all(r.passed for r in check_object(HUBS3, cen))
        ref = weakref.ref(cen)
        del cen
        assert ref() is None
    finally:
        gc.enable()


class TestBatchedProbes:
    def test_every_object_of_a_222_box(self):
        # the probes of these censuses and their doctored copies run in TestPackedProbes
        for obj, _, sets in box_222():
            assert_is_gap_matches_oracle(obj, sets)

    @pytest.mark.parametrize(
        "obj",
        CORNERS + LOW + list(enumerate_all_objects(2, (2, 2))),
        ids=lambda obj: f"n{obj.n}-{len(obj)}",
    )
    def test_corners_and_low_dimensions(self, obj):
        cen = census(obj)
        for c in (cen, reaching_past(cen), listing_free_outside(cen)):
            assert_probes_decode(c)
        assert_is_gap_matches_oracle(obj, oracle_sets(obj))

    def test_census_lists_each_dimension_one_run_per_class(self):
        # each tile lists each class of a dimension once, in class order,
        # and only classes of that dimension; the bits of a class run in
        # the lexicographic order of its cells
        for seed in range(4):
            obj = generate(ShapeSpec("random", 4, extents=(4,) * 4, density=0.5, seed=seed))
            cen = census(obj)
            for tile in cen._bitmaps.tiles.values():
                for listing in (tile.cells, tile.free, tile.reach):
                    for i, by_class in enumerate(listing):
                        assert list(by_class) == sorted(by_class)
                        assert all(4 - sum(q) == i for q in by_class)
            for i in range(5):
                assert list(cen._bitmaps.listing("cells", i)) == in_order(cen, cen.cells_by_dim[i])


# Failure output: a failing identity names the first failing cell in
# witness order, with the count checked up to it, exactly as its reference
# does on the cells the bitmaps hold, decoded.


def every_other(cells):
    return set(sorted(cells)[::2])


def with_bitmaps(cen: CellCensus, dropped: set, voxels: bool = False) -> CellCensus:
    """A copy of the census whose bitmaps lose ``dropped``: from its free
    cells (every tile that holds them) or, with ``voxels``, from its voxel
    bitmaps; the tuple sets are the census's."""
    copy = replace(cen)
    maps = copy._bitmaps
    for e in dropped:
        for key, bit in maps.covering(index(maps, e)):
            tile = maps.tiles[key]
            if voxels:
                tile.voxels &= ~(1 << bit)
            else:
                for listing in (tile.free, tile.reach):
                    by_class = listing[e.dim]
                    if _parity(e) in by_class:
                        by_class[_parity(e)] &= ~(1 << bit)
    return copy


def doctored_censuses(cen: CellCensus) -> dict[str, CellCensus]:
    """Censuses on which several cells fail, doctored in their tuple sets
    (made with ``dataclasses.replace``) and in their bitmaps alone."""
    n = cen.n
    out = {}
    for name, i in (("facets", n - 1), ("codim2", n - 2), ("vertices", 0)):
        dropped = every_other(cen.free_by_dim[i])
        out[f"replace-free-{name}"] = with_listing(cen, i, free=cen.free_by_dim[i] - dropped)
        out[f"view-free-{name}"] = with_bitmaps(cen, dropped)
    dropped = every_other(cen.cells_by_dim[n])
    out["replace-voxels"] = with_listing(cen, n, cells=cen.cells_by_dim[n] - dropped)
    out["view-voxels"] = with_bitmaps(cen, dropped, voxels=True)
    return out


FAILING = [RANDOM3, generate(ShapeSpec("random", 3, (3,) * 3, 0.5, 2)), RANDOM4]


class TestFailureOutput:
    @pytest.mark.parametrize("obj", FAILING, ids=lambda obj: f"n{obj.n}-{len(obj)}")
    def test_first_failing_cell_in_view_order(self, obj):
        failed = set()
        for name, doctored in doctored_censuses(census(obj)).items():
            kind = name.split("-")[0]
            failed |= {(i, kind) for i in assert_identities_match(obj, doctored, held(doctored))}
        # every identity fails on some doctored census of each kind
        assert {(i.__name__, kind) for i, _ in REFERENCES for kind in ("replace", "view")} <= failed

    def test_wrong_diagonal_step_in_the_block_lists_fails_verify(self, tmp_path, monkeypatch, capsys):
        # the (+1, +1) corner of each block is read as (+3, +3), which is no
        # voxel of the block, so a cell's voxel on that diagonal is never
        # seen: from a flat coordinate, +3 is one index up where +1 is none
        real = _Bitmaps.steps

        def wrong_steps(maps, q, flat, k):
            table = real(maps, q, flat, k)
            if (flat, k) != (1, 2):
                return table
            return {
                p: tuple(
                    (d, shift + sum(w for x, w in zip(d, maps.weights) if x > 0) if min(d) >= 0 else shift)
                    for d, shift in steps
                )
                for p, steps in table.items()
            }

        path = tmp_path / "r.dvo"
        path.write_text(dvo.dumps(FAILING[2]), encoding="utf-8")
        assert cli.main(["verify", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(_Bitmaps, "steps", wrong_steps)
        assert cli.main(["verify", str(path)]) == cli.EXIT_DISAGREEMENT
        failed = {line.split(":")[0] for line in capsys.readouterr().out.splitlines()}
        assert {"FAIL detector-equivalence", "FAIL classification-totality"} <= failed

    def test_tandem_tag_on_a_facet_pair_fails_verify(self, tmp_path, monkeypatch, capsys):
        # the window pass calls the block trace 0b0011, a facet-adjacent
        # pair, a gap tandem: every identity that reads its hubs fails
        tags = list(gaps._TRACE_TAG)
        tags[0b0011] = HubTag.GAP_TANDEM
        path = tmp_path / "r.dvo"
        path.write_text(dvo.dumps(FAILING[2]), encoding="utf-8")
        monkeypatch.setattr(gaps, "_TRACE_TAG", tuple(tags))
        assert cli.main(["verify", str(path)]) == cli.EXIT_DISAGREEMENT
        failed = {line.split(":")[0] for line in capsys.readouterr().out.splitlines()}
        assert {
            "FAIL hub-nub-degree",
            "FAIL gap-triple-agreement",
            "FAIL detector-equivalence",
            "FAIL classification-totality",
        } <= failed

    def test_verify_builds_each_census_block_lists_once(self, monkeypatch):
        # the window pass's hubs are mapped into each census's tiles once,
        # and shared by the three identities that read them
        real, mapped = _Bitmaps.place, []

        def counted(maps, cells):
            cells = list(cells)
            mapped.append(len(cells))
            return real(maps, cells)

        monkeypatch.setattr(_Bitmaps, "place", counted)
        assert cli.main(["verify", "--random", "4", "3", "0.5", "1", "3", "--json"]) == cli.EXIT_OK
        assert len(mapped) == 3 and all(mapped)


def tuple_face_sum(cen: CellCensus, i: int, j: int) -> int:
    """The sum from the j side over the census's tuple sets, with ``faces``."""
    free_i = cen.free_by_dim[i]
    return sum(len(faces(f, i) & free_i) for f in cen.free_by_dim[j])


SMALL_N8 = DigitalObject.from_centers(8, [(0,) * 8])


class TestBorderSumFromTheFaceSide:
    def test_every_object_of_a_222_box(self):
        # each object takes one (i, j) in turn for its doctored copies
        for (obj, cen, _), pair in zip(box_222(), cycle([(0, 1), (0, 2), (1, 2)])):
            assert_border_sum_on_doctored(obj, cen, [pair])

    @pytest.mark.parametrize("obj", CORNERS + LOW, ids=lambda obj: f"n{obj.n}-{len(obj)}")
    def test_corners_and_low_dimensions(self, obj):
        assert_border_sum_on_doctored(obj, census(obj))

    def test_small_n8_object(self):
        # the tuple route steps about 5.7 million cofaces from one voxel's
        # free cells at n = 8, so the tuple sets are counted from the j side
        cen = census(SMALL_N8)
        sums = face_side_sums(SMALL_N8, cen)
        assert len(sums) == 28
        assert all(got == tuple_face_sum(cen, i, j) for (i, j), got in sums.items())
        assert_border_sum_on_doctored(SMALL_N8, cen, [(2, 5)], tuples=False)

    def test_border_sum_does_not_step_to_cofaces(self, monkeypatch):
        # the tuple coface side is left to b_boundary alone
        def refused(e, j):
            raise AssertionError("coface-side b_j")

        obj = FAILING[2]
        cen = census(obj)
        monkeypatch.setattr(objects, "cofaces", refused)
        result = border_sum(obj, cen)
        assert result.passed and result.checked == 6
        with pytest.raises(AssertionError, match="coface-side"):
            cen.b_boundary(min(cen.free_by_dim[0]), 1)
