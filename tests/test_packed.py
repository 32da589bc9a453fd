"""The census's packed probes against the tuple routes they replace.

``CellCensus.b_boundary`` and the border-sum, hub-nub-degree and
free-face-heredity identities step through the census's free cells packed
as ints; detector-equivalence and classification-totality probe blocks
through its (n-2)-cells and voxels packed as ints. Each is compared here
with a loop over the census's own tuple sets (``is_gap_by_adjacency`` and
``classify_cell`` for the block probes), and ``b_boundary`` also with the
brute-force interval oracle, on real and doctored censuses. The view that
``census`` builds as it counts is compared with the one packed from its own
tuple sets, and ``verify`` is checked to decode no cell tuples but the
(n-2)-cells.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace
from itertools import product

import pytest

from gridgaps import (
    Cell,
    DigitalObject,
    adjacent_voxels,
    block,
    c_bounding,
    census,
    cofaces,
    enumerate_all_objects,
    faces,
)
from gridgaps.cells import COORD_LIMIT, _mk
from gridgaps.gaps import (
    HubTag,
    classification_histogram,
    classify_cell,
    count_gaps_oracle,
    is_gap_by_adjacency,
)
from gridgaps.identities import (
    border_sum,
    check_object,
    classification_totality,
    detector_equivalence,
    free_face_heredity,
    hub_nub_degree,
)
from gridgaps.objects import CellCensus

from oracles import o_border, o_bounds

EDGE = 1 << 59


def tuple_b_boundary(cen: CellCensus, e: Cell, j: int) -> int:
    return sum(1 for f in cofaces(e, j) if f in cen.free_by_dim[j])


def tuple_border_sum(obj, cen):
    checked = 0
    for j in range(1, obj.n):
        for i in range(j):
            checked += 1
            lhs = sum(tuple_b_boundary(cen, e, j) for e in cen.free_by_dim[i])
            rhs = c_bounding(i, j) * cen.c_star[j]
            if lhs != rhs:
                return checked, f"(i={i}, j={j}): sum={lhs} formula={rhs}"
    return checked, None


def tuple_hub_nub_degree(obj, cen):
    n = obj.n
    if n < 2:
        return 0, None
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    free = cen.free_by_dim[n - 2]
    for checked, e in enumerate(free, 1):
        expected = 4 if e in hubs else 2
        got = tuple_b_boundary(cen, e, n - 1)
        if got != expected:
            return checked, f"cell={tuple(e)}: b_(n-1)={got}, expected {expected}"
    return len(free), None


def tuple_free_face_heredity(obj, cen):
    checked = 0
    for j in range(1, obj.n):
        for f in cen.free_by_dim[j]:
            checked += 1
            missing = [e for e in faces(f, j - 1) if e not in cen.free_by_dim[j - 1]]
            if missing:
                return checked, f"free cell {tuple(f)} has non-free face {tuple(min(missing))}"
    return checked, None


def listed_voxels(cen: CellCensus) -> DigitalObject:
    """The voxels the census lists, as an object: the block view probes
    these, so a doctored census's extra voxels count for both routes."""
    return DigitalObject(cen.n, cen.cells_by_dim[cen.n])


def tuple_detector_equivalence(obj, cen):
    n = obj.n
    if n < 2:
        return 0, None
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    listed = listed_voxels(cen)
    cells = cen.cells_by_dim[n - 2]
    for checked, e in enumerate(cells, 1):
        if (e in hubs) != is_gap_by_adjacency(listed, e):
            return checked, f"cell={tuple(e)}: detectors disagree"
    return len(cells), None


def tuple_classification_totality(obj, cen):
    n = obj.n
    if n < 2:
        return 0, None
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    listed = listed_voxels(cen)
    free, cells = cen.free_by_dim[n - 2], cen.cells_by_dim[n - 2]
    tally = {tag: 0 for tag in HubTag}
    for checked, e in enumerate(cells, 1):
        if not block(e) & listed.voxels:
            return checked, f"cell={tuple(e)}: no voxel in its block"
        tag = classify_cell(listed, e).tag
        tally[tag] += 1
        if (tag is HubTag.FULL_BLOCK) != (e not in free):
            return checked, f"cell={tuple(e)}: tag {tag.value} vs free={e in free}"
        if (tag is HubTag.GAP_TANDEM) != (e in hubs):
            return checked, f"cell={tuple(e)}: tag {tag.value} vs gap detector"
    hist = classification_histogram(obj)
    if hist != tally:
        shown = [{tag.value: h[tag] for tag in HubTag} for h in (hist, tally)]
        return len(cells), "histogram {} but classify_cell tally {}".format(*shown)
    return len(cells), None


REFERENCES = (
    (border_sum, tuple_border_sum),
    (hub_nub_degree, tuple_hub_nub_degree),
    (free_face_heredity, tuple_free_face_heredity),
    (detector_equivalence, tuple_detector_equivalence),
    (classification_totality, tuple_classification_totality),
)


def assert_packed_matches_tuples(obj: DigitalObject, cen: CellCensus, oracle: bool) -> None:
    """With ``oracle``, ``b_boundary`` is also checked against the interval
    oracle: ``o_b_boundary`` with its border computed once per j."""
    n = cen.n
    vox = frozenset(map(tuple, obj.voxels))
    for j in range(1, n):
        border = o_border(n, vox, j) if oracle else ()
        for i in range(j):
            for e in cen.cells_by_dim[i]:
                got = cen.b_boundary(e, j)
                assert got == tuple_b_boundary(cen, e, j), (e, j)
                if oracle:
                    assert got == sum(1 for f in border if o_bounds(tuple(e), f)), (e, j)
    for identity, reference in REFERENCES:
        result = identity(obj, cen)
        checked, detail = reference(obj, cen)
        assert (result.passed, result.checked) == (detail is None, checked), result
        assert result.witness.endswith(f"; {detail}") if detail else not result.witness


def assert_steps_decode(cen: CellCensus) -> None:
    """Every free cell and every +-1 step from it unpacks to its tuple.

    The packed cells are listed in no set order, so each is stepped from
    its own unpacked tuple."""
    view = cen._packed
    fmt, packed_free, packed_sets = view.fmt, view.free, view.free_sets
    for i, free in enumerate(cen.free_by_dim):
        assert set(map(fmt.unpack, packed_free[i])) == free
        assert len(packed_free[i]) == len(free)
        assert packed_sets[i] == frozenset(packed_free[i])
        for p in packed_free[i]:
            e = fmt.unpack(p)
            for k in range(1, cen.n - i + 1):
                assert {fmt.unpack(p + d) for d in fmt.steps(p, 1, k)} == cofaces(e, i + k)
            for k in range(1, i + 1):
                assert {fmt.unpack(p + d) for d in fmt.steps(p, 0, k)} == faces(e, i - k)


def assert_block_probes_decode(cen: CellCensus) -> None:
    """Every listed (n-2)-cell and voxel, every +-1 step from such a cell
    to its block and every +-2 step from such a voxel unpacks to its tuple."""
    n = cen.n
    view = cen._packed
    fmt, packed, vox = view.fmt, view.codim2, view.voxels
    cells, voxels = cen.cells_by_dim[n - 2], cen.cells_by_dim[n]
    assert set(map(fmt.unpack, packed)) == cells and len(packed) == len(cells)
    assert {fmt.unpack(v) for v in vox} == voxels and len(vox) == len(voxels)
    for p in packed:
        assert {fmt.unpack(p + d) for d in fmt.steps(p, 1, 2)} == block(fmt.unpack(p))
    facet, diagonal = fmt.voxel_steps()
    for v in vox:
        u = fmt.unpack(v)
        near = adjacent_voxels(u, n - 1)
        assert {fmt.unpack(v + f) for f in facet} == near
        assert {fmt.unpack(v + d) for d in diagonal} == adjacent_voxels(u, n - 2) - near


def reaching_past(cen: CellCensus) -> CellCensus:
    """The census with a voxel listed one step below its least coordinate
    and a vertex two steps above its greatest, neither of them free: the
    least coordinate becomes even, and so does the format's origin."""
    coords = [x for cells in cen.cells_by_dim for e in cells for x in e] or [1]
    lo, hi = min(coords), max(coords)
    cells = list(cen.cells_by_dim)
    # built unchecked: at the range corners these lie past +-2**60
    cells[cen.n] |= {_mk(Cell, (lo - 1,) * cen.n)}
    cells[0] |= {_mk(Cell, (hi + 2,) * cen.n)}
    return replace(cen, cells_by_dim=tuple(cells))


def listing_free_outside(cen: CellCensus) -> CellCensus:
    """The census with a free vertex near +2**60 and, from n = 2, a free
    (n-2)-cell at -2**60, neither listed in ``cells_by_dim``: the packed
    view must span them too. The (n-2)-cell bounds no free facet, so
    hub-nub-degree fails on it."""
    n = cen.n
    free = list(cen.free_by_dim)
    free[0] |= {_mk(Cell, (COORD_LIMIT - 1,) * n)}
    if n >= 2:
        free[n - 2] |= {_mk(Cell, (1 - COORD_LIMIT,) * 2 + (-COORD_LIMIT,) * (n - 2))}
    return replace(cen, free_by_dim=tuple(free))


def without_least_free(cen: CellCensus, i: int) -> CellCensus:
    free = list(cen.free_by_dim)
    free[i] = free[i] - {min(free[i])}
    return replace(cen, free_by_dim=tuple(free))


def without_least_cell(cen: CellCensus, i: int) -> CellCensus:
    cells = list(cen.cells_by_dim)
    cells[i] = cells[i] - {min(cells[i])}
    return replace(cen, cells_by_dim=tuple(cells))


def assert_all_censuses_agree(
    obj: DigitalObject, oracle: bool = True, drops: bool = True
) -> set[int]:
    """Check the census, the one reaching past it and, with ``drops``, the
    census with its least free cell dropped in each dimension in turn and
    the one with its least (n-2)-cell dropped; return the parities of
    the format's origin that were seen.

    On a non-empty object the real census and the one reaching past it
    give the origin both parities."""
    cen = census(obj)
    assert_packed_matches_tuples(obj, cen, oracle)
    doctored = [reaching_past(cen)]
    for c in (cen, doctored[0]):  # origin odd, then even
        assert_steps_decode(c)
    if obj.n >= 2:
        for c in (cen, doctored[0]):
            assert_block_probes_decode(c)
        if len(obj):
            assert {c._packed.fmt._off & 1 for c in (cen, doctored[0])} == {0, 1}
    if drops:
        doctored += [without_least_free(cen, i) for i in range(obj.n) if cen.free_by_dim[i]]
        if obj.n >= 2 and len(obj):
            doctored.append(without_least_cell(cen, obj.n - 2))
    for d in doctored:
        assert_packed_matches_tuples(obj, d, oracle=False)
    return {c._packed[0]._off & 1 for c in [cen, *doctored]}


CORNERS = [
    DigitalObject.from_centers(2, list(product((-EDGE, EDGE), repeat=2))),
    DigitalObject.from_centers(
        3,
        list(product((-EDGE, EDGE), repeat=3))
        + [(EDGE - 1, EDGE - 1, EDGE), (1 - EDGE, -EDGE, 1 - EDGE)],
    ),
    DigitalObject.from_centers(3, [(-EDGE, -EDGE, -EDGE), (1 - EDGE, 1 - EDGE, -EDGE)]),
    DigitalObject.from_centers(1, [(0,), (1,), (5,), (-EDGE,), (EDGE,)]),
]


class TestPackedProbes:
    def test_every_object_of_a_222_box(self):
        parities = set()
        for obj in enumerate_all_objects(3, (2, 2, 2)):
            parities |= assert_all_censuses_agree(obj)
        assert parities == {0, 1}

    def test_every_object_of_a_222_box_translated(self):
        # centers move by 1, cell coordinates by 2: the origin keeps its
        # parity, and only the census reaching past the object flips it
        parities = set()
        for obj in enumerate_all_objects(3, (2, 2, 2)):
            moved = obj.translate((1, 1, 1))
            parities |= assert_all_censuses_agree(moved, oracle=False, drops=False)
        assert parities == {0, 1}

    @pytest.mark.parametrize(
        "obj, w",
        list(zip(CORNERS, (62, 62, 4, 62))),
        ids=["n2", "n3-with-hubs", "n3-diagonal", "n1-line"],
    )
    def test_range_corners(self, obj, w):
        assert assert_all_censuses_agree(obj) == {0, 1}
        assert census(obj)._packed[0].w == w

    @pytest.mark.parametrize(
        "obj",
        [
            DigitalObject.from_centers(1, [(0,), (1,), (5,)]),
            DigitalObject.from_centers(2, [(0, 0), (1, 1)]),
            DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0), (1, 1, 1)]),
            DigitalObject.from_centers(4, [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 0)]),
            CORNERS[2],  # at the -2**60 corner, so only the vertex lies outside
        ],
        ids=["n1", "n2-diagonal", "n3-with-hubs", "n4", "n3-diagonal-corner"],
    )
    def test_free_cells_outside_the_listed_span(self, obj):
        cen = listing_free_outside(census(obj))
        assert_steps_decode(cen)
        assert_packed_matches_tuples(obj, cen, oracle=False)
        if obj.n >= 2 and obj is not CORNERS[2]:
            witness = hub_nub_degree(obj, cen).witness  # names a far cell, unpacked
            assert any(f"cell=({x}, " in witness for x in (COORD_LIMIT - 1, 1 - COORD_LIMIT))


def assert_view_matches_repacked(obj: DigitalObject) -> None:
    """``census`` packs as it counts; its view must equal the one packed
    from its own tuple sets, in the same format, with every list holding
    the same cells. The census must also equal its tuple-set copy."""
    cen = census(obj)
    direct, repacked = cen._packed, replace(cen)._packed
    assert (direct.fmt.w, direct.fmt._off) == (repacked.fmt.w, repacked.fmt._off)
    for got, want in [*zip(direct.free, repacked.free), (direct.codim2, repacked.codim2)]:
        assert set(got) == set(want) and len(got) == len(want)
    assert direct.free_sets == repacked.free_sets
    assert direct.voxels == repacked.voxels
    plain = CellCensus(
        cen.n, cen.c, cen.c_star, cen.c_prime,
        tuple(map(frozenset, cen.cells_by_dim)), tuple(map(frozenset, cen.free_by_dim)),
    )
    assert cen == plain and hash(cen) == hash(plain)


class TestDirectView:
    def test_every_object_of_a_222_box(self):
        for obj in enumerate_all_objects(3, (2, 2, 2)):
            assert_view_matches_repacked(obj)

    @pytest.mark.parametrize(
        "obj",
        CORNERS + [DigitalObject.from_centers(1, [(0,), (1,), (5,)]), DigitalObject(3)],
        ids=["n2", "n3-with-hubs", "n3-diagonal", "n1-corners", "n1-line", "empty"],
    )
    def test_corners_line_and_empty(self, obj):
        assert_view_matches_repacked(obj)

    def test_verify_decodes_only_the_codim2_cells(self):
        obj = DigitalObject.from_centers(
            4, [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 0), (2, 2, 1, 1), (3, 3, 1, 1)]
        )
        cen = census(obj)
        assert all(r.passed for r in check_object(obj, cen))
        assert count_gaps_oracle(obj, obj.n - 2, cen).g == 1
        decoded = [
            [i for i, cells in enumerate(sets._sets) if cells is not None]
            for sets in (cen.cells_by_dim, cen.free_by_dim)
        ]
        assert decoded == [[obj.n - 2], []]


def test_census_is_freed_without_the_cycle_collector():
    obj = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0), (1, 1, 1)])
    gc.disable()
    try:
        cen = census(obj)
        assert cen.b_boundary(Cell((1, 1, 0)), 2) == 4
        assert all(r.passed for r in check_object(obj, cen))
        ref = weakref.ref(cen)
        del cen
        assert ref() is None
    finally:
        gc.enable()
