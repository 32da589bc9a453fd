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

The probes that step a whole parity class at a time (the per-cell b_j,
the census's block lists, the column decode) are each compared with their
per-cell form, and ``is_gap`` with the interval oracle. On doctored
censuses the identities must name the first failing cell in the view's
order, as the per-cell loops they replaced did. border-sum, which counts
from the free j-cells' side, is compared pair by pair with the coface
side, ``_PackedCensus.b``, and must never call it.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace
from itertools import combinations, product

import pytest

from gridgaps import (
    Cell,
    DigitalObject,
    ShapeSpec,
    adjacent_voxels,
    block,
    c_bounding,
    census,
    cofaces,
    enumerate_all_objects,
    faces,
    generate,
)
from gridgaps import cli, dvo, identities
from gridgaps.cells import COORD_LIMIT, _mk
from gridgaps.gaps import (
    HubTag,
    classification_histogram,
    classify_cell,
    count_gaps_oracle,
    is_gap,
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
from gridgaps.objects import CellCensus, _PackedCensus

from oracles import o_border, o_bounds, o_cells, o_is_gap

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


# The batched probes, each against its per-cell form: ``_PackedCensus.b_each``
# against ``_PackedCensus.b`` on one cell and ``CellCensus.b_boundary``, the
# census's block lists against ``cells.block`` met with the voxels, the
# column decode ``_Packing.unpack_all`` against ``_Packing.unpack``, and
# ``is_gap`` against the interval oracle ``o_is_gap``.


def assert_batched_probes_match(cen: CellCensus) -> None:
    n, view = cen.n, cen._packed
    fmt = view.fmt
    for cells in (*view.free, view.codim2, tuple(view.voxels)):
        decoded = list(fmt.unpack_all(cells))
        assert decoded == list(map(fmt.unpack, cells))
        assert all(type(e) is Cell for e in decoded)
    for i in range(n - 1):
        listed = tuple(map(fmt.pack, cen.cells_by_dim[i]))
        for j in range(i + 1, n):
            got = view.b_each(listed, i, j)
            assert got == [view.b((p,), i, j) for p in listed], (i, j)
            assert got == [cen.b_boundary(fmt.unpack(p), j) for p in listed], (i, j)
    blocks = cen._blocks
    assert len(blocks) == len(view.codim2)
    voxels = cen.cells_by_dim[n]
    for p, present in zip(view.codim2, blocks):
        assert set(map(fmt.unpack, present)) == block(fmt.unpack(p)) & voxels
        # in the order of the block's steps, as the tags and pairs read it
        assert present == tuple(p + d for d in fmt.steps(p, 1, 2) if p + d in view.voxels)


def assert_is_gap_matches_oracle(obj: DigitalObject) -> None:
    """``is_gap`` on every cell of the object for every i in 0..n-2, and
    its errors word for word: i out of range, a cell of another dimension
    and a cell of another ambient dimension."""
    n = obj.n
    vox = frozenset(map(tuple, obj.voxels))
    cells = [o_cells(vox, k) for k in range(n + 1)]
    for i in range(n - 1):
        for e in cells[i]:
            # built unchecked: at the range corners faces lie past +-2**60
            assert is_gap(obj, _mk(Cell, e), i) == o_is_gap(vox, e, i), (e, i)
        for k in range(n + 1):
            if k != i:
                for e in sorted(cells[k])[:3]:
                    c = _mk(Cell, e)
                    with pytest.raises(ValueError) as err:
                        is_gap(obj, c, i)
                    assert str(err.value) == f"{c!r} is not an {i}-cell of the {n}-lattice"
        longer = Cell((1,) * (n + 1 - i) + (0,) * i)  # an i-cell of the (n+1)-lattice
        with pytest.raises(ValueError) as err:
            is_gap(obj, longer, i)
        assert str(err.value) == f"{longer!r} is not an {i}-cell of the {n}-lattice"
    e = Cell((1,) * n)
    for i in (-1, n - 1, n):
        with pytest.raises(ValueError) as err:
            is_gap(obj, e, i)
        assert str(err.value) == f"gap dimension {i} outside [0, {n - 2}]"


LOW = [
    DigitalObject.from_centers(1, [(0,), (1,), (5,)]),
    DigitalObject.from_centers(2, [(0, 0), (1, 1)]),
    DigitalObject.from_centers(2, [(0, 0), (1, 0), (0, 1), (3, 3), (4, 2)]),
]


class TestBatchedProbes:
    def test_every_object_of_a_222_box(self):
        for obj in enumerate_all_objects(3, (2, 2, 2)):
            cen = census(obj)
            for c in (cen, reaching_past(cen), listing_free_outside(cen)):
                assert_batched_probes_match(c)
            assert_is_gap_matches_oracle(obj)

    @pytest.mark.parametrize(
        "obj",
        CORNERS + LOW + list(enumerate_all_objects(2, (2, 2))),
        ids=lambda obj: f"n{obj.n}-{len(obj)}",
    )
    def test_corners_and_low_dimensions(self, obj):
        cen = census(obj)
        for c in (cen, reaching_past(cen), listing_free_outside(cen)):
            assert_batched_probes_match(c)
        assert_is_gap_matches_oracle(obj)

    def test_census_lists_each_dimension_one_run_per_class(self):
        # the batched probes step one run of a parity class at a time, so
        # a census's lists must not interleave the classes
        for seed in range(4):
            obj = generate(ShapeSpec("random", 4, extents=(4,) * 4, density=0.5, seed=seed))
            view = census(obj)._packed
            for cells in (*view.free, view.codim2):
                runs = list(view.classes(cells))
                assert [p for run in runs for p in run] == list(cells)
                assert len(runs) == len({p & view.fmt._mask for p in cells})


# Failure output: a failing identity names the first failing cell in the
# view's order, with the count checked up to it, exactly as the per-cell
# loops below do. They are the loops the batched probes replaced.


def per_cell_hub_nub_degree(obj, cen):
    n, view = obj.n, cen._packed
    hubs = frozenset(map(view.fmt.pack, count_gaps_oracle(obj, n - 2, cen).hubs))
    for checked, p in enumerate(view.free[n - 2], 1):
        expected = 4 if p in hubs else 2
        got = view.b((p,), n - 2, n - 1)
        if got != expected:
            return checked, f"cell={tuple(view.fmt.unpack(p))}: b_(n-1)={got}, expected {expected}"
    return len(view.free[n - 2]), None


def per_cell_block(view, p):
    return [p + d for d in view.fmt.steps(p, 1, 2) if p + d in view.voxels]


def per_cell_detector_equivalence(obj, cen):
    view = cen._packed
    hubs = frozenset(map(view.fmt.pack, count_gaps_oracle(obj, obj.n - 2, cen).hubs))
    vox = view.voxels
    facet, diagonal = view.fmt.voxel_steps()
    for checked, p in enumerate(view.codim2, 1):
        gap = any(
            v2 - v1 in diagonal
            and not any(v1 + f in vox and v2 - v1 - f in facet for f in facet)
            for v1, v2 in combinations(per_cell_block(view, p), 2)
        )
        if (p in hubs) != gap:
            return checked, f"cell={tuple(view.fmt.unpack(p))}: detectors disagree"
    return len(view.codim2), None


def per_cell_classification_totality(obj, cen):
    view = cen._packed
    hubs = frozenset(map(view.fmt.pack, count_gaps_oracle(obj, obj.n - 2, cen).hubs))
    facet, unpack = view.fmt.voxel_steps()[0], view.fmt.unpack
    free = view.free_sets[obj.n - 2]
    by_count = {1: HubTag.SIMPLE, 3: HubTag.L_BLOCK, 4: HubTag.FULL_BLOCK}
    tally = {tag: 0 for tag in HubTag}
    for checked, p in enumerate(view.codim2, 1):
        present = per_cell_block(view, p)
        k = len(present)
        if k == 0:
            return checked, f"cell={tuple(unpack(p))}: no voxel in its block"
        if k == 2:
            pair_facet = present[1] - present[0] in facet
            tag = HubTag.FACET_PAIR_BLOCK if pair_facet else HubTag.GAP_TANDEM
        else:
            tag = by_count[k]
        tally[tag] += 1
        if (tag is HubTag.FULL_BLOCK) != (p not in free):
            return checked, f"cell={tuple(unpack(p))}: tag {tag.value} vs free={p in free}"
        if (tag is HubTag.GAP_TANDEM) != (p in hubs):
            return checked, f"cell={tuple(unpack(p))}: tag {tag.value} vs gap detector"
    hist = classification_histogram(obj)
    if hist != tally:
        shown = [{tag.value: h[tag] for tag in HubTag} for h in (hist, tally)]
        return len(view.codim2), "histogram {} but classify_cell tally {}".format(*shown)
    return len(view.codim2), None


def per_cell_free_face_heredity(obj, cen):
    view = cen._packed
    fmt, checked = view.fmt, 0
    for j in range(1, obj.n):
        for f in view.free[j]:
            checked += 1
            missing = [f + d for d in fmt.steps(f, 0, 1) if f + d not in view.free_sets[j - 1]]
            if missing:
                face = min(map(fmt.unpack, missing))
                return checked, f"free cell {tuple(fmt.unpack(f))} has non-free face {tuple(face)}"
    return checked, None


PER_CELL = (
    (hub_nub_degree, per_cell_hub_nub_degree),
    (detector_equivalence, per_cell_detector_equivalence),
    (classification_totality, per_cell_classification_totality),
    (free_face_heredity, per_cell_free_face_heredity),
)


def every_other(cells):
    return set(sorted(cells)[::2])


def with_view(cen: CellCensus, **fields) -> CellCensus:
    """A copy of the census whose packed view keeps the census's own order
    but has ``fields`` replaced; the tuple sets are the census's."""
    copy = replace(cen)
    vars(copy)["_packed"] = cen._packed._replace(**fields)
    return copy


def doctored_censuses(cen: CellCensus) -> dict[str, CellCensus]:
    """Censuses on which several cells fail, the view in set order (made
    with ``dataclasses.replace``) and in the census's own order."""
    n, view = cen.n, cen._packed
    free, cells = list(cen.free_by_dim), list(cen.cells_by_dim)
    out = {}
    for name, i in (("facets", n - 1), ("codim2", n - 2), ("vertices", 0)):
        dropped = every_other(free[i])
        out[f"replace-free-{name}"] = replace(
            cen, free_by_dim=tuple(f - dropped if k == i else f for k, f in enumerate(free))
        )
        packed = frozenset(map(view.fmt.pack, dropped))
        kept = tuple(p for p in view.free[i] if p not in packed)
        out[f"view-free-{name}"] = with_view(
            cen,
            free=tuple(kept if k == i else f for k, f in enumerate(view.free)),
            free_sets=tuple(frozenset(kept) if k == i else f for k, f in enumerate(view.free_sets)),
        )
    dropped = every_other(cells[n])
    out["replace-voxels"] = replace(
        cen, cells_by_dim=tuple(c - dropped if k == n else c for k, c in enumerate(cells))
    )
    out["view-voxels"] = with_view(cen, voxels=view.voxels - set(map(view.fmt.pack, dropped)))
    return out


FAILING = [
    generate(ShapeSpec("random", n, extents=(3,) * n, density=0.5, seed=seed))
    for n, seed in ((3, 1), (3, 2), (4, 1))
]


class TestFailureOutput:
    @pytest.mark.parametrize("obj", FAILING, ids=lambda obj: f"n{obj.n}-{len(obj)}")
    def test_first_failing_cell_in_view_order(self, obj):
        failed = set()
        for name, doctored in doctored_censuses(census(obj)).items():
            for identity, per_cell in PER_CELL:
                result = identity(obj, doctored)
                checked, detail = per_cell(obj, doctored)
                assert (result.passed, result.checked) == (detail is None, checked), (name, result)
                assert result.witness.endswith(f"; {detail}") if detail else not result.witness
                if detail is not None:
                    failed.add((identity.__name__, name.split("-")[0]))
        # every identity fails on some doctored census of each kind
        assert {(i.__name__, kind) for i, _ in PER_CELL for kind in ("replace", "view")} <= failed

    def test_wrong_diagonal_step_in_the_block_lists_fails_verify(self, tmp_path, monkeypatch, capsys):
        # the (+1, +1) step of each block is taken as (+2, +2), which is no
        # voxel, so a cell's voxel on that diagonal is never listed
        def wrong_blocks(view):
            vox, out = view.voxels, []
            for p in view.codim2:
                steps = list(view.fmt.steps(p, 1, 2))
                steps[-1] *= 2
                out.append(tuple(p + d for d in steps if p + d in vox))
            return out

        path = tmp_path / "r.dvo"
        path.write_text(dvo.dumps(FAILING[2]), encoding="utf-8")
        assert cli.main(["verify", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(_PackedCensus, "blocks", wrong_blocks)
        assert cli.main(["verify", str(path)]) == cli.EXIT_DISAGREEMENT
        failed = {line.split(":")[0] for line in capsys.readouterr().out.splitlines()}
        assert {"FAIL detector-equivalence", "FAIL classification-totality"} <= failed

    def test_verify_builds_each_census_block_lists_once(self, monkeypatch):
        real, built = _PackedCensus.blocks, []

        def counted(view):
            built.append(len(view.codim2))
            return real(view)

        monkeypatch.setattr(_PackedCensus, "blocks", counted)
        assert cli.main(["verify", "--random", "4", "3", "0.5", "1", "3", "--json"]) == cli.EXIT_OK
        assert len(built) == 3 and all(built)


# border-sum counts its pairs from the free j-cells' side: each free j-cell
# is stepped to its i-faces. Every (i, j) sum it reaches is compared with
# the coface side, ``_PackedCensus.b`` over the free i-cells, and with the
# tuple route; its result is compared with the coface-side identity it
# replaced, so ``checked`` and the witness stay as they were.


def coface_sums(cen: CellCensus) -> dict[tuple[int, int], int]:
    """Each (i, j) sum counted from the free i-cells' side, by
    ``_PackedCensus.b``, as border-sum counted it before."""
    view = cen._packed
    return {(i, j): view.b(view.free[i], i, j) for j in range(1, cen.n) for i in range(j)}


def border_sum_outcome(cen: CellCensus, sums: dict[tuple[int, int], int]) -> tuple[int, str | None]:
    """What border-sum reports on these sums: the pairs checked up to the
    first whose sum misses the formula, and what it saw there."""
    for checked, ((i, j), lhs) in enumerate(sums.items(), 1):
        rhs = c_bounding(i, j) * cen.c_star[j]
        if lhs != rhs:
            return checked, f"(i={i}, j={j}): sum={lhs} formula={rhs}"
    return len(sums), None


class _Recorded:
    """Stands in for ``c_bounding(i, j) * c*_j`` in border-sum: comparing a
    sum with it records the sum and finds them equal, so every pair is
    reached."""

    def __init__(self, sums: dict, pair: tuple[int, int]) -> None:
        self.sums, self.pair = sums, pair

    def __mul__(self, c_star: int) -> "_Recorded":
        return self

    def __ne__(self, lhs: object) -> bool:
        self.sums[self.pair] = lhs
        return False


def face_side_sums(obj: DigitalObject, cen: CellCensus) -> dict[tuple[int, int], int]:
    """The sum border-sum counts for each (i, j), in the order it counts them."""
    sums: dict[tuple[int, int], int] = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "c_bounding", lambda i, j: _Recorded(sums, (i, j)))
        assert border_sum(obj, cen).passed
    return sums


def assert_border_sums_agree(obj: DigitalObject, cen: CellCensus, tuples: bool = True) -> None:
    """With ``tuples``, each sum is also counted as ``tuple_border_sum``
    counts it, over the census's tuple sets with ``cofaces``; that route
    reads a cell's own dimension, so it is left out where a cell is listed
    under another one."""
    sums, want = face_side_sums(obj, cen), coface_sums(cen)
    assert sums == want and list(sums) == list(want)
    if tuples:
        for (i, j), got in sums.items():
            assert got == sum(tuple_b_boundary(cen, e, j) for e in cen.free_by_dim[i]), (i, j)
    result = border_sum(obj, cen)
    checked, detail = border_sum_outcome(cen, want)
    assert (result.passed, result.checked) == (detail is None, checked), result
    assert result.witness.endswith(f"; {detail}") if detail else not result.witness


def with_stray(cen: CellCensus, i: int) -> CellCensus:
    """``free_by_dim[i]`` with one more i-cell, the least free one moved two
    steps down axis 0, below every cell of the object. It bounds no free
    j-cell, so neither side counts it."""
    free = list(cen.free_by_dim)
    e = min(free[i])
    free[i] = free[i] | {_mk(Cell, (e[0] - 2, *e[1:]))}
    return replace(cen, free_by_dim=tuple(free))


def with_wrong_dimension(cen: CellCensus, i: int, j: int) -> CellCensus | None:
    """The least listed cell x of the lowest dimension k other than i and j
    listed in both ``free_by_dim[i]`` and ``free_by_dim[j]``, and its
    cofaces j - i dimensions up, where there are any, in ``free_by_dim[j]``:
    x and those cofaces are one more pair on either side."""
    n = cen.n
    k = min(k for k in range(n + 1) if k not in (i, j))
    if not cen.cells_by_dim[k]:
        return None
    x = min(cen.cells_by_dim[k])
    up = cofaces(x, k + j - i) if k + j - i <= n else frozenset()
    free = list(cen.free_by_dim)
    free[i], free[j] = free[i] | {x}, free[j] | {x} | up
    return replace(cen, free_by_dim=tuple(free))


def with_c_star_off(cen: CellCensus, j: int) -> CellCensus:
    c_star = list(cen.c_star)
    c_star[j] += 1
    return replace(cen, c_star=tuple(c_star))


def border_sum_copies(cen: CellCensus, i: int, j: int) -> list[tuple[CellCensus, bool]]:
    """Copies of the census with a free i-cell dropped, a stray i-cell
    listed as free, c*_j off by one and a cell of another dimension listed
    under i and j, each with whether the tuple route can count it."""
    copies = [(with_c_star_off(cen, j), True)]
    if cen.free_by_dim[i]:
        copies += [(without_least_free(cen, i), True), (with_stray(cen, i), True)]
    wrong = with_wrong_dimension(cen, i, j)
    return copies + ([(wrong, False)] if wrong else [])


def assert_border_sum_on_doctored(
    obj: DigitalObject, pairs: list[tuple[int, int]] | None = None, tuples: bool = True
) -> None:
    """The census and its ``border_sum_copies`` for each (i, j) of
    ``pairs``, by default every pair; c*_j off by one must fail."""
    cen = census(obj)
    assert_border_sums_agree(obj, cen, tuples)
    if pairs is None:
        pairs = [(i, j) for j in range(1, obj.n) for i in range(j)]
    for i, j in pairs:
        copies = border_sum_copies(cen, i, j)
        for copy, countable in copies:
            assert_border_sums_agree(obj, copy, tuples and countable)
        assert not border_sum(obj, copies[0][0]).passed


def tuple_face_sum(cen: CellCensus, i: int, j: int) -> int:
    """The sum from the j side over the census's tuple sets, with ``faces``."""
    free_i = cen.free_by_dim[i]
    return sum(len(faces(f, i) & free_i) for f in cen.free_by_dim[j])


SMALL_N8 = DigitalObject.from_centers(8, [(0,) * 8])


class TestBorderSumFromTheFaceSide:
    def test_every_object_of_a_222_box(self):
        # each object takes one (i, j) in turn for its doctored copies
        pairs = [(0, 1), (0, 2), (1, 2)]
        for t, obj in enumerate(enumerate_all_objects(3, (2, 2, 2))):
            assert_border_sum_on_doctored(obj, [pairs[t % 3]])

    @pytest.mark.parametrize("obj", CORNERS + LOW, ids=lambda obj: f"n{obj.n}-{len(obj)}")
    def test_corners_and_low_dimensions(self, obj):
        assert_border_sum_on_doctored(obj)

    def test_small_n8_object(self):
        # the tuple route steps about 5.7 million cofaces from one voxel's
        # free cells at n = 8, so the tuple sets are counted from the j side
        cen = census(SMALL_N8)
        sums = face_side_sums(SMALL_N8, cen)
        assert len(sums) == 28
        assert all(got == tuple_face_sum(cen, i, j) for (i, j), got in sums.items())
        assert_border_sum_on_doctored(SMALL_N8, [(2, 5)], tuples=False)

    def test_border_sum_does_not_step_to_cofaces(self, monkeypatch):
        # the coface side is left to b_boundary alone
        def refused(view, cells, i, j):
            raise AssertionError("coface-side b_j")

        obj = FAILING[2]
        cen = census(obj)
        monkeypatch.setattr(_PackedCensus, "b", refused)
        result = border_sum(obj, cen)
        assert result.passed and result.checked == 6
        with pytest.raises(AssertionError, match="coface-side"):
            cen.b_boundary(min(cen.free_by_dim[0]), 1)
