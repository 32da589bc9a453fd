"""The census's bitmaps against the tuple routes they replace.

The census is held as bitmaps (``bitmaps._Bitmaps``): per tile, per
dimension and per parity class, one int with a bit per cell. The
border-sum, hub-nub-degree and free-face-heredity identities shift whole
classes of free cells to their faces or cofaces; detector-equivalence and
classification-totality read the four block-corner bitmaps of each class.
Each is compared here with its per-cell reference (``references.py``),
run on the census's own tuple sets and on what its bitmaps hold, and
``b_boundary`` also with the brute-force interval oracle, on real and
doctored censuses; a failing identity must name the first failing cell in
witness order, as its reference does. The bitmaps ``census`` builds as it
counts are compared with the ones a copy builds from its own tuple sets,
and ``verify`` is checked to decode no cell tuples but the (n-2)-cells.
border-sum, which counts from the free j-cells' side, is compared pair by
pair with the coface side, counted on the same bitmaps the other way round.
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
    block,
    c_bounding,
    census,
    cofaces,
    enumerate_all_objects,
    faces,
    generate,
)
from gridgaps import cli, dvo, gaps, objects
from gridgaps.cells import COORD_LIMIT, _mk, _parity
from gridgaps.gaps import HubTag, count_gaps_oracle, is_gap
from gridgaps.identities import (
    _block_voxels,
    _cofaces_up,
    border_sum,
    check_object,
    hub_nub_degree,
)
from gridgaps.bitmaps import _Bitmaps, _ones
from gridgaps.objects import CellCensus

from oracles import o_border, o_bounds, o_cells, o_is_gap
from references import (
    REFERENCES,
    assert_identities_match,
    assert_steps_decode,
    b_j,
    bits_of,
    face_side_sums,
    held,
    in_order,
    listed,
    with_count_off,
    with_listing,
    with_stray,
)

EDGE = 1 << 59


def assert_bitmaps_match_tuples(obj: DigitalObject, cen: CellCensus, oracle: bool) -> None:
    """``b_boundary`` against ``b_j`` and, with ``oracle``, against the
    interval oracle (``o_b_boundary`` with its border computed once per j);
    each identity against its reference on the census's tuple sets."""
    n = cen.n
    vox = frozenset(map(tuple, obj.voxels))
    for j in range(1, n):
        border = o_border(n, vox, j) if oracle else ()
        for i in range(j):
            for e in cen.cells_by_dim[i]:
                got = cen.b_boundary(e, j)
                assert got == b_j(cen.free_by_dim, e, j), (e, j)
                if oracle:
                    assert got == sum(1 for f in border if o_bounds(tuple(e), f)), (e, j)
    assert_identities_match(obj, cen, listed(cen))


def assert_block_probes_decode(cen: CellCensus) -> None:
    """Every listed (n-2)-cell's block corners are its four block voxels,
    and read the listed voxels; a cell with other than two flat axes has no
    block corner."""
    n, maps = cen.n, cen._bitmaps
    voxels = cen.cells_by_dim[n]
    for key, tile, q, b, e in bits_of(maps, "cells", n - 2):
        block_voxels = _block_voxels(maps, tile.voxels, q)
        corners = {_mk(Cell, map(int.__add__, e, u)): bits for u, bits in block_voxels.items()}
        assert set(corners) == (block(e) if sum(q) == 2 else set()), e
        present = {v for v, bits in corners.items() if bits >> b & 1}
        assert present == block(e) & voxels if sum(q) == 2 else not present, e


def reaching_past(cen: CellCensus) -> CellCensus:
    """The census with a voxel listed one step below its least coordinate
    and a vertex two steps above its greatest, neither of them free: the
    least coordinate becomes even."""
    coords = [x for cells in cen.cells_by_dim for e in cells for x in e] or [1]
    lo, hi = min(coords), max(coords)
    cells = list(cen.cells_by_dim)
    # built unchecked: at the range corners these lie past +-2**60
    cells[cen.n] |= {_mk(Cell, (lo - 1,) * cen.n)}
    cells[0] |= {_mk(Cell, (hi + 2,) * cen.n)}
    return replace(cen, cells_by_dim=tuple(cells))


def listing_free_outside(cen: CellCensus) -> CellCensus:
    """The census with a free vertex near +2**60 and, from n = 2, a free
    (n-2)-cell at -2**60, neither listed in ``cells_by_dim``: the bitmaps
    must span them too. The (n-2)-cell bounds no free facet, so
    hub-nub-degree fails on it."""
    n = cen.n
    free = list(cen.free_by_dim)
    free[0] |= {_mk(Cell, (COORD_LIMIT - 1,) * n)}
    if n >= 2:
        free[n - 2] |= {_mk(Cell, (1 - COORD_LIMIT,) * 2 + (-COORD_LIMIT,) * (n - 2))}
    return replace(cen, free_by_dim=tuple(free))


def without_least_free(cen: CellCensus, i: int) -> CellCensus:
    return with_listing(cen, i, free=cen.free_by_dim[i] - {min(cen.free_by_dim[i])})


def without_least_cell(cen: CellCensus, i: int) -> CellCensus:
    return with_listing(cen, i, cells=cen.cells_by_dim[i] - {min(cen.cells_by_dim[i])})


def least_parity(cen: CellCensus) -> int:
    """The parity of the least listed coordinate (0 with none)."""
    return min((x for cells in cen.cells_by_dim for e in cells for x in e), default=0) & 1


def assert_all_censuses_agree(
    obj: DigitalObject, oracle: bool = True, drops: bool = True
) -> set[int]:
    """Check the census, the one reaching past it and, with ``drops``, the
    census with its least free cell dropped in each dimension in turn and
    the one with its least (n-2)-cell dropped; return the parities of their
    least listed coordinates.

    On a non-empty object the real census and the one reaching past it
    give both parities."""
    cen = census(obj)
    assert_bitmaps_match_tuples(obj, cen, oracle)
    doctored = [reaching_past(cen)]
    for c in (cen, doctored[0]):  # least coordinate odd, then even
        assert_steps_decode(c)
    if obj.n >= 2:
        for c in (cen, doctored[0]):
            assert_block_probes_decode(c)
        if len(obj):
            assert {least_parity(c) for c in (cen, doctored[0])} == {0, 1}
    if drops:
        doctored += [without_least_free(cen, i) for i in range(obj.n) if cen.free_by_dim[i]]
        if obj.n >= 2 and len(obj):
            doctored.append(without_least_cell(cen, obj.n - 2))
    for d in doctored:
        assert_bitmaps_match_tuples(obj, d, oracle=False)
    return {least_parity(c) for c in [cen, *doctored]}


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
        # centers move by 1, cell coordinates by 2: the least coordinate
        # keeps its parity, and only the census reaching past the object flips it
        parities = set()
        for obj in enumerate_all_objects(3, (2, 2, 2)):
            moved = obj.translate((1, 1, 1))
            parities |= assert_all_censuses_agree(moved, oracle=False, drops=False)
        assert parities == {0, 1}

    @pytest.mark.parametrize(
        "obj, tiles",
        list(zip(CORNERS, (4, 9, 1, 3))),
        ids=["n2", "n3-with-hubs", "n3-diagonal", "n1-line"],
    )
    def test_range_corners(self, obj, tiles):
        # a tile for each corner's voxels (the diagonal pair shares one),
        # and on the line one for 0, 1 and 5 between the two ends
        assert assert_all_censuses_agree(obj) == {0, 1}
        assert len(census(obj)._bitmaps.tiles) == tiles

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
        assert_bitmaps_match_tuples(obj, cen, oracle=False)
        if obj.n >= 2 and obj is not CORNERS[2]:
            witness = hub_nub_degree(obj, cen).witness  # names a far cell, decoded
            assert any(f"cell=({x}, " in witness for x in (COORD_LIMIT - 1, 1 - COORD_LIMIT))


def assert_bitmaps_match_rebuilt(obj: DigitalObject) -> None:
    """``census`` builds its bitmaps as it counts; they must hold what the
    ones built from its own tuple sets hold, on the same grid of tiles, in
    the same order. The free cells in range, which the census works out
    from the voxels in range, agree where a step from an owned cell reads
    them (``assert_steps_decode``), and everywhere on one tile. The census
    must also equal its tuple-set copy."""
    cen = census(obj)
    direct, rebuilt = cen._bitmaps, replace(cen)._bitmaps
    assert (direct.lo, direct.tops, direct.sides) == (rebuilt.lo, rebuilt.tops, rebuilt.sides)
    assert list(direct.tiles) == list(rebuilt.tiles)
    for key, tile in direct.tiles.items():
        other = rebuilt.tiles[key]
        assert tile.voxels == other.voxels
        for listing in ("cells", "free", "reach")[: 2 + (len(direct.tiles) == 1)]:
            got, want = getattr(tile, listing), getattr(other, listing)
            assert got == want
            assert [list(by_class) for by_class in got] == [list(by_class) for by_class in want]
    plain = CellCensus(
        cen.n, cen.c, cen.c_star, cen.c_prime,
        tuple(map(frozenset, cen.cells_by_dim)), tuple(map(frozenset, cen.free_by_dim)),
    )
    assert cen == plain and hash(cen) == hash(plain)


class TestDirectView:
    def test_every_object_of_a_222_box(self):
        for obj in enumerate_all_objects(3, (2, 2, 2)):
            assert_bitmaps_match_rebuilt(obj)

    @pytest.mark.parametrize(
        "obj",
        CORNERS + [DigitalObject.from_centers(1, [(0,), (1,), (5,)]), DigitalObject(3)],
        ids=["n2", "n3-with-hubs", "n3-diagonal", "n1-corners", "n1-line", "empty"],
    )
    def test_corners_line_and_empty(self, obj):
        assert_bitmaps_match_rebuilt(obj)

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


# The class-at-a-time probes, each against its per-cell form: the decode of
# a class against the decode of each of its bits, the bit-sliced coface
# counts against ``CellCensus.b_boundary``'s tuple count, the block-corner
# bitmaps against ``cells.block`` met with the voxels, and ``is_gap``
# against the interval oracle ``o_is_gap``.


def assert_batched_probes_match(cen: CellCensus) -> None:
    n, maps = cen.n, cen._bitmaps
    for key, tile in maps.tiles.items():
        for listing in (tile.cells, tile.free, tile.reach):
            for by_class in listing:
                for q, bits in by_class.items():
                    cells = list(maps.decode(key, q, bits))
                    assert cells == [maps.cell(key, q, b) for b in _ones(bits)]
                    assert all(type(e) is Cell for e in cells)
    for i in range(n - 1):
        for key, tile, q, b, e in bits_of(maps, "cells", i):
            got = _cofaces_up(maps, tile, q, i).at(b)
            # a listed cell of another dimension steps up from its own
            up = [_mk(Cell, (x + d if k == a else x for k, x in enumerate(e)))
                  for a in range(n) if e[a] & 1 for d in (-1, 1)]
            assert got == sum(f in cen.free_by_dim[i + 1] for f in up), (e, i)
            if e.dim == i:
                assert got == b_j(cen.free_by_dim, e, i + 1)
    if n >= 2:
        assert_block_probes_decode(cen)


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
        for key, bit in maps.covering(maps.h(e)):
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


FAILING = [
    generate(ShapeSpec("random", n, extents=(3,) * n, density=0.5, seed=seed))
    for n, seed in ((3, 1), (3, 2), (4, 1))
]


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


# border-sum counts its pairs from the free j-cells' side: each free
# j-class is shifted to its i-faces. Every (i, j) sum it reaches is compared
# with the coface side, each free i-class met with the free j-classes
# shifted the other way, and with the tuple route; its result is compared
# with what the coface side reports, so ``checked`` and the witness stay
# as they were.


def coface_sums(cen: CellCensus) -> dict[tuple[int, int], int]:
    """Each (i, j) sum counted from the free i-cells' side on the bitmaps:
    the free i-cells a tile owns, met with the free j-cells in its range
    one coface step up along j - i of their flat axes."""
    n, maps = cen.n, cen._bitmaps
    sums = {}
    for j in range(1, n):
        for i in range(j):
            total = 0
            for tile in maps.tiles.values():
                for q, free in tile.free[i].items():
                    for axes in combinations([k for k in range(n) if q[k]], j - i):
                        up = tile.reach[j].get(tuple(0 if k in axes else f for k, f in enumerate(q)), 0)
                        for signs in product((0, 1), repeat=len(axes)):
                            shift = sum(s * maps.weights[k] for s, k in zip(signs, axes))
                            total += ((up << shift) & free).bit_count()
            sums[i, j] = total
    return sums


def border_sum_outcome(cen: CellCensus, sums: dict[tuple[int, int], int]) -> tuple[int, str | None]:
    """What border-sum reports on these sums: the pairs checked up to the
    first whose sum misses the formula, and what it saw there."""
    for checked, ((i, j), lhs) in enumerate(sums.items(), 1):
        rhs = c_bounding(i, j) * cen.c_star[j]
        if lhs != rhs:
            return checked, f"(i={i}, j={j}): sum={lhs} formula={rhs}"
    return len(sums), None


def assert_border_sums_agree(obj: DigitalObject, cen: CellCensus, tuples: bool = True) -> None:
    """With ``tuples``, each sum is also counted as ``ref_border_sum``
    counts it, over the census's tuple sets with ``cofaces``; that route
    reads a cell's own dimension, so it is left out where a cell is listed
    under another one."""
    sums, want = face_side_sums(obj, cen), coface_sums(cen)
    assert sums == want and list(sums) == list(want)
    if tuples:
        for (i, j), got in sums.items():
            assert got == sum(b_j(cen.free_by_dim, e, j) for e in cen.free_by_dim[i]), (i, j)
    result = border_sum(obj, cen)
    checked, detail = border_sum_outcome(cen, want)
    assert (result.passed, result.checked) == (detail is None, checked), result
    assert result.witness.endswith(f"; {detail}") if detail else not result.witness


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


def border_sum_copies(cen: CellCensus, i: int, j: int) -> list[tuple[CellCensus, bool]]:
    """Copies of the census with a free i-cell dropped, a stray i-cell
    listed as free, c*_j off by one and a cell of another dimension listed
    under i and j, each with whether the tuple route can count it."""
    copies = [(with_count_off(cen, "c_star", j), True)]
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
