"""The tiled bitmap census against the interval oracles, tilings against
each other, the step table against the decode of the bits it moves to, and
the tiles a cell is placed in (``_Bitmaps.covering``, ``of_voxels`` and
``place``) against their definition, with the neighbour search
(``covering``) called only for an index on a core face of a cut axis; and
censuses doctored to hold voxels at the top of a spanning axis, which has
no guard slot, against the identities' references.

A census's bitmaps are cut into tiles only where the object is sparse, so
the small objects of the other tests are mostly one tile. Here the tiling
is forced (``bitmaps._sides`` monkeypatched to a small side) on drawn
objects, and the results must equal the one-tile run; objects that cannot
be one tile (the +-2**59 corners, clusters 2**40 apart, diagonal lines)
are compared with the oracles and across tilings. Each object of the
2x2x2 box gets one census per tiling: in one tile ``references.box_222``
builds it, and ``test_packed.py`` runs the other check families on it; in
tiles of one the oracle and rebuilt-bitmap checks run here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgaps import (
    DigitalObject,
    ShapeSpec,
    c_bounding,
    census,
    check_object,
    enumerate_all_objects,
    generate,
)
from gridgaps import bitmaps, identities
from gridgaps.gaps import _window_counts
from gridgaps.cells import Cell, _mk, _offsets, _parity

from oracles import o_b_boundary
from references import (
    EDGE,
    FAR_DIAG3,
    RANDOM3,
    assert_bitmaps_match_rebuilt,
    assert_census_matches_oracle,
    assert_identities_match,
    assert_probes_decode,
    box_222,
    covering,
    face_side_sums,
    held,
    in_order,
    index,
    listed,
    ones,
    oracle_sets,
    reaching_past,
    tile_of,
    with_stray,
    without_greatest_on,
)


def tiled(side: int):
    """``bitmaps._sides`` cutting every axis longer than ``side`` at it."""
    return lambda tops, points: tuple(side if top >= side else 0 for top in tops)


def outcome(obj: DigitalObject, cen=None) -> tuple:
    """The census and every identity's result."""
    cen = census(obj) if cen is None else cen
    sets = tuple(tuple(map(frozenset, listing)) for listing in (cen.cells_by_dim, cen.free_by_dim))
    results = [(r.name, r.passed, r.checked, r.witness) for r in check_object(obj, cen)]
    return (cen.c, cen.c_star, cen.c_prime, sets, results)


def assert_steps_land(maps: bitmaps._Bitmaps) -> Counter:
    """Every step of ``_Bitmaps.steps`` from every cell a tile owns, for
    every flat value and every k: the table lists exactly the steps of
    ``cells._offsets`` under the class each reaches, and a one-bit bitmap
    moved by a step's shift is the one bit that decodes to the cell plus
    the step, wherever that cell lies in the tile's bitmaps; and ``read``,
    given that one bit in the class reached, yields for the step a bitmap
    with the cell's bit set. Returns how many steps moved a bit down, kept
    it and moved it up."""
    n, seen, every = maps.n, Counter(), (1 << prod(maps.radix)) - 1
    classes = list(product((0, 1), repeat=n))
    for key, tile in maps.tiles.items():
        # the bit of each cell in the tile's bitmaps, decoded once per class
        slots = {p: {e: b for b, e in enumerate(maps.decode(key, p, every))} for p in classes}
        owned = [(q, b) for by_class in tile.cells for q, bits in by_class.items() for b in ones(bits)]
        for (q, b), flat, k in product(owned, (0, 1), range(n + 1)):
            e, table = maps.cell(key, q, b), maps.steps(q, flat, k)
            assert sorted(d for steps in table.values() for d, _ in steps) == sorted(_offsets(q, flat, k))
            for p, steps in table.items():
                for d, shift in steps:
                    target = _mk(Cell, map(int.__add__, e, d))
                    assert _parity(target) == p, (e, d)
                    if target in slots[p]:
                        assert bitmaps._Bitmaps.at(1 << b, shift) == 1 << slots[p][target], (e, d)
                        assert dict(maps.read({p: 1 << slots[p][target]}, q, flat, k))[d] >> b & 1, (e, d)
                        seen[(shift > 0) - (shift < 0)] += 1
    return seen


class TestStepRule:
    @pytest.mark.parametrize("side", [None, 1], ids=["one-tile", "tiles-of-one"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_step_lands_on_its_cell(self, n, side, monkeypatch):
        if side:
            monkeypatch.setattr(bitmaps, "_sides", tiled(side))
        maps = census(DigitalObject.from_centers(n, product(range(2), repeat=n)))._bitmaps
        assert len(maps.tiles) == (2**n if side else 1)
        classes = {q for tile in maps.tiles.values() for by_class in tile.cells for q in by_class}
        assert classes == set(product((0, 1), repeat=n))
        seen = assert_steps_land(maps)
        assert seen[-1] and seen[0] and seen[1]


class TestOracles:
    def test_every_object_of_a_33_box(self):
        # o_b_boundary works its border out afresh for each cell
        for obj in enumerate_all_objects(2, (3, 3)):
            cen, sets = census(obj), oracle_sets(obj)
            assert_census_matches_oracle(obj, cen, sets)
            want = sum(o_b_boundary(2, sets.vox, e, 1) for e in sets.free[0])
            assert face_side_sums(obj, cen) == {(0, 1): want}

    def test_every_object_of_a_222_box(self):
        for obj, cen, sets in box_222():
            assert_census_matches_oracle(obj, cen, sets)

    def test_every_object_of_a_222_box_in_tiles_of_one(self, monkeypatch):
        # a tile for each voxel, so every cell's block and steps cross tiles
        monkeypatch.setattr(bitmaps, "_sides", tiled(1))
        for obj in enumerate_all_objects(3, (2, 2, 2)):
            cen = census(obj)
            assert_census_matches_oracle(obj, cen, oracle_sets(obj))
            assert_bitmaps_match_rebuilt(cen)


def drawn_objects():
    """Objects at n = 1..5 in boxes of side 1..3 (centers -1..1)."""
    return st.integers(1, 5).flatmap(
        lambda n: st.sets(st.tuples(*[st.integers(-1, 1)] * n), max_size=24).map(
            lambda centers: DigitalObject.from_centers(n, centers)
        )
    )


class TestTilings:
    @given(drawn_objects(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_tiles_give_the_one_tile_results(self, obj, side):
        one = census(obj)
        assert len(one._bitmaps.tiles) <= 1
        want = outcome(obj, one)
        strays = [i for i in range(obj.n) if one.free_by_dim[i]]
        doctored = [[r.passed for r in check_object(obj, with_stray(one, i))] for i in strays]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bitmaps, "_sides", tiled(side))
            cen = census(obj)
            if side == 1:  # a tile for each voxel
                assert len(cen._bitmaps.tiles) == len(obj)
            assert outcome(obj, cen) == want
            assert [[r.passed for r in check_object(obj, with_stray(cen, i))] for i in strays] == doctored
            assert_probes_decode(cen)


TWO_CLUSTERS = DigitalObject(3, [*RANDOM3.voxels, *RANDOM3.translate((1 << 40,) * 3).voxels])
FAR = DigitalObject.from_centers(3, [(EDGE, EDGE, EDGE), (EDGE - 1, EDGE - 1, EDGE), (-EDGE, -EDGE, -EDGE)])
LINE40 = DigitalObject.from_centers(3, [(t, t, t) for t in range(40)])
DIAG8 = DigitalObject.from_centers(8, [(t,) * 8 for t in range(3)])


class TestSparseObjects:
    @pytest.mark.parametrize(
        "obj", [FAR, TWO_CLUSTERS, LINE40], ids=["far-corners", "two-clusters", "diagonal-n3"]
    )
    def test_census_matches_the_oracles(self, obj):
        cen = census(obj)
        assert_census_matches_oracle(obj, cen, oracle_sets(obj))
        assert len(cen._bitmaps.tiles) > 1

    def test_diagonal_n8_counts(self):
        # the interval oracle steps 3^8 neighbours per cell at n = 8, so the
        # counts are the closed form: three voxels whose closures share
        # just a vertex between neighbours, every cell below n free
        cen = census(DIAG8)
        c = tuple(3 * (c_bounding(i, 8) if i < 8 else 1) - 2 * (i == 0) for i in range(9))
        assert (cen.c, cen.c_star) == (c, c[:8] + (0,))
        # one tile of 4^8 bits is charged less than three side-1 tiles of
        # 4^8 bits each; the tilings of side 1 and 2 are forced in
        # test_tilings_agree and TestCovering
        maps = cen._bitmaps
        assert (len(maps.tiles), maps.sides, maps.radix) == (1, (0,) * 8, (4,) * 8)
        assert all(r.passed for r in check_object(DIAG8, cen))

    def test_rebuilt_bitmaps_match_in_tiles_of_one_at_n8(self, monkeypatch):
        # neighbouring voxels share a vertex, which both their tiles hold:
        # the rebuilt copy must give it to the first, as the census does
        monkeypatch.setattr(bitmaps, "_sides", tiled(1))
        cen = census(DIAG8)
        assert len(cen._bitmaps.tiles) == 3
        assert_bitmaps_match_rebuilt(cen)

    @pytest.mark.parametrize(
        "obj",
        [FAR, TWO_CLUSTERS, LINE40, DIAG8],
        ids=["far-corners", "two-clusters", "diagonal-n3", "diagonal-n8"],
    )
    def test_tilings_agree(self, obj, monkeypatch):
        want = outcome(obj)
        sums = face_side_sums(obj, census(obj))
        for side in (1, 2):
            monkeypatch.setattr(bitmaps, "_sides", tiled(side))
            cen = census(obj)
            assert outcome(obj, cen) == want
            assert face_side_sums(obj, cen) == sums
            for i in range(obj.n + 1):
                assert list(cen._bitmaps.listing("cells", i)) == in_order(cen, cen.cells_by_dim[i])

    def test_each_tile_holds_a_voxel(self):
        # tiles are cut only where voxels are: a diagonal of 40 voxels gets
        # one tile per core it crosses, not one per box of the grid
        maps = census(LINE40)._bitmaps
        side = maps.sides[0]
        assert side and maps.sides == (side,) * 3
        assert list(maps.tiles) == sorted({(t // side,) * 3 for t in range(40)})
        assert all(tile.voxels for tile in maps.tiles.values())


class TestCovering:
    @pytest.mark.parametrize("side", [None, 1, 2], ids=["own-tiling", "tiles-of-one", "tiles-of-two"])
    @pytest.mark.parametrize(
        "obj",
        [FAR, TWO_CLUSTERS, LINE40, DIAG8],
        ids=["far-corners", "two-clusters", "diagonal-n3", "diagonal-n8"],
    )
    def test_covering_is_the_tiles_whose_range_holds_the_index(self, obj, side, monkeypatch):
        if side:
            monkeypatch.setattr(bitmaps, "_sides", tiled(side))
        cen = census(obj)
        maps = cen._bitmaps
        cells = [e for listing in cen.cells_by_dim for e in listing]
        # covering reads only the index, which cells of several classes share
        for h in {index(maps, e) for e in cells}:
            assert covering(maps, h), h
            assert list(maps.covering(h)) == covering(maps, h), h
        if side == 1:
            # the face above a voxel with no voxel above it is in no tile's
            # core, only in the voxel's tile's halo
            assert {tile_of(maps, e) for e in cells} - set(maps.tiles)
        # one index past the last slot of every tile's range on every axis
        past = tuple(
            max(key[k] for key in maps.tiles) * s + s + 1 if s else top + 1
            for k, (s, top) in enumerate(zip(maps.sides, maps.tops))
        )
        assert list(maps.covering(past)) == covering(maps, past) == []
        voxel = _mk(Cell, (2 * x + L + 1 for x, L in zip(past, maps.lo)))
        assert maps.place([voxel]) == {}


def assert_no_bit_past_the_tiles(maps: bitmaps._Bitmaps) -> None:
    """No bitmap of any tile has a bit at or past the tile's last slot."""
    past = prod(maps.radix)
    for key, tile in maps.tiles.items():
        listings = (tile.cells, tile.free, tile.reach)
        classes = [bits for listing in listings for by_class in listing for bits in by_class.values()]
        assert all(bits >> past == 0 for bits in [tile.voxels, *classes]), key


#: objects with one tile, and with an axis that tiles of two leave spanning
#: (the last, of one voxel, least significant: a carry out of it would land
#: in the next slot of a cut axis)
TOP_VOXEL_OBJECTS = {
    (n, side): generate(ShapeSpec("random", n, (3,) * (n - 1) + ((1,) if side else (3,)), 0.6, 3))
    for n in (2, 3, 4)
    for side in (None, 2)
}


class TestSpanningAxis:
    """A spanning axis has no guard slot: the index range reaches one step
    past the listed cells, so no shift carries out of it. A census doctored
    so that voxels sit at the listed maximum on an axis must still step
    every class onto its own cells."""

    @pytest.mark.parametrize("side", [None, 2], ids=["one-tile", "tiles-of-two"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_voxels_at_the_top_of_an_axis(self, n, side, monkeypatch):
        if side:
            monkeypatch.setattr(bitmaps, "_sides", tiled(side))
        obj = TOP_VOXEL_OBJECTS[n, side]
        cen = census(obj)
        for k in range(n):
            doctored = without_greatest_on(cen, k)
            maps = doctored._bitmaps
            listed_top = max(e[k] for cells in doctored.cells_by_dim for e in cells)
            assert any(v.is_voxel and v[k] == listed_top for v in doctored.cells_by_dim[n]), k
            # the greatest index on k is one step past those voxels
            assert maps.tops[k] == index(maps, (listed_top + 1,) * n)[k]
            # the last axis spans; with tiles of two, the others are cut
            assert maps.sides == ((0,) * n if side is None else (2,) * (n - 1) + (0,))
            assert all(r == top + 1 for r, top, s in zip(maps.radix, maps.tops, maps.sides) if not s)
            assert_identities_match(obj, doctored, listed(doctored))
            assert_identities_match(obj, doctored, held(doctored))
            assert_probes_decode(doctored)
            assert_no_bit_past_the_tiles(maps)

    def test_no_bit_past_the_last_slot(self):
        for _, cen, _ in box_222():
            copies = [cen, reaching_past(cen), *(without_greatest_on(cen, k) for k in range(3))]
            for c in copies:
                maps = c._bitmaps
                assert not any(maps.sides) and maps.radix == tuple(top + 1 for top in maps.tops)
                assert_no_bit_past_the_tiles(maps)


def test_far_diagonal_pair_is_one_small_tile():
    # the box is spanned by the two voxels' cells alone, whatever their coordinates
    maps = census(FAR_DIAG3)._bitmaps
    assert (len(maps.tiles), maps.sides, maps.radix) == (1, (0, 0, 0), (3, 3, 2))


def placed(maps: bitmaps._Bitmaps, cells) -> dict:
    """``_Bitmaps.place`` from its definition: each cell's bit in each tile
    whose range holds its index (``references.covering``), per tile and class."""
    spots: dict = {}
    for e in cells:
        for key, p in covering(maps, index(maps, e)):
            spots[key, _parity(e)] = spots.get((key, _parity(e)), 0) | 1 << p
    return spots


def assert_voxels_placed(obj: DigitalObject, maps: bitmaps._Bitmaps) -> None:
    """``of_voxels`` against a placement from the definition: a tile for each
    core that holds a voxel, in key order; each voxel in each tile whose
    range holds it, and counted for that tile's core if the tile's core
    holds it, or as an earlier tile's if its own tile comes first. A tile
    built from these chains must hold the census tile's cells."""
    assert list(maps.tiles) == sorted({tile_of(maps, v) for v in obj.voxels})
    chains: dict = {}
    for v in obj.voxels:
        own = tile_of(maps, v)
        for key, p in covering(maps, index(maps, v)):
            chain = chains.setdefault(key, [0, 0, 0])
            chain[0] |= 1 << p
            if key == own:
                chain[1] |= 1 << p
            elif own < key:
                chain[2] |= 1 << p
    assert {key: tile.voxels for key, tile in maps.tiles.items()} == {key: c[0] for key, c in chains.items()}
    for key, (every, core, earlier) in chains.items():
        tile = bitmaps._Tile(maps.n, maps.tiles[key].base)
        maps._count_classes(tile, (every, every, core, earlier))
        got = maps.tiles[key]
        assert (tile.cells, tile.free, tile.reach) == (got.cells, got.free, got.reach), key


def on_core_face(maps: bitmaps._Bitmaps, e) -> bool:
    """Whether the cell's index is on a core face of a cut axis."""
    return any(x % s in (0, s - 1) for x, s in zip(index(maps, e), maps.sides) if s)


RANDOM_ONE_TILE = [generate(ShapeSpec("random", n, (3,) * n, 0.5, 2)) for n in range(2, 7)]
TILINGS = pytest.mark.parametrize("side", [None, 1, 2], ids=["own-tiling", "tiles-of-one", "tiles-of-two"])
SPARSE = pytest.mark.parametrize(
    "obj", [FAR, TWO_CLUSTERS, LINE40, DIAG8], ids=["far-corners", "two-clusters", "diagonal-n3", "diagonal-n8"]
)


class TestPlacement:
    @TILINGS
    @SPARSE
    def test_sparse_objects_are_placed_by_the_definition(self, obj, side, monkeypatch):
        if side:
            monkeypatch.setattr(bitmaps, "_sides", tiled(side))
        cen = census(obj)
        maps = cen._bitmaps
        assert_voxels_placed(obj, maps)
        hubs = _window_counts(obj).hubs
        assert maps.place(hubs) == placed(maps, hubs)
        # every listed cell, of every class, in every tile whose range holds it
        cells = [e for listing in cen.cells_by_dim for e in listing]
        assert maps.place(cells) == placed(maps, cells)

    @pytest.mark.parametrize("obj", RANDOM_ONE_TILE, ids=[f"n{n}" for n in range(2, 7)])
    def test_one_tile_objects_are_placed_by_the_definition(self, obj):
        cen = census(obj)
        maps = cen._bitmaps
        assert len(maps.tiles) == 1 and not any(maps.sides)
        assert_voxels_placed(obj, maps)
        hubs = _window_counts(obj).hubs
        assert hubs
        assert maps.place(hubs) == placed(maps, hubs)
        cells = [e for listing in cen.cells_by_dim for e in listing]
        assert maps.place(cells) == placed(maps, cells)

    @pytest.mark.parametrize("obj", RANDOM_ONE_TILE, ids=[f"n{n}" for n in range(2, 7)])
    def test_index_past_a_spanning_axis_is_dropped(self, obj):
        # one step past either end of one axis, 0 on the others: no tile's
        # range holds it, though its dot product falls inside the tile
        maps = census(obj)._bitmaps
        for k, top in enumerate(maps.tops):
            for x in (-1, top + 1):
                h = [0] * maps.n
                h[k] = x
                voxel = _mk(Cell, (2 * y + L + 1 for y, L in zip(h, maps.lo)))
                assert maps.place([voxel]) == placed(maps, [voxel]) == {}, (k, x)

    def test_empty_object_has_no_tile(self):
        cen = census(DigitalObject(3))
        assert cen._bitmaps.tiles == {}
        assert replace(cen)._bitmaps.tiles == {}
        assert cen._bitmaps.place([]) == {}


def counted(monkeypatch, name: str) -> list:
    """The arguments of each call to ``_Bitmaps.<name>`` from now on."""
    calls: list = []
    real = getattr(bitmaps._Bitmaps, name)
    monkeypatch.setattr(bitmaps._Bitmaps, name, lambda self, *args: calls.append(args) or real(self, *args))
    return calls


class TestPlacementCalls:
    @pytest.mark.parametrize(
        "obj", [*RANDOM_ONE_TILE, FAR_DIAG3], ids=[*(f"n{n}" for n in range(2, 7)), "far-diagonal"]
    )
    def test_one_tile_makes_no_covering_call(self, obj, monkeypatch):
        calls = {name: counted(monkeypatch, name) for name in ("covering", "origin", "position")}
        maps = census(obj)._bitmaps
        assert len(maps.tiles) == 1
        identities._window(obj, maps)
        assert maps.window[2]
        # the one tile's origin, once; no per-voxel or per-hub lookup
        assert {name: len(c) for name, c in calls.items()} == {"covering": 0, "origin": 1, "position": 0}

    @TILINGS
    @pytest.mark.parametrize("obj", [TWO_CLUSTERS, LINE40, FAR], ids=["two-clusters", "diagonal-n3", "far-corners"])
    def test_covering_only_on_a_core_face(self, obj, side, monkeypatch):
        if side:
            monkeypatch.setattr(bitmaps, "_sides", tiled(side))
        calls = {name: counted(monkeypatch, name) for name in ("covering", "origin")}
        maps = census(obj)._bitmaps
        faces = [v for v in obj.voxels if on_core_face(maps, v)]
        assert sorted(calls["covering"]) == sorted((index(maps, v),) for v in faces)
        assert len(calls["origin"]) == len(maps.tiles) > 1
        hubs = _window_counts(obj).hubs
        calls["covering"].clear()
        identities._window(obj, maps)
        assert sorted(calls["covering"]) == sorted((index(maps, e),) for e in hubs if on_core_face(maps, e))
        assert len(calls["origin"]) == len(maps.tiles)
        if side is None and obj is not FAR:
            # in cores of side 4 or 8, some voxels are placed by their dot
            # product alone and some through covering; in tiles of one or
            # two every index is on a core face
            assert 0 < len(faces) < len(obj)
        elif side:
            assert len(faces) == len(obj)
