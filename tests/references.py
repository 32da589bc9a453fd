"""Per-cell references for the bitmap identities, the witness order they
walk, and the census doctors the tests share.

Each identity that runs on the census's bitmaps has one reference here: a
loop that probes cells one at a time as tuples. It takes the cells, free
cells and voxels it probes, so the same loop runs on a census's own tuple
sets (``listed``) and on what its bitmaps hold, decoded (``held``). It
walks cells in witness order, worked out here from its definition
(``in_order``): by owning tile (the first tile, in key order, whose core
holds a listed voxel of the cell's block, else the one whose core holds
the cell), then by parity class, then lexicographically. On a doctored
census an identity must name the first failing cell in that order.

A census doctor returns a copy of a census (``dataclasses.replace``) with
one listing or count changed; the copy's bitmaps are built from its sets.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest

from gridgaps import (
    Cell,
    DigitalObject,
    block,
    c_bounding,
    census,
    check_object,
    cofaces,
    faces,
    identities,
)
from gridgaps.bitmaps import _Bitmaps, _ones
from gridgaps.cells import _mk, _parity
from gridgaps.gaps import (
    HubTag,
    classification_histogram,
    classify_cell,
    count_gaps_oracle,
    is_gap_by_adjacency,
)
from gridgaps.identities import (
    border_sum,
    classification_totality,
    detector_equivalence,
    free_face_heredity,
    hub_nub_degree,
)
from gridgaps.objects import CellCensus

from oracles import o_border, o_bounds, o_cells, o_census, o_is_free

#: what a reference probes: the cells and the free cells per dimension, and the voxels
Probed = tuple[list, list, frozenset]


def index(maps: _Bitmaps, e) -> tuple[int, ...]:
    """The cell's index on each axis, (x - L) >> 1, from its definition."""
    return tuple((x - L) >> 1 for x, L in zip(e, maps.lo))


def tile_of(maps: _Bitmaps, e) -> tuple[int, ...]:
    return tuple(h // side if side else 0 for h, side in zip(index(maps, e), maps.sides))


def owner(maps: _Bitmaps, voxels: frozenset, e) -> tuple[int, ...]:
    """The tile that owns e: the first whose core holds a listed voxel of
    its block, else the one whose core holds e."""
    block_voxels = product(*((x - 1, x + 1) if x & 1 else (x,) for x in e))
    return min((tile_of(maps, v) for v in block_voxels if v in voxels), default=tile_of(maps, e))


def in_order(cen: CellCensus, cells) -> list[Cell]:
    """The cells in witness order: owning tile, class, then lexicographic."""
    maps = cen._bitmaps
    voxels = frozenset(v for v in cen.cells_by_dim[cen.n] if not any(x & 1 for x in v))
    return sorted(cells, key=lambda e: (owner(maps, voxels, e), _parity(e), tuple(e)))


def listed(cen: CellCensus) -> Probed:
    """The census's own tuple sets: its cells, free cells and listed voxels."""
    voxels = frozenset(v for v in cen.cells_by_dim[cen.n] if v.is_voxel)
    return list(cen.cells_by_dim), list(cen.free_by_dim), voxels


def held(cen: CellCensus) -> Probed:
    """The cells, free cells and voxels the census's bitmaps hold."""
    maps, n = cen._bitmaps, cen.n
    cells = [set(maps.listing("cells", i)) for i in range(n + 1)]
    free = [set(maps.listing("free", i)) for i in range(n + 1)]
    voxels = {v for key, tile in maps.tiles.items() for v in maps.decode(key, (0,) * n, tile.voxels)}
    return cells, free, frozenset(voxels)


def b_j(free: list, e: Cell, j: int) -> int:
    """How many free j-cells e bounds, by ``cofaces``."""
    return sum(f in free[j] for f in cofaces(e, j))


def ref_border_sum(obj, cen, cells, free, voxels):
    checked = 0
    for j in range(1, obj.n):
        for i in range(j):
            checked += 1
            lhs = sum(b_j(free, e, j) for e in free[i])
            rhs = c_bounding(i, j) * cen.c_star[j]
            if lhs != rhs:
                return checked, f"(i={i}, j={j}): sum={lhs} formula={rhs}"
    return checked, None


def ref_hub_nub_degree(obj, cen, cells, free, voxels):
    n = obj.n
    if n < 2:
        return 0, None
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    order = in_order(cen, free[n - 2])
    for checked, e in enumerate(order, 1):
        expected = 4 if e in hubs else 2
        got = b_j(free, e, n - 1)
        if got != expected:
            return checked, f"cell={tuple(e)}: b_(n-1)={got}, expected {expected}"
    return len(order), None


def ref_free_face_heredity(obj, cen, cells, free, voxels):
    checked = 0
    for j in range(1, obj.n):
        for f in in_order(cen, free[j]):
            checked += 1
            missing = [e for e in faces(f, j - 1) if e not in free[j - 1]]
            if missing:
                return checked, f"free cell {tuple(f)} has non-free face {tuple(min(missing))}"
    return checked, None


def ref_detector_equivalence(obj, cen, cells, free, voxels):
    n = obj.n
    if n < 2:
        return 0, None
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    probed = DigitalObject(n, voxels)
    order = in_order(cen, cells[n - 2])
    for checked, e in enumerate(order, 1):
        if (e in hubs) != is_gap_by_adjacency(probed, e):
            return checked, f"cell={tuple(e)}: detectors disagree"
    return len(order), None


def ref_classification_totality(obj, cen, cells, free, voxels):
    n = obj.n
    if n < 2:
        return 0, None
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    probed = DigitalObject(n, voxels)
    order = in_order(cen, cells[n - 2])
    tally = {tag: 0 for tag in HubTag}
    for checked, e in enumerate(order, 1):
        if not block(e) & voxels:
            return checked, f"cell={tuple(e)}: no voxel in its block"
        tag = classify_cell(probed, e).tag
        tally[tag] += 1
        if (tag is HubTag.FULL_BLOCK) != (e not in free[n - 2]):
            return checked, f"cell={tuple(e)}: tag {tag.value} vs free={e in free[n - 2]}"
        if (tag is HubTag.GAP_TANDEM) != (e in hubs):
            return checked, f"cell={tuple(e)}: tag {tag.value} vs gap detector"
    hist = classification_histogram(obj)
    if hist != tally:
        shown = [{tag.value: h[tag] for tag in HubTag} for h in (hist, tally)]
        return len(order), "histogram {} but classify_cell tally {}".format(*shown)
    return len(order), None


REFERENCES = (
    (border_sum, ref_border_sum),
    (hub_nub_degree, ref_hub_nub_degree),
    (free_face_heredity, ref_free_face_heredity),
    (detector_equivalence, ref_detector_equivalence),
    (classification_totality, ref_classification_totality),
)


def assert_identities_match(obj: DigitalObject, cen: CellCensus, probed: Probed) -> set[str]:
    """Each identity gives what its reference gives on the cells
    ``probed``: pass or fail, the count checked and the witness's detail.
    Returns the names of those that fail."""
    failed = set()
    for identity, reference in REFERENCES:
        result = identity(obj, cen)
        checked, detail = reference(obj, cen, *probed)
        assert (result.passed, result.checked) == (detail is None, checked), result
        assert result.witness.endswith(f"; {detail}") if detail else not result.witness
        if detail is not None:
            failed.add(identity.__name__)
    return failed


def bits_of(maps: _Bitmaps, listing: str, i: int):
    """(key, tile, class, bit, cell) for each cell ``listing`` holds at i."""
    for key, tile in maps.tiles.items():
        for q, bits in getattr(tile, listing)[i].items():
            for b in _ones(bits):
                yield key, tile, q, b, maps.cell(key, q, b)


def assert_steps_decode(cen: CellCensus) -> None:
    """Every listed cell decodes to a cell of its listing, in witness order,
    and every face and coface step from a free cell reads the bit of the
    face or coface in the tile's free cells in range: set exactly when it
    is a listed free cell."""
    n, maps = cen.n, cen._bitmaps
    for i in range(n + 1):
        for listing, sets in (("cells", cen.cells_by_dim), ("free", cen.free_by_dim)):
            got = list(maps.listing(listing, i))
            assert got == in_order(cen, sets[i]) and len(set(got)) == len(got)
        for key, tile, q, b, e in bits_of(maps, "free", i):
            assert _parity(e) == q
            for m in range(n):
                w = maps.weights[m]
                if q[m] == 0 and i:  # faces at x - 1 (same slot) and x + 1 (one up)
                    below = tile.reach[i - 1].get(q[:m] + (1,) + q[m + 1:], 0)
                    for up in (0, 1):
                        face = _mk(Cell, (x + 2 * up - 1 if k == m else x for k, x in enumerate(e)))
                        assert (below >> b + up * w & 1) == (face in cen.free_by_dim[i - 1]), (e, face)
                if q[m] == 1 and i < n:  # cofaces at x + 1 (same slot) and x - 1 (one down)
                    above = tile.reach[i + 1].get(q[:m] + (0,) + q[m + 1:], 0)
                    for down in (0, 1):
                        coface = _mk(Cell, (x + 1 - 2 * down if k == m else x for k, x in enumerate(e)))
                        # one slot down from slot 0 is outside the tile's box
                        inside = not down or (b // w) % maps.radix[m]
                        got = above >> b - down * w & 1 if inside else 0
                        assert got == (coface in cen.free_by_dim[i + 1]), (e, coface)


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


def assert_census_matches_oracle(obj: DigitalObject) -> None:
    """Counts, cell sets and each (i, j) sum border-sum counts against the
    interval oracles; every identity holds."""
    n = obj.n
    vox = frozenset(map(tuple, obj.voxels))
    cen = census(obj)
    assert (cen.c, cen.c_star, cen.c_prime) == o_census(n, vox)
    for i in range(n + 1):
        cells = o_cells(vox, i)
        assert cen.cells_by_dim[i] == cells
        assert cen.free_by_dim[i] == {e for e in cells if o_is_free(vox, e)}
    for (i, j), got in face_side_sums(obj, cen).items():
        border = o_border(n, vox, j)
        assert got == sum(o_bounds(e, f) for e in o_border(n, vox, i) for f in border), (i, j)
    assert all(r.passed for r in check_object(obj, cen))


def bump(counts: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The counts with entry i one higher."""
    return tuple(v + 1 if k == i else v for k, v in enumerate(counts))


def with_count_off(cen: CellCensus, field: str, i: int) -> CellCensus:
    """The census with entry i of the count ``field`` (c, c_star or c_prime) one higher."""
    return replace(cen, **{field: bump(getattr(cen, field), i)})


def with_listing(cen: CellCensus, i: int, cells=None, free=None) -> CellCensus:
    """The census with ``cells_by_dim[i]`` and ``free_by_dim[i]`` replaced."""
    out = [list(cen.cells_by_dim), list(cen.free_by_dim)]
    for listing, new in zip(out, (cells, free)):
        if new is not None:
            listing[i] = frozenset(new)
    return replace(cen, cells_by_dim=tuple(out[0]), free_by_dim=tuple(out[1]))


def with_stray(cen: CellCensus, i: int) -> CellCensus:
    """``free_by_dim[i]`` with one more i-cell, listed as free only: the
    least free one moved two steps down axis 0, below every cell of the
    object. It bounds no free j-cell, so neither side of border-sum counts it."""
    e = min(cen.free_by_dim[i])
    return with_listing(cen, i, free=cen.free_by_dim[i] | {_mk(Cell, (e[0] - 2, *e[1:]))})
