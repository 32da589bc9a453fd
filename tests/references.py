"""What the census tests share: the fixture objects, each defined here
once, the per-cell references for the bitmap identities and the witness
order they walk, the census doctors, and the check families.

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

A check family takes the census it checks and, where it compares with the
interval oracles, the object's oracle sets (``oracle_sets``), so a caller
builds each once and runs every family on them.

``counted_reads`` counts what the .dvo reader reads of a file.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache
from itertools import combinations, product
from typing import NamedTuple

import pytest

from gridgaps import (
    Cell,
    DigitalObject,
    ShapeSpec,
    block,
    c_bounding,
    census,
    check_object,
    cofaces,
    dvo,
    enumerate_all_objects,
    faces,
    generate,
    identities,
)
from gridgaps.bitmaps import _Bitmaps
from gridgaps.cells import COORD_LIMIT, _mk, _parity
from gridgaps.gaps import (
    HubTag,
    classification_histogram,
    classify_cell,
    count_gaps_oracle,
    is_gap,
    is_gap_by_adjacency,
)
from gridgaps.identities import (
    _block_voxels,
    _cofaces_up,
    border_sum,
    classification_totality,
    detector_equivalence,
    free_face_heredity,
    hub_nub_degree,
)
from gridgaps.objects import CellCensus

from oracles import o_bounds, o_cells, o_is_free, o_is_gap

#: the greatest center coordinate in range
EDGE = 1 << 59

SINGLE3 = DigitalObject.from_centers(3, [(0, 0, 0)])
DOMINO3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 0, 0)])
DIAG3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0)])
LBLOCK3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
CUBE222 = DigitalObject.from_centers(3, list(product((0, 1), repeat=3)))
SQUARE22 = DigitalObject.from_centers(2, list(product((0, 1), repeat=2)))
EMPTY3 = DigitalObject(3)
DIAG2 = DigitalObject.from_centers(2, [(0, 0), (1, 1)])
LINE1 = DigitalObject.from_centers(1, [(0,), (1,), (5,)])
#: a diagonal pair and a third voxel on a face of one: one hub
HUBS3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0), (1, 1, 1)])
#: DIAG3 moved to the -2**59 corner; its cell coordinates lie near -2**60
FAR_DIAG3 = DIAG3.translate((-EDGE,) * 3)
#: the random objects of a 3^n box at density 0.5, seed 1
RANDOM3 = generate(ShapeSpec("random", 3, (3,) * 3, 0.5, 1))
RANDOM4 = generate(ShapeSpec("random", 4, (3,) * 4, 0.5, 1))
#: objects at the corners of the center range
CORNERS = [
    DigitalObject.from_centers(2, list(product((-EDGE, EDGE), repeat=2))),
    DigitalObject.from_centers(
        3,
        list(product((-EDGE, EDGE), repeat=3))
        + [(EDGE - 1, EDGE - 1, EDGE), (1 - EDGE, -EDGE, 1 - EDGE)],
    ),
    FAR_DIAG3,
    DigitalObject.from_centers(1, [(0,), (1,), (5,), (-EDGE,), (EDGE,)]),
]
LOW = [LINE1, DIAG2, DigitalObject.from_centers(2, [(0, 0), (1, 0), (0, 1), (3, 3), (4, 2)])]

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


def covering(maps: _Bitmaps, h: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The tiles whose range holds index h, in key order, each with h's bit,
    from their definition: on a cut axis a tile's range is its core and a
    halo slot either side, t * side - 1 .. t * side + side, and on a
    spanning axis it is 0..top; h's slot is its offset from the range's start."""
    found = []
    for key in maps.tiles:
        starts = [t * side - 1 if side else 0 for t, side in zip(key, maps.sides)]
        ends = [t * side + side if side else top for t, side, top in zip(key, maps.sides, maps.tops)]
        if all(s <= x <= end for s, x, end in zip(starts, h, ends)):
            found.append((key, sum((x - s) * w for x, s, w in zip(h, starts, maps.weights))))
    return found


def in_order(cen: CellCensus, cells) -> list[Cell]:
    """The cells in witness order: owning tile, class, then lexicographic."""
    maps = cen._bitmaps
    if not any(maps.sides):  # every cell is on tile 0
        return sorted(cells, key=lambda e: (_parity(e), tuple(e)))
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


def border_sum_outcome(cen: CellCensus, sums: dict[tuple[int, int], int]) -> tuple[int, str | None]:
    """What border-sum reports on the sum of each (i, j), in order: the
    pairs checked up to the first whose sum misses the formula, and what
    it saw there."""
    for checked, ((i, j), lhs) in enumerate(sums.items(), 1):
        rhs = c_bounding(i, j) * cen.c_star[j]
        if lhs != rhs:
            return checked, f"(i={i}, j={j}): sum={lhs} formula={rhs}"
    return len(sums), None


def ref_border_sum(obj, cen, cells, free, voxels):
    pairs = [(i, j) for j in range(1, obj.n) for i in range(j)]
    return border_sum_outcome(cen, {(i, j): sum(b_j(free, e, j) for e in free[i]) for i, j in pairs})


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


def ones(bits: int) -> list[int]:
    """The positions of the set bits, ascending."""
    return [b for b, digit in enumerate(reversed(format(bits, "b"))) if digit == "1"]


def cell_at(maps: _Bitmaps, key, q, b: int) -> Cell:
    """The class-q cell at bit b of tile ``key``, from its definition: slot
    (b // w_k) % r_k on axis k, index origin_k + slot, coordinate
    2 * index + L_k + 1 - q_k (built unchecked: it may lie past +-2**60)."""
    axes = zip(maps.origin(key), maps.weights, maps.radix, maps.lo, q)
    return _mk(Cell, (2 * (o + b // w % r) + L + 1 - f for o, w, r, L, f in axes))


def assert_probes_decode(cen: CellCensus) -> None:
    """Every probe of the census's bitmaps against its per-cell form. A
    class decodes to the cells its bits define (``cell_at``), each bit
    reads alone as its cell (``_Bitmaps.cell``), and every listed cell
    decodes to a cell of its listing, in witness order. Every face and
    coface step from a free cell reads the bit of the face or coface in the
    tile's free cells in range: set exactly when it is a listed free cell.
    The bit-sliced coface counts of a listed i-cell, i < n - 1, are its
    tuple count. A listed (n-2)-cell's block corners are its four block
    voxels and read the listed voxels; a cell with other than two flat axes
    has no block corner."""
    n, maps = cen.n, cen._bitmaps
    decoded: dict[tuple[str, int], list] = {}  # (key, tile, q, bit, cell) per listing and dimension
    for key, tile in maps.tiles.items():
        for listing in ("cells", "free", "reach"):
            for i, by_class in enumerate(getattr(tile, listing)):
                for q, bits in by_class.items():
                    bs = ones(bits)
                    cells, alone = list(maps.decode(key, q, bits)), [maps.cell(key, q, b) for b in bs]
                    assert cells == alone == [cell_at(maps, key, q, b) for b in bs]
                    assert all(type(e) is Cell for e in cells + alone)
                    decoded.setdefault((listing, i), []).extend((key, tile, q, *p) for p in zip(bs, cells))
    for i in range(n + 1):
        for listing, sets in (("cells", cen.cells_by_dim), ("free", cen.free_by_dim)):
            got = list(maps.listing(listing, i))
            assert got == in_order(cen, sets[i]) and len(set(got)) == len(got)
        for key, tile, q, b, e in decoded.get(("free", i), ()):
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
    for i in range(n - 1):
        for key, tile, q, b, e in decoded.get(("cells", i), ()):
            got = _cofaces_up(maps, tile, q, i).at(b)
            # a listed cell of another dimension steps up from its own
            up = [_mk(Cell, (x + d if k == a else x for k, x in enumerate(e)))
                  for a in range(n) if e[a] & 1 for d in (-1, 1)]
            assert got == sum(f in cen.free_by_dim[i + 1] for f in up), (e, i)
            if e.dim == i:
                assert got == b_j(cen.free_by_dim, e, i + 1)
    for key, tile, q, b, e in decoded.get(("cells", n - 2), ()) if n >= 2 else ():
        block_voxels = _block_voxels(maps, tile.voxels, q)
        corners = {_mk(Cell, map(int.__add__, e, u)): bits for u, bits in block_voxels.items()}
        assert set(corners) == (block(e) if sum(q) == 2 else set()), e
        present = {v for v, bits in corners.items() if bits >> b & 1}
        assert present == block(e) & cen.cells_by_dim[n] if sum(q) == 2 else not present, e


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


class OracleSets(NamedTuple):
    """An object's voxels, and its cells and free cells per dimension, by
    the interval oracles (the free i-cells are its i-border)."""

    vox: frozenset
    cells: list
    free: list


def oracle_sets(obj: DigitalObject) -> OracleSets:
    vox = frozenset(map(tuple, obj.voxels))
    cells = [o_cells(vox, i) for i in range(obj.n + 1)]
    return OracleSets(vox, cells, [{e for e in c if o_is_free(vox, e)} for c in cells])


@cache
def box_222(moved: bool = False) -> tuple[tuple[DigitalObject, CellCensus, OracleSets | None], ...]:
    """Every object of the 2x2x2 box with its census and oracle sets, built
    once for the tests of the box; with ``moved``, each moved by one, with
    no oracle sets: centers move by 1 and cell coordinates by 2, so the
    least coordinate keeps its parity."""
    objs = [obj.translate((1, 1, 1)) if moved else obj for obj in enumerate_all_objects(3, (2, 2, 2))]
    return tuple((obj, census(obj), None if moved else oracle_sets(obj)) for obj in objs)


def assert_census_matches_oracle(obj: DigitalObject, cen: CellCensus, sets: OracleSets) -> None:
    """Counts, cell sets and each (i, j) sum border-sum counts against the
    interval oracles; every identity holds."""
    c, c_star = (tuple(map(len, s)) for s in (sets.cells, sets.free))
    assert (cen.c, cen.c_star, cen.c_prime) == (c, c_star, tuple(a - b for a, b in zip(c, c_star)))
    assert list(cen.cells_by_dim) == sets.cells
    assert list(cen.free_by_dim) == sets.free
    for (i, j), got in face_side_sums(obj, cen).items():
        assert got == sum(o_bounds(e, f) for e in sets.free[i] for f in sets.free[j]), (i, j)
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


def without_least_free(cen: CellCensus, i: int) -> CellCensus:
    return with_listing(cen, i, free=cen.free_by_dim[i] - {min(cen.free_by_dim[i])})


def without_least_cell(cen: CellCensus, i: int) -> CellCensus:
    return with_listing(cen, i, cells=cen.cells_by_dim[i] - {min(cen.cells_by_dim[i])})


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


def without_greatest_on(cen: CellCensus, k: int) -> CellCensus:
    """The census with every listed cell at the greatest coordinate on axis
    k dropped, from ``cells_by_dim`` and ``free_by_dim``: on a census those
    are faces flat on k, so the voxels below them, and the cells that
    extend on k with them, are left at the listed maximum on k."""
    listings = (cen.cells_by_dim, cen.free_by_dim)
    top = max((e[k] for listing in listings for cells in listing for e in cells), default=0)
    cells, free = (tuple(frozenset(e for e in c if e[k] != top) for c in listing) for listing in listings)
    return replace(cen, cells_by_dim=cells, free_by_dim=free)


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


def least_parity(cen: CellCensus) -> int:
    """The parity of the least listed coordinate (0 with none)."""
    return min((x for cells in cen.cells_by_dim for e in cells for x in e), default=0) & 1


def assert_bitmaps_match_tuples(obj: DigitalObject, cen: CellCensus, sets: OracleSets | None = None) -> None:
    """``b_boundary`` against ``b_j`` and, given the oracle sets, against
    the interval oracle; each identity against its reference on the
    census's tuple sets."""
    n = cen.n
    for j in range(1, n):
        for i in range(j):
            for e in cen.cells_by_dim[i]:
                got = cen.b_boundary(e, j)
                assert got == b_j(cen.free_by_dim, e, j), (e, j)
                if sets:
                    assert got == sum(1 for f in sets.free[j] if o_bounds(tuple(e), f)), (e, j)
    assert_identities_match(obj, cen, listed(cen))


def assert_all_censuses_agree(
    obj: DigitalObject, cen: CellCensus, sets: OracleSets | None = None
) -> set[int]:
    """Check the census and the one reaching past it against the tuple
    routes and by their probes; given the object's oracle sets, also the
    census against them, the one listing free cells outside its span by its
    probes, and the census with its least free cell dropped in each
    dimension in turn and the one with its least (n-2)-cell dropped.
    Return the parities of their least listed coordinates.

    On a non-empty object the real census and the one reaching past it
    give both parities."""
    assert_bitmaps_match_tuples(obj, cen, sets)
    doctored = [reaching_past(cen)]
    for c in (cen, doctored[0]):  # least coordinate odd, then even
        assert_probes_decode(c)
    if obj.n >= 2 and len(obj):
        assert {least_parity(c) for c in (cen, doctored[0])} == {0, 1}
    if sets:
        assert_probes_decode(listing_free_outside(cen))
        doctored += [without_least_free(cen, i) for i in range(obj.n) if cen.free_by_dim[i]]
        if obj.n >= 2 and len(obj):
            doctored.append(without_least_cell(cen, obj.n - 2))
    for d in doctored:
        assert_bitmaps_match_tuples(obj, d)
    return {least_parity(c) for c in [cen, *doctored]}


def range_bits(maps: _Bitmaps) -> int:
    """The bits of a tile's range: every slot but the guard slot of a cut axis."""
    bits = 1
    for side, radix, w in zip(maps.sides[::-1], maps.radix[::-1], maps.weights[::-1]):
        bits = sum(bits << s * w for s in range(side + 2 if side else radix))
    return bits


def assert_bitmaps_match_rebuilt(cen: CellCensus) -> None:
    """``census`` builds its bitmaps as it counts; they must hold what the
    ones built from its own tuple sets hold, on the same grid of tiles, in
    the same order. The free cells in range, which the census works out
    from the voxels in range, agree over each tile's range (on one tile,
    everywhere); past it, in a guard slot, no step from an owned cell reads
    them (``assert_probes_decode``). The census must also equal its
    tuple-set copy."""
    direct, rebuilt = cen._bitmaps, replace(cen)._bitmaps
    assert (direct.lo, direct.tops, direct.sides) == (rebuilt.lo, rebuilt.tops, rebuilt.sides)
    assert list(direct.tiles) == list(rebuilt.tiles)
    in_range = range_bits(direct)
    for key, tile in direct.tiles.items():
        other = rebuilt.tiles[key]
        assert tile.voxels == other.voxels
        for listing in ("cells", "free", "reach"):
            got, want = getattr(tile, listing), getattr(other, listing)
            if listing == "reach" and any(direct.sides):
                got, want = (
                    [{q: b & in_range for q, b in d.items() if b & in_range} for d in x] for x in (got, want)
                )
            assert got == want
            assert [list(by_class) for by_class in got] == [list(by_class) for by_class in want]
    plain = CellCensus(
        cen.n, cen.c, cen.c_star, cen.c_prime,
        tuple(map(frozenset, cen.cells_by_dim)), tuple(map(frozenset, cen.free_by_dim)),
    )
    assert cen == plain and hash(cen) == hash(plain)


def assert_is_gap_matches_oracle(obj: DigitalObject, sets: OracleSets) -> None:
    """``is_gap`` against the interval oracle ``o_is_gap`` on every cell of
    the object for every i in 0..n-2, and its errors word for word: i out
    of range, a cell of another dimension and a cell of another ambient
    dimension."""
    n = obj.n
    for i in range(n - 1):
        for e in sets.cells[i]:
            # built unchecked: at the range corners faces lie past +-2**60
            assert is_gap(obj, _mk(Cell, e), i) == o_is_gap(sets.vox, e, i), (e, i)
        for k in range(n + 1):
            if k != i:
                for e in sorted(sets.cells[k])[:3]:
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


def assert_border_sums_agree(obj: DigitalObject, cen: CellCensus, tuples: bool = True) -> None:
    """border-sum counts each (i, j) sum from the free j-cells' side; each
    must equal the coface side's (``coface_sums``), and its result what the
    coface side's sums give. With ``tuples``, each sum is also counted as
    ``ref_border_sum`` counts it, over the census's tuple sets with
    ``cofaces``; that route reads a cell's own dimension, so it is left out
    where a cell is listed under another one."""
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
    obj: DigitalObject, cen: CellCensus, pairs: list[tuple[int, int]] | None = None, tuples: bool = True
) -> None:
    """The census and its ``border_sum_copies`` for each (i, j) of
    ``pairs``, by default every pair; c*_j off by one must fail."""
    assert_border_sums_agree(obj, cen, tuples)
    if pairs is None:
        pairs = [(i, j) for j in range(1, obj.n) for i in range(j)]
    for i, j in pairs:
        copies = border_sum_copies(cen, i, j)
        for copy, countable in copies:
            assert_border_sums_agree(obj, copy, tuples and countable)
        assert not border_sum(obj, copies[0][0]).passed


def counted_reads(monkeypatch) -> tuple[list[int], list[int]]:
    """Make ``dvo`` open files that count the lines read from them and
    record, as each closes, how many bytes were read; returns the line
    count (one item) and the bytes read per file closed."""
    lines_read, bytes_read = [0], []

    class Counted:
        def __init__(self, fh):
            self.fh = fh

        def __iter__(self):
            for line in self.fh:
                lines_read[0] += 1
                yield line

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            bytes_read.append(self.fh.buffer.tell())
            self.fh.close()

    monkeypatch.setattr(dvo, "open", lambda *args, **kw: Counted(open(*args, **kw)), raising=False)
    return lines_read, bytes_read
