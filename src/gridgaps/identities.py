"""The object-level identities the engine guarantees, run as checks.

Every identity compares two independent computation routes (a closed form
against an enumeration, or two detectors against each other), so a failure
always means an engine bug or a corrupted census, never a property of the
input. ``check_object`` accepts an externally supplied census precisely so
callers can verify that a corrupted census is caught.

The census-side identities run on the census's bitmaps (``bitmaps._Bitmaps``):
each steps a whole parity class at once with ANDs and bit counts, and walks
a class cell by cell only to name a failure's witness, the first failing
cell in witness order (tile key, class, bit). They name a step by its cell
offset, as ``cells._offsets`` gives it: ``_Bitmaps.read`` yields each step
of a class with the bitmap of the class it reaches moved back onto the
class's bits, so a cell's bit there reads the cell the step reaches. Only
border-sum moves bitmaps itself, forward by each distinct shift of the
step table (``_Bitmaps.steps``, ``_Bitmaps.at``), which serves several
steps with one move.
No identity scans cells with ``is_gap``; gap-triple-agreement runs it on
the vertex-window pass's hubs alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations
from operator import add, sub
from typing import TYPE_CHECKING, Callable

from .cells import Cell, _mk
from .counting import c_bounding
from .gaps import (
    HubTag,
    _window_counts,
    count_gaps_block_formula,
    count_gaps_formula,
    is_gap,
)
# census stays bound here: perfbench's tracer wraps it and checks it is restored
from .objects import CellCensus, DigitalObject, _census_of, census  # noqa: F401

if TYPE_CHECKING:
    from .bitmaps import Class, Key, Offset, _Bitmaps, _Counts, _Tile
    from .gaps import _WindowCounts


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    checked: int
    witness: str = ""


#: a check returns how many cases it checked, and what it saw on failure
_Outcome = tuple[int, str | None]
_Check = Callable[[DigitalObject, CellCensus], _Outcome]
_Identity = Callable[[DigitalObject, CellCensus], IdentityResult]


def _identity(name: str, codim2: bool = False) -> Callable[[_Check], _Identity]:
    """Make a check into the identity ``name``, building its result here.

    A ``codim2`` check is over (n-2)-cells, so it holds with 0 checked below
    n = 2. A failure's witness is the object (at most 24 centers), then the
    check's detail.
    """

    def wrap(check: _Check) -> _Identity:
        @wraps(check)
        def identity(obj: DigitalObject, cen: CellCensus) -> IdentityResult:
            checked, detail = (0, None) if codim2 and obj.n < 2 else check(obj, cen)
            witness = ""
            if detail is not None:
                centers = obj.centers()
                shown = centers if len(centers) <= 24 else centers[:24] + ["..."]
                witness = f"object n={obj.n} centers={shown}; {detail}"
            return IdentityResult(name, detail is None, checked, witness)

        return identity

    return wrap


def _block_voxels(maps: _Bitmaps, voxels: int, q: Class) -> dict[Offset, int]:
    """The block voxels of a class-q cell, each by its offset with the voxel
    bitmap read at each cell's bit (``_Bitmaps.read``): +-1 on the cell's
    two flat axes. A cell with more or fewer flat axes has no (n-2)-block
    voxel: it has no such step, or its steps reach no voxel."""
    return dict(maps.read({(0,) * len(q): voxels}, q, 1, 2))


@lru_cache(maxsize=None)
def _tandem_pairs(corners: tuple[Offset, ...]) -> tuple[tuple[Offset, Offset, tuple[Offset, ...]], ...]:
    """The strictly (n-2)-adjacent pairs (v1, v2) of a cell's block voxels
    ``corners``, each with the voxels facet-adjacent to both, found from the
    offsets: v2 - v1 is +-2 on two axes, and u = v1 + f with f and v2 - u
    each +-2 on one axis."""
    n = len(corners[0]) if corners else 0
    facet = [tuple(s * 2 * (a == k) for a in range(n)) for k in range(n) for s in (-1, 1)]
    pairs = []
    for v1, v2 in combinations(corners, 2):
        d = tuple(map(sub, v2, v1))
        if sum(map(bool, d)) == 2:
            common = tuple(tuple(map(add, v1, f)) for f in facet if tuple(map(sub, d, f)) in facet)
            pairs.append((v1, v2, common))
    return tuple(pairs)


def _window(obj: DigitalObject, maps: _Bitmaps) -> tuple[_WindowCounts, dict[tuple[Key, Class], int]]:
    """The object's vertex-window pass, and its (n-2)-hubs as bitmaps in
    the census's tiles (``_Bitmaps.place``). Five identities check against
    the pass: it runs on first use and is kept with the census's bitmaps,
    so it is freed with the census, and an equal object checked with
    another census gets a pass of its own. ``count`` and ``classify`` call
    the pass in ``gaps`` directly and keep nothing. A hub the census does
    not list sets no bit of a listed cell."""
    if maps.window is None or maps.window[0] is not obj:
        win = _window_counts(obj)
        maps.window = (obj, win, maps.place(win.hubs))
    return maps.window[1:]


@_identity("census-partition")
def census_partition(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """c_i = c*_i + c'_i for every dimension; the census's lists agree with
    its counts; and the vertex-window pass behind ``count`` finds the same
    c, c* and c' as the census. For each i, every listed i-cell has
    dimension i, every listed free i-cell is a listed i-cell, and c_i and
    c*_i count them."""
    n = obj.n
    checked = n + 1
    for i in range(n + 1):
        if cen.c[i] != cen.c_star[i] + cen.c_prime[i]:
            return checked, f"dim {i}: c={cen.c[i]} c*={cen.c_star[i]} c'={cen.c_prime[i]}"
    maps = cen._bitmaps
    for i in range(n + 1):
        for listing in ("cells", "free"):
            _, where = maps.first(listing, i, lambda key, tile, q, bits: bits if n - sum(q) != i else 0)
            if where:
                cell = maps.cell(*where)
                return checked, f"dim {i}: listed cell {tuple(cell)} has dimension {cell.dim}"
        _, where = maps.first("free", i, lambda key, tile, q, bits: bits & ~tile.cells[i].get(q, 0))
        if where:
            return checked, f"dim {i}: free cell {tuple(maps.cell(*where))} is not a listed cell"
        for listing, label, want in (("cells", "c", cen.c[i]), ("free", "c*", cen.c_star[i])):
            got = maps.count(listing, i)
            if got != want:
                return checked, f"dim {i}: {got} {listing} listed but {label}={want}"
    win = _window(obj, maps)[0]
    for name, got, want in (
        ("c", win.c, cen.c),
        ("c*", win.c_star, cen.c_star),
        ("c'", win.c_prime, cen.c_prime),
    ):
        if got != want:
            return checked, f"window {name}={list(got)} but census {name}={list(want)}"
    return checked, None


@_identity("facet-count")
def facet_count(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """c_{n-1} = 2n * c_n - c'_{n-1}."""
    n = obj.n
    lhs = cen.c[n - 1]
    rhs = 2 * n * cen.c[n] - cen.c_prime[n - 1]
    if lhs != rhs:
        return 1, f"c_(n-1)={lhs} but 2n*c_n - c'_(n-1)={rhs}"
    return 1, None


@_identity("border-sum")
def border_sum(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """sum of b_j(e) over the i-border equals c_bounding(i,j) * c*_j.

    The sum counts the pairs (e, f) of a free i-cell e and a free j-cell f
    with f - e = +-1 on exactly j - i axes, and it is counted from the j
    side: each free j-class F, moved by each face step's shift (once per
    shift), meets E, the free i-class the step reaches, in a bit per pair.
    Either side counts the same pairs, whatever dimension a listed cell
    has: on the j - i axes where e and f differ, e is flat exactly where f
    extends.
    """
    n, maps = obj.n, cen._bitmaps
    checked = 0
    for j in range(1, n):
        sums = [0] * j
        for tile in maps.tiles.values():
            for q, free in tile.free[j].items():
                moved = {}
                for i in range(j):
                    reach = tile.reach[i]
                    for p, steps in maps.steps(q, 0, j - i).items():
                        target = reach.get(p, 0)
                        if target:
                            for _, shift in steps:
                                if shift not in moved:
                                    moved[shift] = maps.at(free, shift)
                                sums[i] += (moved[shift] & target).bit_count()
        for i in range(j):
            checked += 1
            lhs = sums[i]
            rhs = c_bounding(i, j) * cen.c_star[j]
            if lhs != rhs:
                return checked, f"(i={i}, j={j}): sum={lhs} formula={rhs}"
    return checked, None


def _cofaces_up(maps: _Bitmaps, tile: _Tile, q: Class, i: int) -> _Counts:
    """Bit slices of how many free (i + 1)-cells of the tile each class-q
    cell bounds: its cofaces one +-1 step along a flat axis."""
    return maps.tally(bits for _, bits in maps.read(tile.reach[i + 1], q, 1, 1))


@_identity("hub-nub-degree", codim2=True)
def hub_nub_degree(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Every free (n-2)-cell bounds 4 free facets if a window hub, else 2.

    The facets each cell bounds are counted a class at a time, in bit
    slices over the four coface bitmaps, and met with the hub bitmap."""
    n, maps = obj.n, cen._bitmaps
    hubs = _window(obj, maps)[1]

    def fail(key: Key, tile: _Tile, q: Class, free: int) -> int:
        counts = _cofaces_up(maps, tile, q, n - 2)
        hub = hubs.get((key, q), 0)
        return free & ~(hub & counts.equal(4) | ~hub & counts.equal(2))

    checked, where = maps.first("free", n - 2, fail)
    if where:
        key, q, bit = where
        got = _cofaces_up(maps, maps.tiles[key], q, n - 2).at(bit)
        expected = 4 if hubs.get((key, q), 0) >> bit & 1 else 2
        return checked, f"cell={tuple(maps.cell(*where))}: b_(n-1)={got}, expected {expected}"
    return checked, None


@_identity("gap-triple-agreement", codim2=True)
def gap_triple_agreement(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """The vertex-window pass behind ``count`` finds as many hubs as both
    formulas count gaps, none twice, and ``is_gap`` confirms each, so they
    are the object's gaps. A hub that ``is_gap`` would refuse fails here."""
    n = obj.n
    hubs = sorted(_window(obj, cen._bitmaps)[0].hubs)
    formula = count_gaps_formula(obj, cen)
    block_formula = count_gaps_block_formula(obj, cen)
    if not len(hubs) == formula == block_formula:
        return 1, f"window hubs={len(hubs)} formula={formula} block-formula={block_formula}"
    for e, before in zip(hubs, [None, *hubs]):
        if e == before:
            return 1, f"window hub {tuple(e)} is listed twice"
        if len(e) != n or e.dim != n - 2 or not is_gap(obj, e, n - 2):
            return 1, f"window hub {tuple(e)} is not a gap"
    return 1, None


@_identity("detector-equivalence", codim2=True)
def detector_equivalence(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Block inspection and the adjacency conditions find the same hubs.

    The adjacency conditions of ``is_gap_by_adjacency`` are tested a class
    at a time on the census's voxel bitmap: two voxels of e's block are
    strictly (n-2)-adjacent, and no voxel is facet-adjacent to both. Which
    block voxels pair up, and which voxels neighbour both, is worked out
    once per class from their offsets (``_tandem_pairs``). The hubs
    compared with are the vertex-window pass's, which reads no census.
    """
    n, maps = obj.n, cen._bitmaps
    hubs = _window(obj, maps)[1]

    def fail(key: Key, tile: _Tile, q: Class, cells: int) -> int:
        block = _block_voxels(maps, tile.voxels, q)
        gap = 0
        for v1, v2, common in _tandem_pairs(tuple(block)):
            pair = block[v1] & block[v2]
            for u in common:
                pair &= ~block[u]
            gap |= pair
        return cells & (gap ^ hubs.get((key, q), 0))

    checked, where = maps.first("cells", n - 2, fail)
    if where:
        return checked, f"cell={tuple(maps.cell(*where))}: detectors disagree"
    return checked, None


def _tags(maps: _Bitmaps, voxels: int, q: Class) -> tuple[int, dict[HubTag, int]]:
    """The cells of class q with no block voxel present, and those of each
    tag: by how many of the four block voxels are present, and for a pair
    whether it is facet-adjacent."""
    corners = list(_block_voxels(maps, voxels, q).items())
    counts = maps.tally(bits for _, bits in corners)
    facet_pair = 0
    for (u1, b1), (u2, b2) in combinations(corners, 2):
        if sum(map(bool, map(sub, u2, u1))) == 1:
            facet_pair |= b1 & b2
    pairs = counts.equal(2)
    tags = {
        HubTag.SIMPLE: counts.equal(1),
        HubTag.FACET_PAIR_BLOCK: pairs & facet_pair,
        HubTag.GAP_TANDEM: pairs & ~facet_pair,
        HubTag.L_BLOCK: counts.equal(3),
        HubTag.FULL_BLOCK: counts.equal(4),
    }
    return counts.equal(0), tags


@_identity("classification-totality", codim2=True)
def classification_totality(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Each (n-2)-cell gets exactly one consistent tag.

    The tag is read off the census's four block-corner bitmaps a class at a
    time, as ``classify_cell`` reads it: the number of block voxels
    present, and for a pair whether it is facet-adjacent. A cell with no
    voxel in its block is reported. Consistency: the full block is exactly
    the non-free case, and the tandem tag is exactly a hub of the
    vertex-window pass. Then the tally of these tags must equal the tag
    histogram of that pass, the block-trace route behind ``classify``.
    """
    n, maps = obj.n, cen._bitmaps
    hubs = _window(obj, maps)[1]
    tally = {tag: 0 for tag in HubTag}

    def fail(key: Key, tile: _Tile, q: Class, cells: int) -> int:
        empty, tags = _tags(maps, tile.voxels, q)
        for tag, bits in tags.items():
            tally[tag] += (cells & bits).bit_count()
        free = tile.free[n - 2].get(q, 0)
        hub = hubs.get((key, q), 0)
        return cells & (empty | ~(tags[HubTag.FULL_BLOCK] ^ free) | tags[HubTag.GAP_TANDEM] ^ hub)

    checked, where = maps.first("cells", n - 2, fail)
    if where:
        key, q, bit = where
        tile, cell = maps.tiles[key], tuple(maps.cell(*where))
        empty, tags = _tags(maps, tile.voxels, q)
        if empty >> bit & 1:
            return checked, f"cell={cell}: no voxel in its block"
        tag = next(tag for tag, bits in tags.items() if bits >> bit & 1)
        free = bool(tile.free[n - 2].get(q, 0) >> bit & 1)
        if (tag is HubTag.FULL_BLOCK) == free:
            return checked, f"cell={cell}: tag {tag.value} vs free={free}"
        return checked, f"cell={cell}: tag {tag.value} vs gap detector"
    hist = _window(obj, maps)[0].histogram
    if hist != tally:
        shown = [{tag.value: h[tag] for tag in HubTag} for h in (hist, tally)]
        return checked, "histogram {} but classify_cell tally {}".format(*shown)
    return checked, None


@_identity("free-face-heredity")
def free_face_heredity(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Every (j-1)-face of a free j-cell is itself free (hence every face is).

    Each free j-class F is tested against the free (j-1)-class E each face
    step reaches, read at F's bits: F must lie within it. The witness names
    the first free cell in witness order with a non-free face, and its
    least non-free face.
    """
    n, maps = obj.n, cen._bitmaps
    checked = 0
    for j in range(1, n):

        def fail(key: Key, tile: _Tile, q: Class, free: int) -> int:
            kept = free
            for _, below in maps.read(tile.reach[j - 1], q, 0, 1):
                kept &= below
            return free ^ kept

        got, where = maps.first("free", j, fail)
        checked += got
        if where:
            key, q, bit = where
            f = maps.cell(*where)
            missing = [
                _mk(Cell, map(add, f, d))
                for d, below in maps.read(maps.tiles[key].reach[j - 1], q, 0, 1)
                if not below >> bit & 1
            ]
            return checked, f"free cell {tuple(f)} has non-free face {tuple(min(missing))}"
    return checked, None


ALL_IDENTITIES = (
    census_partition,
    facet_count,
    border_sum,
    hub_nub_degree,
    gap_triple_agreement,
    detector_equivalence,
    classification_totality,
    free_face_heredity,
)


def check_object(
    obj: DigitalObject, cen: CellCensus | None = None
) -> list[IdentityResult]:
    """Run the whole identity suite on one object.

    ``cen`` defaults to a freshly computed census; passing one in lets tests
    confirm that corrupted counts are reported rather than absorbed.
    """
    cen = _census_of(obj, cen)
    return [identity(obj, cen) for identity in ALL_IDENTITIES]
