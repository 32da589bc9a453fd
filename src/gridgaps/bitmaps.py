"""A census's cells as bitmaps: per tile, per dimension and per parity
class, one big int with a bit for each cell.

On axis k a cell's doubled coordinate x has the index h = (x - L_k) >> 1,
with L_k odd and at most the least cell coordinate: a voxel and its face
below share an index, and its face above is one index up. So the cells of
one parity class (the axes they are flat on) fill a sublattice, and a
face, coface or block step is a shift of a whole class. This module alone
turns a step into a shift: ``_Bitmaps.read`` gives, for each step, the
class it reaches moved back onto the stepping class's bits, and the
identities speak only of cell offsets. The one exception is border-sum,
which moves each free j-class forward itself (``_Bitmaps.steps``,
``_Bitmaps.at``): a -1 step on an axis the class extends on keeps the
index, so its 3^j - 1 face steps have only 2^j distinct shifts, and one
forward move per shift serves every i-class those steps reach, where
reading back moves each reached class once per step. The ints are cut
into tiles, a sparse map of small dense boxes after VDB (Museth 2013, "VDB:
High-resolution sparse volumes with dynamic topology"): only tiles that
hold a voxel exist, so clusters far apart and long diagonals cost about
what their cells cost, not what their bounding box does. A dense object
is one tile (``_sides``).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, combinations, compress, product, repeat
from math import prod
from operator import and_, contains, floordiv, itemgetter, mul, rshift, sub
from typing import Callable, Iterable, Iterator

from .cells import Cell, _along, _mk, _parity, faces

#: the least bits a tile is charged when the tiles are chosen (``_sides``):
#: about the big-int work that a tile's own Python overhead costs
TILE_BITS = 1 << 12

_BITS01 = bytes.maketrans(b"01", b"\0\1")

#: a parity class: entry k is 1 where its cells are flat (odd) on axis k
Class = tuple[int, ...]
#: a tile's position on the grid of tiles
Key = tuple[int, ...]
#: a step from a cell, in doubled coordinates
Offset = tuple[int, ...]
#: steps, each with its shift (``_Bitmaps.steps``)
Steps = tuple[tuple[Offset, int], ...]
#: indices or coordinates, a column per axis (``_Bitmaps.indices``)
Columns = list[list[int]]
#: the step rule: a -1 and a +1 step on an axis move a cell's index by 0 and
#: 1 from a cell extending on the axis (0), by -1 and 0 from one flat on it (1)
_MOVES = ((0, 1), (-1, 0))


def _bitmap(positions: list[int]) -> int:
    """The int with the bits at ``positions`` set, built in a byte buffer."""
    buf = bytearray((max(positions, default=-1) >> 3) + 1)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


@lru_cache(maxsize=None)
def _levels(n: int) -> tuple[tuple[tuple[Class, int], ...], ...]:
    """The parity classes by number of flat axes, each level in order, each
    class with its last flat axis: clearing it gives a class one level down."""
    levels: list[list[tuple[Class, int]]] = [[] for _ in range(n + 1)]
    for q in product((0, 1), repeat=n):
        levels[sum(q)].append((q, max((k for k in range(n) if q[k]), default=-1)))
    return tuple(map(tuple, levels))


def _radix(sides: Iterable[int], tops: Iterable[int]) -> tuple[int, ...]:
    """Each axis's radix: top + 1 where one tile spans the axis (its
    indices 0..top), and T + 3 where it is cut at core side T (the core, a
    halo slot either side and a guard slot)."""
    return tuple(side + 3 if side else top + 1 for side, top in zip(sides, tops))


def _sides(tops: tuple[int, ...], columns: Columns) -> tuple[int, ...]:
    """The core side of the tiles on each axis, 0 where one tile spans it.

    Axis k's indices run 0..tops[k], and a tile has ``_radix`` slots on
    each axis. Each tile is charged its bits, but at least ``TILE_BITS``,
    and the layout charged least for the tiles that hold the points
    (``columns[k]`` holds their indices on axis k) wins: one tile, or sides
    T = 1, 2, 4, ... on the axes longer than T. Past the T whose tiles
    reach ``TILE_BITS`` bits, doubling T doubles a tile's bits per cut axis
    and at best halves the tiles, so the search stops there.
    """
    best, sides = max(prod(_radix(repeat(0), tops)), TILE_BITS), (0,) * len(tops)
    side = 1
    while columns and side <= max(tops):
        cut = tuple(side if top >= side else 0 for top in tops)
        bits = prod(_radix(cut, tops))
        charge = max(bits, TILE_BITS)
        # a core holds at most this many points, which bounds the tiles from below
        room = prod(c or top + 1 for c, top in zip(cut, tops))
        if -(-len(columns[0]) // room) * charge < best:
            cols = (map(floordiv, col, repeat(c)) if c else repeat(0) for col, c in zip(columns, cut))
            charged = len(set(zip(*cols))) * charge
            if charged < best:
                best, sides = charged, cut
        if bits >= TILE_BITS:
            break
        side *= 2
    return sides


class _Counts(list):
    """Bit slices of a count per bit: slice k holds bit k of the count."""

    def equal(self, v: int) -> int:
        """The bits where the count is v."""
        if v >> len(self):
            return 0
        out = -1
        for k, s in enumerate(self):
            out &= s if v >> k & 1 else ~s
        return out

    def at(self, bit: int) -> int:
        """The count at one bit."""
        return sum((s >> bit & 1) << k for k, s in enumerate(self))


@lru_cache(maxsize=1 << 12)
def _step_table(weights: tuple[int, ...], q: Class, flat: int, k: int) -> dict[Class, Steps]:
    """``_Bitmaps.steps`` for the radix with these weights, kept per radix:
    for each k of q's axes of parity ``flat``, the class reached and the +-1
    steps on those axes (``cells._along``), each with its shift (``_MOVES``
    times the weights). The steps on some axes are built once, as the one
    entry of the class whose only axes of parity ``flat`` they are.

    It recurses so that every class stepping on the same axes shares that
    one tuple. A table built per class directly holds a tuple per class:
    for one radix's whole table at n = 8 (every class, both parities,
    k = 1..8), 26.5 MiB against 5.4 MiB, by ``tracemalloc``."""
    n, pool = len(q), [a for a, f in enumerate(q) if f == flat]
    top = (1 - flat,) * n
    if len(pool) == k:
        down, up = _MOVES[flat]
        shifts = map(sum, product(*((down * weights[a], up * weights[a]) for a in pool)))
        return {top: tuple(zip(_along(n, pool), shifts))}
    return {
        tuple(f ^ (a in axes) for a, f in enumerate(q)): _step_table(
            weights, tuple(flat ^ (a not in axes) for a in range(n)), flat, k
        )[top]
        for axes in combinations(pool, k)
    }


class _Tile:
    """One tile's bitmaps. ``voxels`` holds every voxel in the tile's range
    (its core and, on a cut axis, a halo slot either side). Per dimension i
    and class, ``cells[i]`` and ``free[i]`` hold the listed cells the tile
    owns and ``reach[i]`` every free cell in the range, so each face,
    coface and block step from an owned cell reads a bit of the tile.
    ``reach`` may also hold bits in the guard slot of a cut axis, which no
    step from an owned cell reads; a spanning axis has no guard slot
    (``_radix``)."""

    __slots__ = ("base", "voxels", "cells", "free", "reach")

    def __init__(self, n: int, base: int) -> None:
        #: the dot product of the tile's origin with the weights
        self.base = base
        self.voxels = 0
        #: per dimension, each class's bitmap (``list[dict[Class, int]]``)
        self.cells, self.free, self.reach = ([{} for _ in range(n + 1)] for _ in range(3))


class _Bitmaps:
    """A census as bitmaps: per tile, per dimension and per parity class,
    one int with a bit for each cell.

    Index. A cell x has h_k = (x_k - L_k) >> 1 on axis k (``lo`` holds the
    L_k). A voxel's faces on an extending axis are at h and h + 1 and a flat
    cell's cofaces at h and h - 1, so every step moves a whole class by one
    shift (``steps``). The index range reaches one step past the cells it is
    built from (``__init__``): ``tops[k]`` is the index of x + 1 for the
    greatest coordinate x on axis k, so a cell that extends on k sits at
    h_k <= top - 1 and a cell flat on k at h_k <= top.

    Tiles. The indices are cut on a grid of tiles anchored at 0, with core
    side ``sides[k]`` on axis k (0 where one tile spans the axis; see
    ``_sides``), and only tiles whose core holds a voxel exist. A tile's
    bitmaps span its range, from ``origin(key)``: on a cut axis its core
    and a halo slot either side, else all the indices. Its index h sits at
    bit sum((h_k - origin_k) * weights[k]), a tight mixed radix
    (``_radix``); axis 0 is most significant, so within a class the bits
    run in the lexicographic order of the cells. Each listed cell is
    owned by one tile: the first, in key order, whose core holds a listed
    voxel of the cell's block, or else the one whose core holds the cell.
    An owned cell's block voxels, and each face and coface it steps to, lie
    in the owner's range.

    No carry. A shift on axis k must not carry into the next axis. A cut
    axis keeps a guard slot at its top for that. A spanning axis, radix
    top + 1, needs none, as each shift site moves only cells that reach no
    slot past top on it:
    - ``_count_classes`` moves voxels, and cells extending on k, up one on k:
      from at most top - 1 to at most top;
    - border-sum moves free cells up one on axes they extend on: to at most
      top;
    - ``read`` moves a reached class back. For block voxels and cofaces it
      moves voxels, and free cells extending on k, up one on k: to at most
      top. For faces it moves free faces flat on k down one: a bit at slot
      0 wraps to slot top on k (or off the int), and is read only at free
      cells extending on k, none of them at top.

    Placement. A voxel or hub goes to the tile whose core holds it (on a
    cut axis h // side, else 0), at its dot product with the weights less
    the tile's ``base``. ``covering`` finds the neighbours whose halo also
    holds it, and is called only for an index on a core face of a cut axis
    (h % side is 0 or side - 1): never on one tile.

    Witness order. The identities walk cells in one order: by owning tile's
    key, then by class (its parity tuple), then by bit, so each names the
    first failing cell in that order. An object of one tile is ordered by
    class, then lexicographically.
    """

    __slots__ = ("n", "lo", "tops", "sides", "radix", "weights", "tiles", "window")

    def __init__(self, n: int, columns: Sequence[Sequence[int]]) -> None:
        """Bitmaps with no tile yet, whose index range reaches one step past
        the cell coordinates ``columns`` (a column per axis; empty, 0..0)."""
        self.n = n
        self.lo = tuple((min(col, default=0) - 1) | 1 for col in columns)
        (self.tops,) = zip(*self.indices([max(col, default=-1) + 1] for col in columns))
        #: (object, its window pass, the pass's hubs as bitmaps per (tile, class)), kept by ``identities``
        self.window: tuple | None = None

    def _cut(self, columns: Columns) -> None:
        """Choose the tiles for the indices ``columns`` (``indices``), and
        make those whose cores hold them."""
        self.sides = _sides(self.tops, columns)
        self.radix = _radix(self.sides, self.tops)
        self.weights = tuple(prod(self.radix[k + 1:]) for k in range(self.n))
        self.tiles: dict[Key, _Tile] = {
            key: _Tile(self.n, sum(map(mul, self.origin(key), self.weights))) for key in sorted(set(self._keys(columns)))
        }

    def indices(self, columns: Iterable[Iterable[int]]) -> Columns:
        """The indices of cells given as a column per axis, a column per
        axis: (x_k - L_k) >> 1 on each axis k."""
        return [list(map(rshift, map(sub, col, repeat(L)), repeat(1))) for col, L in zip(columns, self.lo)]

    def origin(self, key: Key) -> tuple[int, ...]:
        return tuple(t * side - 1 if side else 0 for t, side in zip(key, self.sides))

    def covering(self, h: tuple[int, ...]) -> Iterator[tuple[Key, int]]:
        """Each tile whose range holds index h, in key order, with h's bit in
        it. On a cut axis the candidates run from the tile whose core holds
        h - 1 to the one whose core holds h + 1: h's own tile alone, unless h
        is on a core face (h % side is 0 or side - 1), where a neighbour's
        halo may hold it. It walks the candidates or the tiles, whichever
        are fewer."""
        axes = [
            range(-(-x // side) - 1, (x + 1) // side + 1) if side else (0,) * (0 <= x <= top)
            for x, side, top in zip(h, self.sides, self.tops)
        ]
        for key in self.tiles if prod(map(len, axes)) > len(self.tiles) else product(*axes):
            if key in self.tiles and all(map(contains, axes, key)):
                yield key, self.position(h, key)

    def position(self, h: tuple[int, ...], key: Key) -> int:
        """Index h's bit in tile ``key``: its dot product with the weights,
        less the tile's ``base``."""
        return sum(map(mul, h, self.weights)) - self.tiles[key].base

    def _keys(self, columns: Columns) -> Iterator[Key]:
        """The key of the tile whose core holds each index: on a spanning
        axis 0 inside 0..top, and no tile's outside it."""
        return zip(*(
            map(floordiv, col, repeat(side or top + 1)) for col, side, top in zip(columns, self.sides, self.tops)
        ))

    def _placed(self, columns: Columns) -> Iterator[tuple[Key, Iterable]]:
        """Each index's own tile key, and the tiles whose range holds it with
        its bit in each (as ``covering`` gives them). An index inside its own
        tile's core is in that tile alone, at ``position``; only one on a
        core face of a cut axis calls ``covering``."""
        faces = [[x % side in (0, side - 1) for x in col] for col, side in zip(columns, self.sides) if side]
        for h, key, face in zip(zip(*columns), self._keys(columns), map(any, zip(repeat(0), *faces))):
            if face:
                yield key, self.covering(h)
            elif key in self.tiles:  # ``position``, without a call per index
                yield key, ((key, sum(map(mul, h, self.weights)) - self.tiles[key].base),)
            else:
                yield key, ()

    def place(self, cells: Iterable[Cell]) -> dict[tuple[Key, Class], int]:
        """The cells as bitmaps, per tile and class, in every tile whose
        range holds them (``_placed``); the rest are dropped. A cell's class
        is read off its coordinate columns, ``x & 1`` on each axis."""
        columns = list(zip(*cells))
        classes = zip(*(map(and_, col, repeat(1)) for col in columns))
        spots = {}
        for q, (_, placed) in zip(classes, self._placed(self.indices(columns))):
            for key, p in placed:
                spots.setdefault((key, q), []).append(p)
        return {spot: _bitmap(positions) for spot, positions in spots.items()}

    @classmethod
    def of_voxels(cls, n: int, voxels: Iterable[Cell]) -> _Bitmaps:
        """The census of a voxel set, one tile at a time and a class at a
        time: the cells of a class with flat axes Q are the voxel bitmap
        shifted over the 2^|Q| sign choices on Q and ORed, the non-free
        ones the same shifts ANDed, built one flat axis at a time from the
        class with one flat axis fewer. The cells a tile owns come the same
        way from the voxels of its core, less those from the voxels of
        tiles earlier in key order."""
        vox = list(voxels)
        # a column per axis: zip(*vox) would make an iterator per voxel, and
        # that many new objects wake the garbage collector
        cols = [list(map(itemgetter(k), vox)) for k in range(n)]
        maps = cls(n, cols)
        columns = maps.indices(cols)
        maps._cut(columns)
        spots = {key: ([], [], []) for key in maps.tiles}
        for own, placed in maps._placed(columns):
            for key, p in placed:
                every, core, earlier = spots[key]
                every.append(p)
                if key == own:
                    core.append(p)
                elif own < key:
                    earlier.append(p)
        for key, bits in spots.items():
            tile = maps.tiles[key]
            tile.voxels, core, earlier = map(_bitmap, bits)
            maps._count_classes(tile, (tile.voxels, tile.voxels, core, earlier))
        return maps

    def _count_classes(self, tile: _Tile, chains: tuple[int, int, int, int]) -> None:
        """Fill the tile's bitmaps from its chains of voxels: all, for its cells
        and non-free cells, the core's and the earlier tiles' (on one tile, all
        and none). A face is in a chain if a cell either side is, non-free if both."""
        n, at = self.n, self.at
        prev = {(0,) * n: chains}
        self._store(tile, (0,) * n, chains)
        for level in _levels(n)[1:]:
            cur = {}
            for q, k in level:
                p = q[:k] + (0,) + q[k + 1:]
                (_, a), (_, b) = self.steps(p, 0, 1)[q]
                c, nonfree, core, earlier = prev[p]
                cur[q] = (at(c, a) | at(c, b), at(nonfree, a) & at(nonfree, b),
                          at(core, a) | at(core, b), at(earlier, a) | at(earlier, b))
                self._store(tile, q, cur[q])
            prev = cur

    def _store(self, tile: _Tile, q: Class, chains: tuple[int, int, int, int]) -> None:
        i = self.n - sum(q)
        every, nonfree, core, earlier = chains
        cells, reach = core & ~earlier, every & ~nonfree
        for listing, bits in ((tile.cells, cells), (tile.reach, reach), (tile.free, cells & reach)):
            if bits:
                listing[i][q] = bits

    @classmethod
    def of_sets(
        cls, n: int, cells_by_dim: Sequence[Iterable[Cell]], free_by_dim: Sequence[Iterable[Cell]]
    ) -> _Bitmaps:
        """The bitmaps of listed cell sets, each cell under the dimension it
        is listed at and in its own class. The listed voxels, and no listed
        non-voxel, are the block voxels, and owners are found from their
        side: a voxel's closure holds the cells it is a block voxel of."""
        listed = [list(cells) for cells in (*cells_by_dim, *free_by_dim)]
        maps = cls(n, list(zip(*(e for cells in listed for e in cells))) or [()] * n)
        # each cell with its index
        spots = [list(zip(cells, zip(*maps.indices(zip(*cells))))) for cells in listed]
        vox = {e: h for e, h in spots[n] if not any(_parity(e))}
        closure = {v: [f for i in range(n + 1) for f in faces(v, i)] for v in vox}
        owners = dict.fromkeys(chain.from_iterable(closure.values()))
        # the tiles are chosen, and made, for the voxels and for the cells in no closure
        maps._cut(list(zip(*vox.values(), *(h for cells in spots for e, h in cells if e not in owners))))
        # a closure cell is owned by the first tile holding one of its block voxels (the
        # voxels go last to first, so that tile writes last), any other by the tile holding it
        for key, v in sorted(zip(maps._keys(list(zip(*vox.values()))), vox), reverse=True):
            owners.update(zip(closure[v], repeat(key)))
        owned = {}
        for s, cells in enumerate(spots):
            for e, h in cells:
                key = owners[e] if e in owners else next(maps._keys(zip(h)))
                spot = ("cells" if s <= n else "free", s % (n + 1), key, _parity(e))
                owned.setdefault(spot, []).append(maps.position(h, key))
        for (listing, i, key, q), positions in sorted(owned.items()):
            getattr(maps.tiles[key], listing)[i][q] = _bitmap(positions)
        for (key, _), bits in maps.place(vox).items():
            maps.tiles[key].voxels = bits
        for i, cells in enumerate(free_by_dim):
            for (key, q), bits in sorted(maps.place(cells).items()):
                maps.tiles[key].reach[i][q] = bits
        return maps

    def first(
        self, listing: str, i: int, fail: Callable[[Key, _Tile, Class, int], int]
    ) -> tuple[int, tuple[Key, Class, int] | None]:
        """Walk the cells ``cells`` or ``free`` lists at dimension i in
        witness order, a class at a time: ``fail(key, tile, q, bits)`` gives
        the failing ones of a class's bits. Returns the count checked, up to
        and with the first failing cell, and where that cell is (key, class,
        bit); or the count of all and None."""
        checked = 0
        for key, tile in self.tiles.items():
            for q, bits in getattr(tile, listing)[i].items():
                bad = fail(key, tile, q, bits)
                if bad:
                    low = bad & -bad
                    return checked + (bits & (low - 1)).bit_count() + 1, (key, q, low.bit_length() - 1)
                checked += bits.bit_count()
        return checked, None

    def steps(self, q: Class, flat: int, k: int) -> dict[Class, Steps]:
        """The steps ``cells._offsets(q, flat, k)`` from a class-q cell, in
        order and by the class each reaches, each with its shift."""
        return _step_table(self.weights, q, flat, k)

    def read(self, by_class: dict[Class, int], q: Class, flat: int, k: int) -> Iterator[tuple[Offset, int]]:
        """Each step of ``steps(q, flat, k)``, in order, with ``by_class``'s
        bitmap of the class it reaches moved back by its shift: each class-q
        cell's bit reads the cell the step reaches."""
        for p, steps in self.steps(q, flat, k).items():
            bits = by_class.get(p, 0)
            for d, shift in steps:
                yield d, self.at(bits, -shift)

    @staticmethod
    def at(bits: int, shift: int) -> int:
        """The bits moved up by ``shift`` (down, if negative): a class moved
        by a step's shift sets each cell's bit at the cell the step reaches,
        and the class reached, moved back, reads it at each cell's bit."""
        return bits << shift if shift > 0 else bits >> -shift if shift else bits

    @staticmethod
    def tally(bitmaps: Iterable[int]) -> _Counts:
        """How many of the bitmaps set each bit, in bit slices."""
        slices = _Counts()
        for carry in bitmaps:
            for k, s in enumerate(slices):
                slices[k], carry = s ^ carry, s & carry
                if not carry:
                    break
            if carry:
                slices.append(carry)
        return slices

    def count(self, listing: str, i: int) -> int:
        """How many cells ``cells`` or ``free`` lists at dimension i."""
        return sum(
            bits.bit_count() for tile in self.tiles.values() for bits in getattr(tile, listing)[i].values()
        )

    def decode(self, key: Key, q: Class, bits: int) -> Iterator[Cell]:
        """The cells of class q at the set bits of tile ``key``, in bit order.

        The bits run in the order ``product`` walks the tile's slots (axis 0
        most significant), so the walk, kept where a bit is set, gives the
        cells. It costs the slots up to the highest bit set, however few
        bits are set; a bit past the tile's last slot is dropped."""
        # slot s on axis k is index o + s, coordinate 2 * (o + s) + L + 1 - f
        axes = [
            range(2 * o + L + 1 - f, 2 * (o + r) + L + 1 - f, 2)
            for o, L, f, r in zip(self.origin(key), self.lo, q, self.radix)
        ]
        flags = format(bits, "b").encode().translate(_BITS01)[::-1]
        return map(_mk, repeat(Cell), compress(product(*axes), flags))

    def cell(self, key: Key, q: Class, bit: int) -> Cell:
        """The class-q cell at one bit of tile ``key``: slot bit // w_k % r_k
        on each axis k, read without decoding the rest of the tile."""
        axes = zip(self.origin(key), self.weights, self.radix, self.lo, q)
        return _mk(Cell, [2 * (o + bit // w % r) + L + 1 - f for o, w, r, L, f in axes])

    def listing(self, listing: str, i: int) -> Iterator[Cell]:
        """The cells ``cells`` or ``free`` lists at dimension i, in witness order."""
        for key, tile in self.tiles.items():
            for q, bits in getattr(tile, listing)[i].items():
                yield from self.decode(key, q, bits)
