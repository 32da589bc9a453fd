"""Cells of the n-dimensional grid-cell complex.

A cell is encoded by its doubled center: the integer vector equal to twice
the cell's midpoint. Even components mark axes along which the cell extends
half a unit each way; odd components mark axes where it is flat. The encoding
is canonical, so tuple equality coincides with point-set equality, and the
cell's dimension is simply its number of even components.

A voxel is a cell with all components even (dimension n). The dual of a cell
keeps the same vector but lives on the half-shifted lattice, where the parity
roles swap; :class:`DualCell` is deliberately a distinct type so dual cells
can never leak into primal enumerations.

Everything here is a pure function of immutable values; all of it is safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product, repeat
from operator import add, and_
from typing import Iterable, Iterator, NamedTuple

#: Construction rejects components beyond this magnitude. Face/coface offsets
#: are +-1, so valid inputs can never collide with the guard band.
COORD_LIMIT = 1 << 60
#: Voxel centers are doubled into cell coordinates, so they stay within half.
CENTER_LIMIT = COORD_LIMIT // 2

_mk = tuple.__new__  # internal fast path: build cells from trusted coords


class Cell(tuple):
    """A grid cell as an immutable vector of doubled coordinates."""

    __slots__ = ()

    def __new__(cls, coords: Iterable[int]) -> "Cell":
        cell = _mk(cls, coords)
        if not cell:
            raise ValueError("a cell needs at least one coordinate")
        for x in cell:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"cell coordinates must be integers, got {x!r}")
            if x > COORD_LIMIT or x < -COORD_LIMIT:
                raise ValueError(f"coordinate {x} outside the +-2**60 range")
        return cell

    @property
    def n(self) -> int:
        """Ambient dimension."""
        return len(self)

    @property
    def dim(self) -> int:
        """Cell dimension: the number of axes along which the cell extends."""
        return sum(1 for x in self if not x & 1)

    @property
    def is_voxel(self) -> bool:
        return all(not x & 1 for x in self)

    def __repr__(self) -> str:
        return f"Cell{tuple(self)!r}"


@dataclass(frozen=True)
class DualCell:
    """The same doubled vector read on the half-shifted dual lattice.

    There, odd components extend and even components are flat, so the dual of
    an i-cell has dimension n - i. Distinct from :class:`Cell` on purpose:
    the two lattices must not be mixed in one set.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValueError("a dual cell needs at least one coordinate")

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def dim(self) -> int:
        """Dual dimension: the number of odd components."""
        return sum(1 for x in self.coords if x & 1)


class Adjacency(NamedTuple):
    """Result of comparing two voxels: the shared-cell dimension, if any.

    For two distinct voxels of the unit lattice the intersection is always a
    single cell, so ``strict`` is True whenever they are adjacent at all.
    """

    adjacent_at: int | None
    strict: bool


def dimension(cell: Cell) -> int:
    return cell.dim


def voxel(center: Iterable[int]) -> Cell:
    """The n-voxel centered at an integer point, in doubled coordinates.

    The one place a center becomes a voxel. Center coordinates must be
    integers (``bool`` is rejected, as in :class:`Cell`) within +-2**59;
    errors name the center as written, not its doubled value.
    """
    center = tuple(center)
    if not center:
        raise ValueError("a voxel center needs at least one coordinate")
    for x in center:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(
                f"center coordinates must be integers, got {x!r} in {center!r}"
            )
        if x > CENTER_LIMIT or x < -CENTER_LIMIT:
            raise ValueError(
                f"center coordinate {x} outside the +-2**59 range in {center!r}"
            )
    return _mk(Cell, [2 * x for x in center])


def from_point_direction(point: Iterable[int], direction: Iterable[int]) -> Cell:
    """Build the cell related to an integer point and a {-1,0,1} direction.

    Distinct (point, direction) pairs may denote the same cell; the doubled
    encoding collapses them to one value.
    """
    point_t = tuple(point)
    direction_t = tuple(direction)
    if len(point_t) != len(direction_t):
        raise ValueError("point and direction lengths differ")
    if any(t not in (-1, 0, 1) for t in direction_t):
        raise ValueError("direction components must be -1, 0 or 1")
    return Cell(2 * x + t for x, t in zip(point_t, direction_t))


def representative(cell: Cell) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One (point, direction) pair denoting the cell, for display.

    The choice is arbitrary on flat axes (direction +1 taken); the cell value
    itself is the canonical form.
    """
    point, direction = [], []
    for x in cell:
        if x & 1:
            point.append((x - 1) // 2)
            direction.append(1)
        else:
            point.append(x // 2)
            direction.append(0)
    return tuple(point), tuple(direction)


def _require_same_n(a, b) -> None:
    if len(a) != len(b):
        raise ValueError(
            f"cells live in different ambient dimensions ({len(a)} vs {len(b)})"
        )


def _contains(sup, sub, even_extends: bool) -> bool:
    """Coordinate containment test: sub's point set inside sup's.

    On an axis where sup extends, sub may sit at sup or one step to either
    side; on a flat axis the coordinates must agree exactly. ``even_extends``
    selects the primal (even extends) or dual (odd extends) reading.
    """
    for a, b in zip(sup, sub):
        d = b - a
        if d:
            if d != 1 and d != -1:
                return False
            if (not a & 1) != even_extends:
                return False
    return True


def incident(a: Cell, b: Cell) -> bool:
    """True iff one cell's point set contains the other's."""
    _require_same_n(a, b)
    return _contains(a, b, True) or _contains(b, a, True)


def bounds(e: Cell, f: Cell) -> bool:
    """True iff e is incident to f and of strictly smaller dimension."""
    _require_same_n(e, f)
    return _contains(f, e, True) and e.dim < f.dim


def dual(e: Cell) -> DualCell:
    """The dual cell: same vector, dual lattice, dimension n - dim(e)."""
    return DualCell(tuple(e))


def dual_incident(a: DualCell, b: DualCell) -> bool:
    _require_same_n(a.coords, b.coords)
    return _contains(a.coords, b.coords, False) or _contains(b.coords, a.coords, False)


def dual_bounds(a: DualCell, b: DualCell) -> bool:
    """Bounding relation on the dual lattice (odd components extend)."""
    _require_same_n(a.coords, b.coords)
    return _contains(b.coords, a.coords, False) and a.dim < b.dim


def _along(n: int, axes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The 2^k steps of +-1 on each of the k ``axes`` of the n-lattice, the
    first axis slowest and -1 before +1 on each."""
    return product(*((-1, 1) if a in axes else (0,) for a in range(n)))


@lru_cache(maxsize=None)
def _offsets(parity: tuple[int, ...], flat: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Every +-1 step along k of the axes whose parity bit equals ``flat``.

    Steps along flat axes (``flat=1``) reach the cofaces k dimensions up;
    steps along extending axes (``flat=0``) reach the faces k dimensions down.
    """
    pool = [a for a, p in enumerate(parity) if p == flat]
    return tuple(chain.from_iterable(_along(len(parity), axes) for axes in combinations(pool, k)))


def _parity(cell) -> tuple[int, ...]:
    return tuple(map(and_, cell, repeat(1)))


def faces(f: Cell, i: int) -> frozenset[Cell]:
    """All i-cells bounding f, plus f itself when i = dim(f).

    Size is 2^(j-i) * C(j, i) with j = dim(f).
    """
    j = f.dim
    if not 0 <= i <= j:
        raise ValueError(f"face dimension {i} outside [0, {j}]")
    return frozenset(
        _mk(Cell, map(add, f, delta)) for delta in _offsets(_parity(f), 0, j - i)
    )


def cofaces(e: Cell, j: int) -> frozenset[Cell]:
    """All j-cells of the lattice bounded by e, plus e itself when j = dim(e).

    Size is 2^(j-i) * C(n-i, j-i) with i = dim(e).
    """
    i = e.dim
    if not i <= j <= len(e):
        raise ValueError(f"coface dimension {j} outside [{i}, {len(e)}]")
    return frozenset(
        _mk(Cell, map(add, e, delta)) for delta in _offsets(_parity(e), 1, j - i)
    )


def block(e: Cell) -> frozenset[Cell]:
    """The block of e: all 2^(n-i) lattice voxels bounded by e."""
    return cofaces(e, len(e))


def _require_voxel(v: Cell) -> None:
    if any(x & 1 for x in v):
        raise ValueError(f"{v!r} is not a voxel (odd component present)")


def voxel_intersection(v1: Cell, v2: Cell) -> Cell | None:
    """The single cell two distinct voxels share, or None if disjoint."""
    _require_same_n(v1, v2)
    _require_voxel(v1)
    _require_voxel(v2)
    if v1 == v2:
        raise ValueError("voxels must be distinct")
    coords = []
    for a, b in zip(v1, v2):
        d = b - a
        if d == 0:
            coords.append(a)
        elif d == 2 or d == -2:
            coords.append((a + b) // 2)
        else:
            return None
    return _mk(Cell, coords)


def adjacency(v1: Cell, v2: Cell) -> Adjacency:
    """Adjacency order of two distinct voxels.

    ``adjacent_at`` is the dimension of the shared cell (None when their
    closures are disjoint); sharing a single cell makes the adjacency strict.
    """
    shared = voxel_intersection(v1, v2)
    if shared is None:
        return Adjacency(None, False)
    return Adjacency(shared.dim, True)


@lru_cache(maxsize=None)
def _adjacent_offsets(n: int, i: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        d
        for d in product((-2, 0, 2), repeat=n)
        if any(d) and d.count(0) >= i
    )


def adjacent_voxels(
    v: Cell, i: int, within: Iterable[Cell] | None = None
) -> frozenset[Cell]:
    """Lattice voxels i-adjacent to v (sharing a cell of dimension >= i).

    With ``within`` given (typically an object's voxel set), only members of
    that collection are returned.
    """
    _require_voxel(v)
    n = len(v)
    if not 0 <= i <= n - 1:
        raise ValueError(f"adjacency order {i} outside [0, {n - 1}]")
    neighbors = (_mk(Cell, map(add, v, d)) for d in _adjacent_offsets(n, i))
    if within is None:
        return frozenset(neighbors)
    pool = within if isinstance(within, (set, frozenset)) else frozenset(within)
    return frozenset(u for u in neighbors if u in pool)
