"""Digital n-objects: finite voxel sets with cell census and borders.

A cell of the object is any face of one of its voxels. A cell of dimension
i < n is free when its block (the 2^(n-i) voxels it bounds) is not entirely
inside the object; the free cells of every dimension make up the border.
The census also records, per dimension, the non-free count c', which equals
the number of i-blocks fully contained in the object.

By convention the census classifies n-cells as non-free (a voxel's block is
itself, and it is present), so c* is 0 at dimension n and the partition
c = c* + c' stays total over 0..n.

A census is held as bitmaps, a big int per parity class of cells in tiles
(``bitmaps``), and its cell sets are decoded from them only when read.
``bitmaps`` is imported by the first census: ``count`` and ``classify``
build none.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import sub
from typing import TYPE_CHECKING, Iterable, Iterator

from .cells import Cell, _mk, _require_voxel, cofaces, voxel

if TYPE_CHECKING:
    from .bitmaps import _Bitmaps


class DigitalObject:
    """An immutable finite set of n-voxels.

    Voxels are stored in doubled coordinates (all components even). Duplicate
    voxels in the input are an error, not a silent merge. Coordinates are
    kept exactly as given; no canonical translation is applied.
    """

    __slots__ = ("_n", "_voxels")

    def __init__(self, n: int, voxels: Iterable[Cell] = ()) -> None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"ambient dimension must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {n}")
        listed = [v if isinstance(v, Cell) else Cell(v) for v in voxels]
        for v in listed:
            if len(v) != n:
                raise ValueError(f"voxel {v!r} does not have {n} coordinates")
            _require_voxel(v)
        vox = frozenset(listed)
        if len(vox) != len(listed):
            raise ValueError("duplicate voxels in input")
        self._n = n
        self._voxels = vox

    @classmethod
    def _of(cls, n: int, voxels: frozenset[Cell]) -> DigitalObject:
        """The object of voxels already checked as ``__init__`` checks them,
        each a voxel of n coordinates in range: they are not checked again."""
        obj = object.__new__(cls)
        obj._n, obj._voxels = n, voxels
        return obj

    @classmethod
    def from_centers(
        cls, n: int, centers: Iterable[Sequence[int]]
    ) -> "DigitalObject":
        """Build from integer voxel centers (the usual user-facing form)."""
        return cls(n, map(voxel, centers))

    @property
    def n(self) -> int:
        return self._n

    @property
    def voxels(self) -> frozenset[Cell]:
        return self._voxels

    def centers(self) -> list[tuple[int, ...]]:
        """Voxel centers as integer tuples, lexicographically sorted."""
        return sorted(tuple(x // 2 for x in v) for v in self._voxels)

    def translate(self, vector: Sequence[int]) -> "DigitalObject":
        """Shift every voxel center by an integer vector.

        The shifted centers pass the same check as :meth:`from_centers`, so a
        center pushed outside +-2**59 is a ``ValueError`` naming it.
        """
        vec = tuple(vector)
        if len(vec) != self._n:
            raise ValueError("translation vector has wrong length")
        return DigitalObject.from_centers(
            self._n, ([x // 2 + t for x, t in zip(v, vec)] for v in self._voxels)
        )

    def permute_axes(self, perm: Sequence[int]) -> "DigitalObject":
        if sorted(perm) != list(range(self._n)):
            raise ValueError("not a permutation of the axes")
        return DigitalObject._of(
            self._n, frozenset(_mk(Cell, (v[k] for k in perm)) for v in self._voxels)
        )

    def __len__(self) -> int:
        return len(self._voxels)

    def __contains__(self, v: object) -> bool:
        return v in self._voxels

    def __iter__(self) -> Iterator[Cell]:
        return iter(sorted(self._voxels))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DigitalObject):
            return NotImplemented
        return self._n == other._n and self._voxels == other._voxels

    def __hash__(self) -> int:
        return hash((self._n, self._voxels))

    def __repr__(self) -> str:
        return f"DigitalObject(n={self._n}, voxels={len(self._voxels)})"


@dataclass(frozen=True)
class CellCensus:
    """Per-dimension cell counts of one object, with the cell sets cached.

    ``c[i]`` counts all i-cells, ``c_star[i]`` the free ones and
    ``c_prime[i]`` the rest; ``beta`` aliases ``c_prime`` since non-free
    i-cells correspond one-to-one to i-blocks contained in the object.
    ``cells_by_dim[i]`` and ``free_by_dim[i]`` are the i-cells and the free
    ones; :func:`census` decodes each from its bitmaps when it is first read.
    """

    n: int
    c: tuple[int, ...]
    c_star: tuple[int, ...]
    c_prime: tuple[int, ...]
    cells_by_dim: Sequence[frozenset[Cell]] = field(repr=False)
    free_by_dim: Sequence[frozenset[Cell]] = field(repr=False)

    @property
    def beta(self) -> tuple[int, ...]:
        return self.c_prime

    def border(self, i: int) -> frozenset[Cell]:
        if not 0 <= i <= self.n - 1:
            raise ValueError(f"border dimension {i} outside [0, {self.n - 1}]")
        return self.free_by_dim[i]

    def is_free(self, e: Cell) -> bool:
        """True iff e's block is not inside the object; e is an i-cell of it, i < n."""
        if len(e) != self.n:
            raise ValueError("cell and object ambient dimensions differ")
        i = e.dim
        if i >= self.n:
            raise ValueError("free/non-free is defined for dimensions below n")
        if e not in self.cells_by_dim[i]:
            raise ValueError(f"{e!r} is not a cell of the object")
        return e in self.free_by_dim[i]

    def b_boundary(self, e: Cell, j: int) -> int:
        """Free j-cells of the object bounded by its cell e; 0 if e is non-free."""
        i = e.dim
        if not i < j <= self.n - 1:
            raise ValueError(f"need dim(e) < j <= n-1, got dim={i}, j={j}")
        if e not in self.cells_by_dim[i]:
            raise ValueError(f"{e!r} is not a cell of the object")
        return sum(map(self.free_by_dim[j].__contains__, cofaces(e, j)))

    @cached_property
    def _bitmaps(self) -> _Bitmaps:
        """The census as bitmaps, which the identities step whole classes on.

        :func:`census` builds them as it counts. Any other census, such as a
        ``dataclasses.replace`` copy, builds its own from its cell sets,
        each cell under the dimension it is listed at and in its own parity
        class, so a doctored census is probed as given. The bitmaps hold
        nothing of the census, so no reference cycle keeps a census alive.
        """
        from .bitmaps import _Bitmaps

        return _Bitmaps.of_sets(self.n, self.cells_by_dim, self.free_by_dim)


class _Decoded(Sequence):
    """Cell sets per dimension, held as bitmaps and each decoded to a
    ``frozenset[Cell]`` the first time it is read, then kept. It compares
    equal to the tuple of those frozensets."""

    __slots__ = ("_maps", "_listing", "_sets")

    def __init__(self, maps: _Bitmaps, listing: str) -> None:
        self._maps, self._listing = maps, listing
        self._sets: list[frozenset[Cell] | None] = [None] * (maps.n + 1)

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        cells = self._sets[i]
        if cells is None:
            cells = self._sets[i] = frozenset(self._maps.listing(self._listing, i))
        return cells

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _Decoded)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def census(obj: DigitalObject) -> CellCensus:
    """Full per-dimension census with free/non-free classification.

    An i-cell is a face of a voxel of the object, and it is free when its
    block of 2^(n-i) voxels is not all in the object. ``bitmaps._Bitmaps.of_voxels``
    finds both for a whole parity class at once, and c and c* are the bit
    counts of its bitmaps. A voxel's block is itself, so n-cells are never
    free. The cell sets are decoded to tuples only when read.
    """
    from .bitmaps import _Bitmaps

    n = obj.n
    maps = _Bitmaps.of_voxels(n, obj.voxels)
    c = tuple(maps.count("cells", i) for i in range(n + 1))
    c_star = tuple(maps.count("free", i) for i in range(n + 1))
    cen = CellCensus(
        n=n,
        c=c,
        c_star=c_star,
        c_prime=tuple(map(sub, c, c_star)),
        cells_by_dim=_Decoded(maps, "cells"),
        free_by_dim=_Decoded(maps, "free"),
    )
    # seeded where cached_property looks first, not held in a field, so a
    # dataclasses.replace copy builds its own bitmaps from its cell sets
    vars(cen)["_bitmaps"] = maps
    return cen


def _census_of(obj: DigitalObject, cen: CellCensus | None) -> CellCensus:
    """``cen``, or the object's census if None; a census of another n is refused."""
    if cen is None:
        return census(obj)
    if cen.n != obj.n:
        raise ValueError(f"census of dimension {cen.n} given for a {obj.n}-object")
    return cen
