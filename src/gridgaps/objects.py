"""Digital n-objects: finite voxel sets with cell census and borders.

A cell of the object is any face of one of its voxels. A cell of dimension
i < n is free when its block (the 2^(n-i) voxels it bounds) is not entirely
inside the object; the free cells of every dimension make up the border.
The census also records, per dimension, the non-free count c', which equals
the number of i-blocks fully contained in the object.

By convention the census classifies n-cells as non-free (a voxel's block is
itself, and it is present), so c* is 0 at dimension n and the partition
c = c* + c' stays total over 0..n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import add
from typing import Iterable, Iterator, Sequence

from .cells import Cell, _mk, _offsets, _parity, _require_voxel, voxel


class DigitalObject:
    """An immutable finite set of n-voxels.

    Voxels are stored in doubled coordinates (all components even). Duplicate
    voxels in the input are an error, not a silent merge. Coordinates are
    kept exactly as given; no canonical translation is applied.
    """

    __slots__ = ("_n", "_voxels")

    def __init__(self, n: int, voxels: Iterable[Cell] = ()) -> None:
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
        return DigitalObject(
            self._n, (_mk(Cell, (v[k] for k in perm)) for v in self._voxels)
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
    """

    n: int
    c: tuple[int, ...]
    c_star: tuple[int, ...]
    c_prime: tuple[int, ...]
    cells_by_dim: tuple[frozenset[Cell], ...] = field(repr=False)
    free_by_dim: tuple[frozenset[Cell], ...] = field(repr=False)

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
        free_j = self.free_by_dim[j]
        return sum(
            1
            for delta in _offsets(_parity(e), 1, j - i)
            if tuple(map(add, e, delta)) in free_j
        )


def census(obj: DigitalObject) -> CellCensus:
    """Full per-dimension census with free/non-free classification.

    One pass over the closure of the object: for each dimension i, count how
    many of the object's voxels have each i-cell as a face. Those voxels are
    exactly the part of the cell's block inside the object, and the block
    holds 2^(n-i) voxels, so an i-cell is free iff its count is below
    2^(n-i). A voxel counts itself once (2^0), so n-cells are never free.
    """
    n = obj.n
    vox = obj.voxels
    cells_by_dim, free_by_dim = [], []
    for i in range(n + 1):
        deltas = _offsets((0,) * n, 0, n - i)
        counts = Counter(
            _mk(Cell, map(add, v, delta)) for v in vox for delta in deltas
        )
        full = 1 << (n - i)
        cells_by_dim.append(frozenset(counts))
        free_by_dim.append(frozenset(e for e, k in counts.items() if k < full))
    c = tuple(map(len, cells_by_dim))
    c_star = tuple(map(len, free_by_dim))
    return CellCensus(
        n=n,
        c=c,
        c_star=c_star,
        c_prime=tuple(a - b for a, b in zip(c, c_star)),
        cells_by_dim=tuple(cells_by_dim),
        free_by_dim=tuple(free_by_dim),
    )


def _census_of(obj: DigitalObject, cen: CellCensus | None) -> CellCensus:
    """``cen``, or the object's census if None; a census of another n is refused."""
    if cen is None:
        return census(obj)
    if cen.n != obj.n:
        raise ValueError(f"census of dimension {cen.n} given for a {obj.n}-object")
    return cen
