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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, repeat
from operator import add
from typing import Iterable, Iterator, NamedTuple

from .cells import Cell, _mk, _Packing, _packed_steps, _require_voxel, voxel


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
    ``cells_by_dim[i]`` and ``free_by_dim[i]`` are the i-cells and the free
    ones; :func:`census` decodes each from packed ints when it is first read.
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
        view = self._packed
        return view.b((view.fmt.pack(e),), i, j)

    @cached_property
    def _packed(self) -> _PackedCensus:
        """The census packed as ints, for probes that step from a cell to
        its faces, cofaces or block, or from a voxel to its neighbours.

        :func:`census` builds this view as it counts. Any other census, such
        as a ``dataclasses.replace`` copy, packs its own cell sets here: the
        format spans every cell listed, free or not, so a doctored census is
        probed as given. The view holds nothing of the census, so no
        reference cycle keeps a census alive.
        """
        n, listed = self.n, self.cells_by_dim
        unlisted = [f - cells for f, cells in zip(self.free_by_dim, listed)]
        fmt = _Packing.spanning(n, [*listed, *unlisted])
        free = tuple(tuple(map(fmt.pack, cells)) for cells in self.free_by_dim)
        codim2 = tuple(map(fmt.pack, listed[n - 2])) if n >= 2 else ()
        return _PackedCensus(
            fmt, free, tuple(map(frozenset, free)), codim2, frozenset(map(fmt.pack, listed[n]))
        )

    @cached_property
    def _blocks(self) -> list[tuple[int, ...]]:
        """``_PackedCensus.blocks`` of this census's view, built once and
        freed with the census: detector-equivalence and
        classification-totality both read it."""
        return self._packed.blocks()


class _PackedCensus(NamedTuple):
    """A census's cells packed in one format (``cells._Packing``): the free
    cells per dimension as a tuple and as a set, the (n-2)-cells (none
    below n = 2) and the set of voxels. The tuples follow no set order:
    :func:`census` lists cells in the order it counts them, which takes
    each dimension one parity class at a time.

    Every field of a packed cell reaches 2 steps past the span, so a +-1
    step from any cell and a +-2 step from any voxel fit.
    """

    fmt: _Packing
    free: tuple[tuple[int, ...], ...]
    free_sets: tuple[frozenset[int], ...]
    codim2: tuple[int, ...]
    voxels: frozenset[int]

    def b(self, cells: Iterable[int], i: int, j: int) -> int:
        """b_j summed over the packed i-cells: the free j-cells each bounds.
        Only ``CellCensus.b_boundary`` calls it; border-sum counts the same
        sum from the free j-cells' side."""
        free_j, steps = self.free_sets[j], self.fmt.steps
        return sum(p + d in free_j for p in cells for d in steps(p, 1, j - i))

    def classes(self, cells: Iterable[int]) -> Iterator[list[int]]:
        """The packed cells split into runs of one parity class, in the
        order given. The cells of a run are odd on the same axes, so the
        steps ``fmt.steps`` gives for any one of them serve the whole run.
        :func:`census` lists the cells of each dimension class by class, so
        each of its lists splits into one run per class."""
        return (list(run) for _, run in groupby(cells, self.fmt._mask.__and__))

    def b_each(self, cells: Iterable[int], i: int, j: int) -> list[int]:
        """b_j of each packed i-cell, in order: the free j-cells it bounds,
        counted a parity class and a step at a time."""
        free_j, steps = self.free_sets[j], self.fmt.steps
        out: list[int] = []
        for run in self.classes(cells):
            counts = [0] * len(run)
            for d in steps(run[0], 1, j - i):
                counts = list(map(add, counts, map(free_j.__contains__, map(d.__add__, run))))
            out += counts
        return out

    def blocks(self) -> list[tuple[int, ...]]:
        """The voxels present in the block of each (n-2)-cell, in
        ``codim2`` order, each block in ``fmt.steps`` order; a parity class
        steps to its blocks together."""
        # a block holds the voxel set's own ints, not fresh sums, so the
        # lists cost little more than their tuples; an absent voxel reads
        # None, as does a first column that gives each listed cell a row
        # even with fewer than two flat axes; a voxel's int is never 0
        own, fmt = {v: v for v in self.voxels}.get, self.fmt
        out: list[tuple[int, ...]] = []
        for run in self.classes(self.codim2):
            cols = [map(own, map(d.__add__, run)) for d in fmt.steps(run[0], 1, 2)]
            out += map(tuple, map(filter, repeat(None), zip(repeat(None, len(run)), *cols)))
        return out


class _Unpacked(Sequence):
    """Cell sets per dimension, held as packed ints and each decoded to a
    ``frozenset[Cell]`` the first time it is read, one axis at a time
    (``_Packing.unpack_all``), then kept.

    It compares equal to the tuple of those frozensets.
    """

    __slots__ = ("_unpack_all", "_packed", "_sets")

    def __init__(self, fmt: _Packing, packed: Sequence[Sequence[int]]) -> None:
        self._unpack_all = fmt.unpack_all
        self._packed = packed
        self._sets: list[frozenset[Cell] | None] = [None] * len(packed)

    def __len__(self) -> int:
        return len(self._packed)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        cells = self._sets[i]
        if cells is None:
            cells = self._sets[i] = frozenset(self._unpack_all(self._packed[i]))
        return cells

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _Unpacked)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def census(obj: DigitalObject) -> CellCensus:
    """Full per-dimension census with free/non-free classification.

    One pass over the closure of the object: for each dimension i, count how
    many of the object's voxels have each i-cell as a face. Those voxels are
    exactly the part of the cell's block inside the object, and the block
    holds 2^(n-i) voxels, so an i-cell is free iff its count is below
    2^(n-i). A voxel counts itself once (2^0), so n-cells are never free.

    The pass runs on the voxels packed as ints, in the format that packing
    the census's cells gives (one step past the voxels on each side), and
    that packed view becomes the census's ``_packed``. The cell sets are
    decoded to tuples only when read.
    """
    n, vox = obj.n, obj.voxels
    lo, hi = (min(map(min, vox)) - 1, max(map(max, vox)) + 1) if vox else (0, 0)
    fmt = _Packing.over(n, lo, hi)
    voxels = tuple(map(fmt.pack, vox))
    cells, free = [], []
    for i in range(n + 1):
        counts = Counter()
        # a voxel extends along every axis (parity 0): its i-faces are the
        # +-1 steps along n - i of them
        for d in _packed_steps(n, fmt.w, 0, 0, n - i):
            counts.update(map(d.__add__, voxels))
        full = 1 << (n - i)
        cells.append(tuple(counts))
        free.append(tuple(p for p, k in counts.items() if k < full))
    c = tuple(map(len, cells))
    c_star = tuple(map(len, free))
    cen = CellCensus(
        n=n,
        c=c,
        c_star=c_star,
        c_prime=tuple(a - b for a, b in zip(c, c_star)),
        cells_by_dim=_Unpacked(fmt, cells),
        free_by_dim=_Unpacked(fmt, free),
    )
    codim2 = cells[n - 2] if n >= 2 else ()
    # seeded where cached_property looks first, not held in a field, so a
    # dataclasses.replace copy packs its own cell sets
    vars(cen)["_packed"] = _PackedCensus(
        fmt, tuple(free), tuple(map(frozenset, free)), codim2, frozenset(voxels)
    )
    return cen


def _census_of(obj: DigitalObject, cen: CellCensus | None) -> CellCensus:
    """``cen``, or the object's census if None; a census of another n is refused."""
    if cen is None:
        return census(obj)
    if cen.n != obj.n:
        raise ValueError(f"census of dimension {cen.n} given for a {obj.n}-object")
    return cen
