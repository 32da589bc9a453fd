"""Gap detection and the five-way classification of (n-2)-cells.

An i-gap sits over an i-cell e when the object meets e's block in exactly two
voxels that are strictly i-adjacent and intersect precisely in e; e is the
gap's hub. A free (n-2)-cell that is not a hub is a nub.

The (n-2)-gap count is computed three independent ways: by the vertex-window
pass below, by the free-cell formula (n-1)*c*_{n-1} - c*_{n-2}, and by an
equivalent formula over total cell counts and contained blocks. They must
agree, and ``is_gap`` confirm each hub of the pass; a disagreement is an
engine bug. ``count_gaps_oracle`` inspects every i-cell, for the tests.

``classify_cell`` tags one (n-2)-cell by probing its block.

``_window_counts``, the route behind the ``count`` command, reads the census
counts and the (n-2)-hubs off the masks of the lattice vertices' 2^n-voxel
windows, with no census and no ``is_gap`` scan. ``_windows`` builds the
masks one axis at a time on vertices packed as ints (``_Packing``), axis 0
in the highest field, so that int order is cell order: the hubs are sorted
as ints and only then unpacked to cells, all at once, a column of
coordinates at a time. Each (n-2)-cell's 4-bit block trace,
one bit per block voxel present, sits in the mask of its lowest vertex:
one table (``_block_traces``) reads it off the mask and ``_TRACE_TAG``
names its tag. So the same masks give the tag histogram;
``classification_histogram``, behind ``classify``, reads only that, with
neither the census counts nor the hubs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations, compress, repeat
from operator import add, and_, lshift, or_, rshift, sub
from typing import Iterable, NamedTuple, Sequence

from .cells import (
    Cell,
    _mk,
    _offsets,
    _parity,
    adjacency,
    adjacent_voxels,
    block,
    cofaces,
    voxel_intersection,
)
from .objects import CellCensus, DigitalObject, _census_of


class HubTag(Enum):
    """The five possible voxel configurations around an (n-2)-cell."""

    SIMPLE = "simple"
    FACET_PAIR_BLOCK = "facet_pair_block"
    GAP_TANDEM = "gap_tandem"
    L_BLOCK = "l_block"
    FULL_BLOCK = "full_block"


@dataclass(frozen=True)
class HubClass:
    """Classification of one (n-2)-cell with its witness voxels."""

    tag: HubTag
    voxels: frozenset[Cell]


@dataclass(frozen=True)
class GapReport:
    """The i-gaps found by the scan: their hubs, sorted, and their count."""

    i: int
    hubs: tuple[Cell, ...]
    g: int


def _require_codim2(obj: DigitalObject, e: Cell) -> None:
    if obj.n < 2:
        raise ValueError("(n-2)-cells need ambient dimension n >= 2")
    if len(e) != obj.n:
        raise ValueError("cell and object ambient dimensions differ")
    if e.dim != obj.n - 2:
        raise ValueError(f"{e!r} is not an (n-2)-cell (dim {e.dim}, n {obj.n})")


def classify_cell(obj: DigitalObject, e: Cell) -> HubClass:
    """Which of the five configurations the object realizes around e.

    The block of an (n-2)-cell holds four voxels arranged in a 2x2 square
    across e's two flat axes; the object's trace on it is, exhaustively: one
    voxel, a facet-adjacent pair, the diagonal pair meeting in e (a gap
    tandem), three voxels in an L, or the full block (e non-free).
    """
    _require_codim2(obj, e)
    present = sorted(v for v in block(e) if v in obj.voxels)
    k = len(present)
    if k == 0:
        raise ValueError(f"{e!r} is not a cell of the object")
    if k == 1:
        tag = HubTag.SIMPLE
    elif k == 2:
        shared = voxel_intersection(present[0], present[1])
        if shared is not None and shared.dim == obj.n - 1:
            tag = HubTag.FACET_PAIR_BLOCK
        else:
            # the diagonal pair of the block meets exactly in e
            tag = HubTag.GAP_TANDEM
    elif k == 3:
        tag = HubTag.L_BLOCK
    else:
        tag = HubTag.FULL_BLOCK
    return HubClass(tag, frozenset(present))


def is_gap(obj: DigitalObject, e: Cell, i: int) -> bool:
    """Direct block inspection: the object meets e's block in a tandem.

    Defined for 0 <= i <= n-2. A tandem is exactly two strictly i-adjacent
    voxels whose intersection is e itself. Two block voxels, at steps d1
    and d2 from e, meet in e exactly when they are opposite (d1 = -d2), so
    that e is their midpoint; any other pair agrees on a flat axis of e, so
    their intersection extends along it.
    """
    n = obj.n
    if not 0 <= i <= n - 2:
        raise ValueError(f"gap dimension {i} outside [0, {n - 2}]")
    parity = _parity(e)
    if len(e) != n or n - sum(parity) != i:
        raise ValueError(f"{e!r} is not an {i}-cell of the {n}-lattice")
    vox = obj.voxels
    # the steps to e's block voxels that are present, probed as plain tuples
    # (a tuple equal to a voxel hashes and compares as that voxel)
    hit = [d for d in _offsets(parity, 1, n - i) if tuple(map(add, e, d)) in vox]
    return len(hit) == 2 and not any(map(add, *hit))


def is_gap_by_adjacency(obj: DigitalObject, e: Cell) -> bool:
    """Adjacency-condition detector for (n-2)-gaps.

    True iff two voxels of the object bounded by e are strictly
    (n-2)-adjacent while no voxel of the object is facet-adjacent to both.
    Agrees with ``is_gap(obj, e, n-2)`` on every input, by a different
    computation route.
    """
    _require_codim2(obj, e)
    n = obj.n
    members = [v for v in cofaces(e, n) if v in obj.voxels]
    for v1, v2 in combinations(members, 2):
        if adjacency(v1, v2).adjacent_at != n - 2:
            continue
        common = adjacent_voxels(v1, n - 1) & adjacent_voxels(v2, n - 1)
        if any(u in obj.voxels for u in common):
            continue
        return True
    return False


def count_gaps_oracle(
    obj: DigitalObject, i: int, cen: CellCensus | None = None
) -> GapReport:
    """Scan every i-cell of the object and collect the gap hubs.

    This is the reference counter: it works for every i in [0, n-2], the
    dimensions below n-2 having no known closed form; the tests compare
    the other routes with it, and ``verify`` does not call it. Nothing is
    kept between calls. The scan covers all i-cells, free or not, so its
    count never relies on the census's freeness; only the i-cells are read
    from ``cen``.
    """
    n = obj.n
    if not 0 <= i <= n - 2:
        raise ValueError(f"gap dimension {i} outside [0, {n - 2}]")
    cells = _census_of(obj, cen).cells_by_dim[i]
    hubs = tuple(sorted(compress(cells, map(is_gap, repeat(obj), cells, repeat(i)))))
    return GapReport(i=i, hubs=hubs, g=len(hubs))


def count_gaps_formula(
    obj: DigitalObject, cen: CellCensus | _WindowCounts | None = None
) -> int:
    """(n-2)-gap count from free-cell totals: (n-1)*c*_{n-1} - c*_{n-2}.

    Only the counts are read, so the window pass's counts serve as ``cen``.
    """
    n = obj.n
    if n < 2:
        raise ValueError("gap formulas need ambient dimension n >= 2")
    cen = _census_of(obj, cen)
    return (n - 1) * cen.c_star[n - 1] - cen.c_star[n - 2]


def count_gaps_block_formula(
    obj: DigitalObject, cen: CellCensus | _WindowCounts | None = None
) -> int:
    """(n-2)-gap count from total cell counts and contained blocks.

    Evaluates -2n(n-1)c_n + 2(n-1)c_{n-1} - c_{n-2} + beta_{n-2}, with
    beta_{n-2} the number of (n-2)-blocks inside the object, i.e. c'_{n-2}.
    As in ``count_gaps_formula``, the window pass's counts serve as ``cen``.
    """
    n = obj.n
    if n < 2:
        raise ValueError("gap formulas need ambient dimension n >= 2")
    cen = _census_of(obj, cen)
    return (
        -2 * n * (n - 1) * cen.c[n]
        + 2 * (n - 1) * cen.c[n - 1]
        - cen.c[n - 2]
        + cen.beta[n - 2]
    )


def hub_nub_partition(
    obj: DigitalObject, cen: CellCensus | None = None
) -> tuple[frozenset[Cell], frozenset[Cell]]:
    """Split the free (n-2)-cells into gap hubs and nubs."""
    n = obj.n
    if n < 2:
        raise ValueError("hub/nub partition needs ambient dimension n >= 2")
    cen = _census_of(obj, cen)
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    return hubs, cen.free_by_dim[n - 2] - hubs


#: tag of each block trace, a 4-bit mask with one bit per block voxel
#: present: bit 2*ha + hb for the voxel on the + side (h = 1) or the - side
#: (h = 0) of the cell's first and second flat axis. The bit count is the
#: arity, and the diagonal pairs 0b0110 and 0b1001 are the gap tandems.
_TRACE_TAG = tuple(
    HubTag.GAP_TANDEM
    if mask in (0b0110, 0b1001)
    else (None, HubTag.SIMPLE, HubTag.FACET_PAIR_BLOCK, HubTag.L_BLOCK,
          HubTag.FULL_BLOCK)[bin(mask).count("1")]
    for mask in range(16)
)


@lru_cache(maxsize=None)
def _block_traces(lanes: tuple[int, ...]) -> tuple[tuple[int, int, dict[int, int]], ...]:
    """Each (n-2)-cell at its lowest vertex w, one per pair a < b of flat
    axes: its offset from w (+1 on every other axis) packed with ``lanes``,
    its block's window mask bits, and the 4-bit trace (``_TRACE_TAG``'s
    index) of each way those bits can be set. Trace bit 2*ha + hb is the
    block voxel's on the + side (h = 1) or - side (h = 0) of axis a and b.
    """
    n = len(lanes)
    full = (1 << n) - 1
    out = []
    for a, b in combinations(range(n), 2):
        t = sum(lanes) - lanes[a] - lanes[b]
        base = full ^ (1 << a) ^ (1 << b)
        block = [1 << (base | ha << a | hb << b) for ha in (0, 1) for hb in (0, 1)]
        traces = {
            sum(bit for j, bit in enumerate(block) if trace >> j & 1): trace
            for trace in range(16)
        }
        out.append((t, sum(block), traces))
    return tuple(out)


class _Packing:
    """The packed format of one set of cells, for the vertex windows: axis
    k of an n-cell is stored in bits [w*(n-1-k), w*(n-k)) as x_k - lo + 2,
    for one origin lo and one field width w. With lo and hi the least and
    greatest coordinate in the set and w the bit length of hi - lo + 4,
    every field of a listed cell lies in [2, hi - lo + 2], so a step of up
    to +-2 on any axes stays in [0, 2^w): one int add, never carrying into
    a neighbouring field, and still exact at +-2^60. Axis 0 takes the
    highest field, so packed ints sort as their cells do: a sorted list of
    ints unpacks to sorted cells. ``lanes`` holds the weight of each axis,
    so a step d packs as the sum of d_k * lanes[k].

    Cells are packed and unpacked in bulk, one column of coordinates at a
    time, with ``map`` over C-level operators."""

    __slots__ = ("lanes", "_w", "_off", "_base")

    def __init__(self, n: int, lo: int, w: int) -> None:
        self._w = w
        self._off = lo - 2  # field k holds x_k - off
        self.lanes = tuple(1 << w * k for k in reversed(range(n)))
        self._base = self._off * sum(self.lanes)

    @classmethod
    def spanning(cls, n: int, cells: Iterable[Cell]) -> _Packing:
        """The format that fits every coordinate of the cells and 2 steps
        beyond it (origin 0 with no cells). Each coordinate is read once,
        into the set of distinct values."""
        coords = set(chain.from_iterable(cells)) or {0}
        lo = min(coords)
        return cls(n, lo, (max(coords) - lo + 4).bit_length())

    def pack(self, cells: Iterable[Cell]) -> list[int]:
        """Each cell packed, in order: the columns of coordinates folded by
        Horner's rule, field by field from axis 0 down, less the origin's
        offset in every field."""
        columns = zip(*cells)
        packed = next(columns, None)
        if packed is None:  # no cells give no columns to fold
            return []
        w = self._w
        for column in columns:
            packed = map(add, map(lshift, packed, repeat(w)), column)
        return list(map(sub, packed, repeat(self._base)))

    def unpack(self, packed: Sequence[int]) -> list[Cell]:
        """The cell of each packed int, in order, read a field at a time."""
        field, off, w = (1 << self._w) - 1, self._off, self._w
        columns = [
            map(add, map(and_, map(rshift, packed, repeat(w * k)), repeat(field)), repeat(off))
            for k in reversed(range(len(self.lanes)))
        ]
        return list(map(_mk, repeat(Cell), zip(*columns)))


def _windows(obj: DigitalObject) -> tuple[_Packing, dict[int, int]]:
    """The format spanning the voxels, and the window mask of every lattice
    vertex that touches the object, keyed by the vertex packed in it.

    The window of a vertex w (all doubled coordinates odd) is its 2^n voxels
    w + s, s in {-1, 1}^n, and its mask has bit sum((s_k > 0) << k) set for
    each one in the object; every cell incident to w has its block inside
    it. A 2x...x2 box splits into one-axis steps, so each voxel starts as
    mask 1 at its own point, and at axis k each partial mask m at p goes to
    p + lane_k as m and to p - lane_k as ``m << 2^k`` (the + side).
    """
    fmt = _Packing.spanning(obj.n, obj.voxels)
    windows = dict.fromkeys(fmt.pack(obj.voxels), 1)
    for k, lane in enumerate(fmt.lanes):
        shift = 1 << k
        folded = {p + lane: m for p, m in windows.items()}
        get = folded.get
        for p, m in windows.items():
            q = p - lane
            folded[q] = get(q, 0) | m << shift
        windows = folded
    return fmt, windows


def _read_blocks(
    lanes: tuple[int, ...], masks: Counter[int]
) -> tuple[dict[HubTag, int], dict[int, list[int]]]:
    """The (n-2)-cells' tag histogram and the packed hub offsets at each
    mask, from the windows per distinct mask: each cell is read at its
    lowest vertex, a hub where ``_TRACE_TAG`` calls its trace a gap tandem.

    Traces are tallied by index and tagged once at the end, since hashing a
    ``HubTag`` per window costs a Python call.
    """
    tallies = [0] * 16  # windows per trace; trace 0 is no cell
    hub_offsets: dict[int, list[int]] = {}
    table = _block_traces(lanes)
    tandem = HubTag.GAP_TANDEM
    for mask, count in masks.items():
        for t, block_bits, traces in table:
            trace = traces[mask & block_bits]
            tallies[trace] += count
            if _TRACE_TAG[trace] is tandem:
                hub_offsets.setdefault(mask, []).append(t)
    hist = {tag: 0 for tag in HubTag}
    for trace in range(1, 16):
        hist[_TRACE_TAG[trace]] += tallies[trace]
    return hist, hub_offsets


def classification_histogram(obj: DigitalObject) -> dict[HubTag, int]:
    """Tag counts over all (n-2)-cells of the object; totals to c_{n-2}.

    Read off the lattice vertices' window masks, as ``count`` reads its
    hubs, with no census and no per-cell block probe: each (n-2)-cell's
    4-bit block trace sits in the mask of its lowest vertex, and
    ``_TRACE_TAG`` names its tag. ``classify_cell`` is the independent
    per-cell route that the tests and the classification-totality identity
    compare this against.
    """
    if obj.n < 2:
        raise ValueError("classification needs ambient dimension n >= 2")
    fmt, windows = _windows(obj)
    return _read_blocks(fmt.lanes, Counter(windows.values()))[0]


class _WindowCounts(NamedTuple):
    """What one pass over vertex windows gives: the census counts, the tag
    histogram of the (n-2)-cells and their sorted hubs (neither below
    n = 2). The formulas read it as a census."""

    n: int
    c: tuple[int, ...]
    c_star: tuple[int, ...]
    c_prime: tuple[int, ...]
    histogram: dict[HubTag, int]
    hubs: tuple[Cell, ...]

    @property
    def beta(self) -> tuple[int, ...]:
        return self.c_prime


def _window_counts(obj: DigitalObject) -> _WindowCounts:
    """c, c*, c', the (n-2)-cell tags and hubs from one pass over vertex
    windows.

    A cell incident to a vertex is present when the vertex's mask meets the
    cell's block, and non-free when the mask covers it. Halving a mask along
    its top axis gives two masks one axis down: each half holds the blocks
    of the cells that extend along that axis (one dimension up), their union
    the blocks of the flat cells present and their intersection those of the
    flat cells covered. The pass halves the histogram of distinct masks down
    to single voxels, so each distinct sub-mask is read once per dimension.
    An i-cell is seen from its 2^i vertices, so each per-dimension sum is
    divided by 2^i. The (n-2)-cells' tags and hubs are read as
    ``classification_histogram`` reads them.

    This is the route behind ``count``; ``verify`` compares it with the
    census and the two formulas, and confirms each hub with ``is_gap``.
    """
    n = obj.n
    fmt, windows = _windows(obj)
    masks = Counter(windows.values())
    histogram, hub_offsets = _read_blocks(fmt.lanes, masks)
    hubs = fmt.unpack(sorted(
        p + t
        for p, mask in windows.items()
        if mask in hub_offsets
        for t in hub_offsets[mask]
    ))
    del windows  # the halving reads only the distinct masks
    sums = []
    for flat in (or_, and_):  # present cells, then covered ones
        hists = [masks]  # hists[j]: windows per mask, for cells j dimensions up
        for k in range(n, 0, -1):
            half = 1 << (k - 1)
            low = (1 << half) - 1
            halved: list[dict[int, int]] = [{} for _ in range(len(hists) + 1)]
            for here, up, hist in zip(halved, halved[1:], hists):
                for mask, count in hist.items():
                    lo, hi = mask & low, mask >> half
                    m = flat(lo, hi)
                    here[m] = here.get(m, 0) + count
                    up[lo] = up.get(lo, 0) + count
                    up[hi] = up.get(hi, 0) + count
            hists = halved
        sums.append(tuple(hist.get(1, 0) >> i for i, hist in enumerate(hists)))
    c, c_prime = sums
    return _WindowCounts(
        n, c, tuple(map(sub, c, c_prime)), c_prime, histogram, tuple(hubs)
    )
