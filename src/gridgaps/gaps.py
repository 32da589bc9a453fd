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
coordinates at a time. Every cell is read once, at its lowest vertex, from
bit planes over all distinct masks at once (``_planes``), each plane
weighed by the masks' window counts: the cells of every dimension by one
superset fold of the planes, and each (n-2)-cell's 4-bit block trace from
the four planes that ``_block_traces`` names, its tag from ``_TRACE_TAG``.
``classification_histogram``, behind ``classify``, reads only the tags,
with neither the census counts nor the hubs. The hubs are decoded only for
a caller that lists them: ``count`` without ``--hubs`` prints their number,
the histogram's gap tandems.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from io import BytesIO
from itertools import chain, combinations, compress, repeat
from operator import add, and_, lshift, rshift, sub
from typing import Callable, Iterable, NamedTuple, Sequence

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

#: ``bytes.translate`` tables: ``_DIGIT[k]`` maps a byte to the ASCII digit
#: of its bit k, and ``_UNDIGIT`` an ASCII digit back to its bit
_DIGIT = tuple(bytes(b"01"[v >> k & 1] for v in range(256)) for k in range(8))
_UNDIGIT = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=None)
def _block_traces(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Each pair a < b of an (n-2)-cell's flat axes, with the window mask
    bit of each of its block's voxels, in trace bit order: trace bit
    2*ha + hb is the voxel on the + side (h = 1) or - side (h = 0) of axis
    a and b. The cell is read at its lowest vertex w, so it is +1 from w on
    every other axis, and so are its block voxels.
    """
    full = (1 << n) - 1
    return tuple(
        (a, b, tuple(full ^ 1 << a ^ 1 << b | ha << a | hb << b for ha in (0, 1) for hb in (0, 1)))
        for a, b in combinations(range(n), 2)
    )


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


def _planes(values: Sequence[int], bits: Iterable[int]) -> list[int]:
    """The plane of each bit k in ``bits``: an int whose bit j is bit k of
    ``values[j]``, so that one int operation acts on every value at once
    (SWAR: Lamport 1975, "Multiple byte processing with full-word
    instructions"). The values lie end to end in one ``bytes``, last first,
    each in the bytes up to the highest bit asked for, which must hold it,
    written one at a time so that no ``bytes`` per value stays alive. Each
    byte column a bit needs is cut out once by a strided slice; a plane is
    its column ``translate``d to ASCII digits and parsed in base 2, a
    linear parse that Python's limit on int string digits does not reach.
    """
    bits = list(bits)
    width = (max(bits, default=0) >> 3) + 1
    out = BytesIO()
    out.writelines(map(int.to_bytes, reversed(values), repeat(width), repeat("little")))
    buf = out.getvalue()
    del out
    columns = {j: buf[j::width] for j in {k >> 3 for k in bits}}
    del buf
    return [int(columns[k >> 3].translate(_DIGIT[k & 7]) or b"0", 2) for k in bits]


def _distinct_masks(windows: dict[int, int]) -> tuple[list[int], Callable[[int], int]]:
    """The distinct window masks, and the rule that weighs a plane over
    them by their window counts: bit j of slice t is bit t of mask j's
    count, so a plane's windows are the sum of its bits shared with slice
    t, shifted by t."""
    masks = Counter(windows.values())
    slices = _planes(list(masks.values()), range(max(masks.values(), default=0).bit_length()))
    return list(masks), lambda plane: sum((plane & s).bit_count() << t for t, s in enumerate(slices))


def _read_blocks(
    lanes: tuple[int, ...], order: list[int], planes: Sequence[int] | dict[int, int],
    weigh: Callable[[int], int], hubs: bool,
) -> tuple[dict[HubTag, int], dict[int, list[int]]]:
    """The (n-2)-cells' tag histogram and, if ``hubs``, the packed hub
    offsets at each mask, from the planes (indexed by window bit) over the
    distinct masks ``order``: each cell is read at its lowest vertex, a hub
    where ``_TRACE_TAG`` calls its trace a gap tandem.

    For a pair of flat axes, the plane of a trace is the AND of its four
    block voxels' planes, each complemented where the trace lacks that
    voxel; a tag's plane, the OR of its traces', is weighed by ``weigh``.
    The hubs at a mask are read off the tandem plane's binary digits.
    """
    histogram = dict.fromkeys(HubTag, 0)
    hub_offsets: dict[int, list[int]] = {}
    full = (1 << len(order)) - 1
    total = sum(lanes)
    for a, b, block in _block_traces(len(lanes)):
        p0, p1, p2, p3 = map(planes.__getitem__, block)
        q0, q1, q2, q3 = p0 ^ full, p1 ^ full, p2 ^ full, p3 ^ full
        low = (q0 & q1, p0 & q1, q0 & p1, p0 & p1)  # by trace bits 0 and 1
        high = (q2 & q3, p2 & q3, q2 & p3, p2 & p3)  # by trace bits 2 and 3
        tagged: dict[HubTag, int] = {}
        for trace, tag in enumerate(_TRACE_TAG):
            if tag:
                tagged[tag] = tagged.get(tag, 0) | low[trace & 3] & high[trace >> 2]
        for tag, plane in tagged.items():
            histogram[tag] += weigh(plane)
        if hubs:
            t = total - lanes[a] - lanes[b]
            digits = f"{tagged.get(HubTag.GAP_TANDEM, 0):0{len(order)}b}".encode()
            for mask in compress(reversed(order), digits.translate(_UNDIGIT)):
                hub_offsets.setdefault(mask, []).append(t)
    return histogram, hub_offsets


def classification_histogram(obj: DigitalObject) -> dict[HubTag, int]:
    """Tag counts over all (n-2)-cells of the object; totals to c_{n-2}.

    Read off the lattice vertices' window masks as ``count`` reads them,
    with no census and no per-cell block probe, from the planes of the
    traces' mask bits alone; the tests and the classification-totality
    identity compare it with ``classify_cell``, the independent route.
    """
    if obj.n < 2:
        raise ValueError("classification needs ambient dimension n >= 2")
    fmt, windows = _windows(obj)
    order, weigh = _distinct_masks(windows)
    del windows  # freed before the read, which may reuse its memory
    bits = {p for _, _, block in _block_traces(obj.n) for p in block}
    planes = dict(zip(bits, _planes(order, bits)))
    return _read_blocks(fmt.lanes, order, planes, weigh, hubs=False)[0]


class _WindowCounts(NamedTuple):
    """What one pass over vertex windows gives, each cell read once at its
    lowest vertex: the census counts, the tag histogram of the (n-2)-cells
    and their sorted hubs (neither below n = 2), or None for hubs not
    decoded. The formulas read it as a census."""

    n: int
    c: tuple[int, ...]
    c_star: tuple[int, ...]
    c_prime: tuple[int, ...]
    histogram: dict[HubTag, int]
    hubs: tuple[Cell, ...] | None

    @property
    def beta(self) -> tuple[int, ...]:
        return self.c_prime


def _window_counts(obj: DigitalObject, decode_hubs: bool = True) -> _WindowCounts:
    """c, c*, c', the (n-2)-cell tags and, if ``decode_hubs``, the hubs
    from one pass over vertex windows. The hubs number the histogram's gap
    tandems, so a caller that prints only their number need not decode them.

    Each cell is read once, at its lowest vertex w. The cell that extends
    from w on the axes S (bit k of S for axis k) has as its block the
    window bits that contain S: it is present where w's mask meets that
    block and covered (non-free) where the mask holds all of it. So one
    superset fold of the 2^n planes (Yates 1937), ORing each plane with the
    plane one axis up, gives the present cells' planes, and one ANDing
    gives the covered ones'; an i-cell's S has i bits. The tags and hubs
    are read as ``classification_histogram`` reads them.

    This is the route behind ``count``; ``verify`` compares it with the
    census and the two formulas, and confirms each hub with ``is_gap``.
    """
    n = obj.n
    fmt, windows = _windows(obj)
    order, weigh = _distinct_masks(windows)
    planes = _planes(order, range(1 << n))
    histogram, hub_offsets = _read_blocks(fmt.lanes, order, planes, weigh, hubs=decode_hubs)
    hubs = tuple(fmt.unpack(sorted(
        p + t
        for p, mask in windows.items()
        if mask in hub_offsets
        for t in hub_offsets[mask]
    ))) if decode_hubs else None
    del windows  # the fold reads only the planes
    present, covered = planes, planes[:]
    for k in range(n):
        for s in range(1 << n):
            if not s >> k & 1:
                present[s] |= present[s | 1 << k]
                covered[s] &= covered[s | 1 << k]
    c, c_prime = [0] * (n + 1), [0] * (n + 1)
    for s in range(1 << n):
        c[s.bit_count()] += weigh(present[s])
        c_prime[s.bit_count()] += weigh(covered[s])
    return _WindowCounts(n, tuple(c), tuple(map(sub, c, c_prime)), tuple(c_prime), histogram, hubs)
