"""Gap detection and the five-way classification of (n-2)-cells.

An i-gap sits over an i-cell e when the object meets e's block in exactly two
voxels that are strictly i-adjacent and intersect precisely in e; e is the
gap's hub. A free (n-2)-cell that is not a hub is a nub.

The (n-2)-gap count is computed three independent ways: by direct inspection
of every (n-2)-cell, by the free-cell formula (n-1)*c*_{n-1} - c*_{n-2}, and
by an equivalent formula over total cell counts and contained blocks. The
three must agree on every object; a disagreement is an engine bug, never
valid output.

``classify_cell`` tags one (n-2)-cell by probing its block.
``classification_histogram`` counts the tags of all of them without a
census: one pass over the voxels' (n-2)-faces builds each cell's 4-bit
block trace, one bit per block voxel present, and a 15-entry table maps
each trace to its tag.

``_window_counts``, the route behind the ``count`` command, reads the census
counts and the (n-2)-hubs off the masks of the lattice vertices' 2^n-voxel
windows, with no census and no ``is_gap`` scan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, product
from operator import add, and_, or_, sub
from typing import NamedTuple

from .cells import (
    Cell,
    _corner_bits,
    _mk,
    _offsets,
    _window_codim2,
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
    voxels whose intersection is e itself.
    """
    n = obj.n
    if not 0 <= i <= n - 2:
        raise ValueError(f"gap dimension {i} outside [0, {n - 2}]")
    if len(e) != n or e.dim != i:
        raise ValueError(f"{e!r} is not an {i}-cell of the {n}-lattice")
    present = [v for v in block(e) if v in obj.voxels]
    if len(present) != 2:
        return False
    return voxel_intersection(present[0], present[1]) == e


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


@lru_cache(maxsize=1)
def _scan(obj: DigitalObject, i: int, cells: frozenset[Cell]) -> tuple[Cell, ...]:
    return tuple(sorted(e for e in cells if is_gap(obj, e, i)))


def count_gaps_oracle(
    obj: DigitalObject, i: int, cen: CellCensus | None = None
) -> GapReport:
    """Scan every i-cell of the object and collect the gap hubs.

    This is the reference counter: it works for every i in [0, n-2], the
    dimensions below n-2 having no known closed form. It is the one loop
    over ``is_gap``; everything else that needs the hubs takes them from
    here. The scan covers all i-cells, free or not, so its count never
    relies on the census's freeness; only the i-cells are read from ``cen``.

    The most recent object's scan is kept, keyed by what it reads (the
    object, i and the census's i-cells), so the identities and the hub/nub
    partition on one object share one scan; ``lru_cache`` is thread-safe.
    """
    n = obj.n
    if not 0 <= i <= n - 2:
        raise ValueError(f"gap dimension {i} outside [0, {n - 2}]")
    hubs = _scan(obj, i, _census_of(obj, cen).cells_by_dim[i])
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
def _face_corners(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each (n-2)-face offset d of a voxel v, with v's bit in the trace of
    the block of v + d: v sits on the - side of that block along an axis
    where d steps +1, and on the + side where d steps -1.
    """
    out = []
    for d in _offsets((0,) * n, 0, 2):
        sa, sb = (s for s in d if s)
        out.append((d, 1 << (2 * (sa < 0) + (sb < 0))))
    return tuple(out)


def classification_histogram(obj: DigitalObject) -> dict[HubTag, int]:
    """Tag counts over all (n-2)-cells of the object; totals to c_{n-2}.

    One pass over the (n-2)-faces of every voxel, with no census and no
    per-cell block probe: each voxel sets its corner's bit in the 4-bit
    trace of that face's 2x2 block, and each trace names its tag (the bit
    count is the arity; 0b0110 and 0b1001 are the diagonal pairs, the gap
    tandems). ``classify_cell`` is the independent per-cell route that the
    tests and the classification-totality identity compare this against.
    """
    n = obj.n
    if n < 2:
        raise ValueError("classification needs ambient dimension n >= 2")
    corners = _face_corners(n)
    masks: dict[Cell, int] = {}
    get = masks.get
    for v in obj.voxels:
        for d, bit in corners:
            e = _mk(Cell, map(add, v, d))
            masks[e] = get(e, 0) | bit
    hist = {tag: 0 for tag in HubTag}
    for mask, k in Counter(masks.values()).items():
        hist[_TRACE_TAG[mask]] += k
    return hist


class _WindowCounts(NamedTuple):
    """What one pass over vertex windows gives: the census counts and the
    sorted (n-2)-hubs (none below n = 2). The formulas read it as a census."""

    n: int
    c: tuple[int, ...]
    c_star: tuple[int, ...]
    c_prime: tuple[int, ...]
    hubs: tuple[Cell, ...]

    @property
    def beta(self) -> tuple[int, ...]:
        return self.c_prime


def _window_counts(obj: DigitalObject) -> _WindowCounts:
    """c, c*, c' and the (n-2)-hubs from one pass over vertex windows.

    Each voxel sets its bit in the window mask of each of its 2^n corner
    vertices. A cell incident to a vertex is present when the vertex's mask
    meets the cell's block, and non-free when the mask covers it. Halving a
    mask along its top axis gives two masks one axis down: each half holds
    the blocks of the cells that extend along that axis (one dimension up),
    their union the blocks of the flat cells present and their intersection
    those of the flat cells covered. The pass halves the histogram of
    distinct masks down to single voxels, so each distinct sub-mask is read
    once per dimension. An i-cell is seen from its 2^i vertices, so each
    per-dimension sum is divided by 2^i.

    Each (n-2)-cell is read once, at its lowest vertex, where its 4-bit
    block trace is a hub exactly when ``_TRACE_TAG`` calls it a gap tandem.
    This is the route behind ``count``; ``census`` and ``count_gaps_oracle``
    are the references ``verify`` compares it with.
    """
    n = obj.n
    windows: dict[tuple[int, ...], int] = {}
    get = windows.get
    bits = _corner_bits(n)
    for v in obj.voxels:
        for w, bit in zip(product(*[(x - 1, x + 1) for x in v]), bits):
            windows[w] = get(w, 0) | bit
    masks = Counter(windows.values())
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
    # per axis pair: the block's window bits, and the gap-tandem traces
    # written in those bits
    tandems = [trace for trace, tag in enumerate(_TRACE_TAG) if tag is HubTag.GAP_TANDEM]
    pairs = []
    for t, block in _window_codim2(n):
        spread = [sum(b for j, b in enumerate(block) if trace >> j & 1) for trace in range(16)]
        pairs.append((t, spread[15], {spread[trace] for trace in tandems}))
    hub_offsets: dict[int, list[tuple[int, ...]]] = {}
    for mask in masks:
        for t, block_bits, hub_bits in pairs:
            if mask & block_bits in hub_bits:
                hub_offsets.setdefault(mask, []).append(t)
    hubs = sorted(
        _mk(Cell, map(add, w, t))
        for w, mask in windows.items()
        if mask in hub_offsets
        for t in hub_offsets[mask]
    )
    return _WindowCounts(n, c, tuple(map(sub, c, c_prime)), c_prime, tuple(hubs))
