"""The object-level identities the engine guarantees, run as checks.

Every identity compares two independent computation routes (a closed form
against an enumeration, or two detectors against each other), so a failure
always means an engine bug or a corrupted census, never a property of the
input. ``check_object`` accepts an externally supplied census precisely so
callers can verify that a corrupted census is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations
from typing import Callable

from .counting import c_bounding
from .gaps import (
    HubTag,
    _window_counts,
    count_gaps_block_formula,
    count_gaps_formula,
    count_gaps_oracle,
)
# census stays bound here: perfbench's tracer wraps it and checks it is restored
from .objects import CellCensus, DigitalObject, _census_of, census  # noqa: F401

#: five identities check against the vertex-window pass, so the most
#: recent object's pass is kept for the later ones; ``count`` and
#: ``classify`` call the pass in ``gaps`` directly and keep nothing
_window_counts = lru_cache(maxsize=1)(_window_counts)
#: the tag of a block with 1, 3 or 4 voxels present; a pair is told apart
#: by its difference
_COUNT_TAG = {1: HubTag.SIMPLE, 3: HubTag.L_BLOCK, 4: HubTag.FULL_BLOCK}


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


@_identity("census-partition")
def census_partition(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """c_i = c*_i + c'_i for every dimension, and the vertex-window pass
    behind ``count`` finds the same c, c* and c' as the census."""
    for i in range(obj.n + 1):
        if cen.c[i] != cen.c_star[i] + cen.c_prime[i]:
            return obj.n + 1, f"dim {i}: c={cen.c[i]} c*={cen.c_star[i]} c'={cen.c_prime[i]}"
    win = _window_counts(obj)
    for name, got, want in (
        ("c", win.c, cen.c),
        ("c*", win.c_star, cen.c_star),
        ("c'", win.c_prime, cen.c_prime),
    ):
        if got != want:
            return obj.n + 1, f"window {name}={list(got)} but census {name}={list(want)}"
    return obj.n + 1, None


@_identity("facet-count")
def facet_count(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """c_{n-1} = 2n * c_n - c'_{n-1}."""
    n = obj.n
    lhs = cen.c[n - 1]
    rhs = 2 * n * cen.c[n] - cen.c_prime[n - 1]
    if lhs != rhs:
        return 1, f"c_(n-1)={lhs} but 2n*c_n - c'_(n-1)={rhs}"
    return 1, None


def _window_hubs(obj: DigitalObject, cen: CellCensus) -> frozenset[int]:
    """The vertex-window pass's (n-2)-hubs, packed in the census's view.

    A hub outside the view's format is dropped: its int would be another
    cell's, and the census lists no such hub anyway."""
    hubs, fmt = _window_counts(obj).hubs, cen._packed.fmt
    return frozenset(p for e, p in zip(hubs, map(fmt.pack, hubs)) if fmt.unpack(p) == e)


@_identity("border-sum")
def border_sum(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """sum of b_j(e) over the i-border equals c_bounding(i,j) * c*_j.

    The sum counts the pairs (e, f) of a free i-cell e and a free j-cell f
    with f - e = +-1 on exactly j - i axes, and it is counted from the j
    side: 2^(j-i) C(j, i) face steps per free j-cell, against
    2^(j-i) C(n-i, j-i) coface steps per free i-cell from the i side. On
    random objects that is half the probes at n = 4 and a sixth at n = 8.
    Either side counts the same pairs, whatever dimension a listed cell
    has: on the j - i axes where e and f differ, e is flat exactly where f
    extends, so e is flat on all of them (a coface step from e) just when
    f extends on all of them (a face step from f). Each parity class of
    the free j-cells is stepped at once on the census's packed view.
    """
    view = cen._packed
    steps = view.fmt.steps
    checked = 0
    for j in range(1, obj.n):
        runs = list(view.classes(view.free[j]))
        for i in range(j):
            checked += 1
            has = view.free_sets[i].__contains__
            lhs = sum(
                sum(map(has, map(d.__add__, run))) for run in runs for d in steps(run[0], 0, j - i)
            )
            rhs = c_bounding(i, j) * cen.c_star[j]
            if lhs != rhs:
                return checked, f"(i={i}, j={j}): sum={lhs} formula={rhs}"
    return checked, None


@_identity("hub-nub-degree", codim2=True)
def hub_nub_degree(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Every free (n-2)-cell bounds 4 free facets if a window hub, else 2."""
    n = obj.n
    view = cen._packed
    hubs = _window_hubs(obj, cen)
    free = view.free[n - 2]
    degrees = view.b_each(free, n - 2, n - 1)
    for checked, (p, got) in enumerate(zip(free, degrees), 1):
        expected = 4 if p in hubs else 2
        if got != expected:
            return checked, f"cell={tuple(view.fmt.unpack(p))}: b_(n-1)={got}, expected {expected}"
    return len(free), None


@_identity("gap-triple-agreement", codim2=True)
def gap_triple_agreement(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Direct scan, free-cell formula and block formula count the same gaps,
    and the vertex-window pass behind ``count`` finds the scan's hubs. This
    is the one identity that runs the ``is_gap`` scan; a listed cell it
    refuses is this identity's failure."""
    try:
        scan = count_gaps_oracle(obj, obj.n - 2, cen).hubs
    except ValueError as err:
        return 1, str(err)
    g = len(scan)
    formula = count_gaps_formula(obj, cen)
    block_formula = count_gaps_block_formula(obj, cen)
    if not g == formula == block_formula:
        return 1, f"scan={g} formula={formula} block-formula={block_formula}"
    hubs = _window_counts(obj).hubs
    if hubs != scan:
        win_only, scan_only = (
            sorted(map(tuple, set(a) - set(b)))[:3] for a, b in ((hubs, scan), (scan, hubs))
        )
        return 1, f"window hubs={len(hubs)} scan={g}; only window {win_only} only scan {scan_only}"
    return 1, None


@_identity("detector-equivalence", codim2=True)
def detector_equivalence(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Block inspection and the adjacency conditions find the same hubs.

    The adjacency conditions of ``is_gap_by_adjacency`` are tested on the
    census's packed view and block lists: two voxels of e's block are
    strictly (n-2)-adjacent, and no voxel is facet-adjacent to both. The
    block lists are data shared with classification-totality; the hubs
    compared with are the vertex-window pass's, which reads no census.
    """
    view = cen._packed
    hubs = _window_hubs(obj, cen)
    vox = view.voxels
    facet, diagonal = view.fmt.voxel_steps()
    for checked, (p, present) in enumerate(zip(view.codim2, cen._blocks), 1):
        gap = any(
            v2 - v1 in diagonal
            and not any(v1 + f in vox and v2 - v1 - f in facet for f in facet)
            for v1, v2 in combinations(present, 2)
        )
        if (p in hubs) != gap:
            return checked, f"cell={tuple(view.fmt.unpack(p))}: detectors disagree"
    return len(view.codim2), None


@_identity("classification-totality", codim2=True)
def classification_totality(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Each (n-2)-cell gets exactly one consistent tag.

    The tag is read off the census's block lists, as ``classify_cell``
    reads it: the number of block voxels present, and for a pair whether it
    is facet-adjacent. A cell with no voxel in its block is reported.
    Consistency: the full block is exactly the non-free case, and the tandem
    tag is exactly a hub of the vertex-window pass. Then the tally of these
    tags must equal the tag histogram of that pass, the block-trace route
    behind ``classify``.
    """
    view = cen._packed
    hubs = _window_hubs(obj, cen)
    facet, unpack = view.fmt.voxel_steps()[0], view.fmt.unpack
    free = view.free_sets[obj.n - 2]
    tally = {tag: 0 for tag in HubTag}
    for checked, (p, present) in enumerate(zip(view.codim2, cen._blocks), 1):
        k = len(present)
        if k == 0:
            return checked, f"cell={tuple(unpack(p))}: no voxel in its block"
        if k == 2:
            pair_facet = present[1] - present[0] in facet
            tag = HubTag.FACET_PAIR_BLOCK if pair_facet else HubTag.GAP_TANDEM
        else:
            tag = _COUNT_TAG[k]
        tally[tag] += 1
        if (tag is HubTag.FULL_BLOCK) != (p not in free):
            return checked, f"cell={tuple(unpack(p))}: tag {tag.value} vs free={p in free}"
        if (tag is HubTag.GAP_TANDEM) != (p in hubs):
            return checked, f"cell={tuple(unpack(p))}: tag {tag.value} vs gap detector"
    hist = _window_counts(obj).histogram
    if hist != tally:
        shown = [{tag.value: h[tag] for tag in HubTag} for h in (hist, tally)]
        return len(view.codim2), "histogram {} but classify_cell tally {}".format(*shown)
    return len(view.codim2), None


@_identity("free-face-heredity")
def free_face_heredity(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Every (j-1)-face of a free j-cell is itself free (hence every face is).

    Each dimension is tested a parity class and a face step at a time; only
    a failing one is walked cell by cell, so the witness names the first
    free cell in the view's order with a non-free face, and its least
    non-free face.
    """
    view = cen._packed
    fmt = view.fmt
    checked = 0
    for j in range(1, obj.n):
        free_below, free = view.free_sets[j - 1], view.free[j]
        if all(
            all(map(free_below.__contains__, map(d.__add__, run)))
            for run in view.classes(free)
            for d in fmt.steps(run[0], 0, 1)
        ):
            checked += len(free)
            continue
        for f in free:
            checked += 1
            missing = [f + d for d in fmt.steps(f, 0, 1) if f + d not in free_below]
            if missing:
                cell, face = tuple(fmt.unpack(f)), tuple(min(map(fmt.unpack, missing)))
                return checked, f"free cell {cell} has non-free face {face}"
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
