"""The object-level identities the engine guarantees, run as checks.

Every identity compares two independent computation routes (a closed form
against an enumeration, or two detectors against each other), so a failure
always means an engine bug or a corrupted census, never a property of the
input. ``check_object`` accepts an externally supplied census precisely so
callers can verify that a corrupted census is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable

from .cells import faces
from .counting import c_bounding
from .gaps import (
    HubTag,
    classification_histogram,
    classify_cell,
    count_gaps_block_formula,
    count_gaps_formula,
    count_gaps_oracle,
    is_gap_by_adjacency,
)
# census stays bound here: perfbench's tracer wraps it and checks it is restored
from .objects import CellCensus, DigitalObject, _census_of, census  # noqa: F401

_TAG_ARITY = {
    HubTag.SIMPLE: 1,
    HubTag.FACET_PAIR_BLOCK: 2,
    HubTag.GAP_TANDEM: 2,
    HubTag.L_BLOCK: 3,
    HubTag.FULL_BLOCK: 4,
}


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
    """c_i = c*_i + c'_i for every dimension."""
    for i in range(obj.n + 1):
        if cen.c[i] != cen.c_star[i] + cen.c_prime[i]:
            return obj.n + 1, f"dim {i}: c={cen.c[i]} c*={cen.c_star[i]} c'={cen.c_prime[i]}"
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


@_identity("border-sum")
def border_sum(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """sum of b_j(e) over the i-border equals c_bounding(i,j) * c*_j."""
    n = obj.n
    checked = 0
    for j in range(1, n):
        for i in range(j):
            checked += 1
            lhs = sum(cen.b_boundary(e, j) for e in cen.free_by_dim[i])
            rhs = c_bounding(i, j) * cen.c_star[j]
            if lhs != rhs:
                return checked, f"(i={i}, j={j}): sum={lhs} formula={rhs}"
    return checked, None


@_identity("hub-nub-degree", codim2=True)
def hub_nub_degree(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Every free (n-2)-cell bounds 4 free facets if a hub, else 2."""
    n = obj.n
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    free = cen.free_by_dim[n - 2]
    for checked, e in enumerate(free, 1):
        expected = 4 if e in hubs else 2
        got = cen.b_boundary(e, n - 1)
        if got != expected:
            return checked, f"cell={tuple(e)}: b_(n-1)={got}, expected {expected}"
    return len(free), None


@_identity("gap-triple-agreement", codim2=True)
def gap_triple_agreement(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Direct scan, free-cell formula and block formula count the same gaps."""
    g = count_gaps_oracle(obj, obj.n - 2, cen).g
    formula = count_gaps_formula(obj, cen)
    block_formula = count_gaps_block_formula(obj, cen)
    if not g == formula == block_formula:
        return 1, f"scan={g} formula={formula} block-formula={block_formula}"
    return 1, None


@_identity("detector-equivalence", codim2=True)
def detector_equivalence(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Block inspection and the adjacency conditions find the same hubs."""
    n = obj.n
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    cells = cen.cells_by_dim[n - 2]
    for checked, e in enumerate(cells, 1):
        if (e in hubs) != is_gap_by_adjacency(obj, e):
            return checked, f"cell={tuple(e)}: detectors disagree"
    return len(cells), None


@_identity("classification-totality", codim2=True)
def classification_totality(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Each (n-2)-cell gets exactly one consistent tag.

    Consistency: witness arity matches the tag, the full block is exactly
    the non-free case, and the tandem tag is exactly the gap detector's yes.
    Then the tally of these tags must equal ``classification_histogram``,
    the one-pass block-trace route behind ``classify``.
    """
    n = obj.n
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    free, cells = cen.free_by_dim[n - 2], cen.cells_by_dim[n - 2]
    tally = {tag: 0 for tag in HubTag}
    for checked, e in enumerate(cells, 1):
        klass = classify_cell(obj, e)
        tally[klass.tag] += 1
        bad = None
        if len(klass.voxels) != _TAG_ARITY[klass.tag]:
            bad = f"tag {klass.tag.value} with {len(klass.voxels)} voxels"
        elif (klass.tag is HubTag.FULL_BLOCK) != (e not in free):
            bad = f"tag {klass.tag.value} vs free={e in free}"
        elif (klass.tag is HubTag.GAP_TANDEM) != (e in hubs):
            bad = f"tag {klass.tag.value} vs gap detector"
        if bad:
            return checked, f"cell={tuple(e)}: {bad}"
    hist = classification_histogram(obj)
    if hist != tally:
        shown = [{tag.value: h[tag] for tag in HubTag} for h in (hist, tally)]
        return len(cells), "histogram {} but classify_cell tally {}".format(*shown)
    return len(cells), None


@_identity("free-face-heredity")
def free_face_heredity(obj: DigitalObject, cen: CellCensus) -> _Outcome:
    """Every (j-1)-face of a free j-cell is itself free (hence every face is)."""
    checked = 0
    for j in range(1, obj.n):
        free_above = cen.free_by_dim[j]
        free_below = cen.free_by_dim[j - 1]
        for f in free_above:
            checked += 1
            for e in faces(f, j - 1):
                if e not in free_below:
                    return checked, f"free cell {tuple(f)} has non-free face {tuple(e)}"
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
