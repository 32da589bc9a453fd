"""The object-level identities the engine guarantees, run as checks.

Every identity compares two independent computation routes (a closed form
against an enumeration, or two detectors against each other), so a failure
always means an engine bug or a corrupted census, never a property of the
input. ``check_object`` accepts an externally supplied census precisely so
callers can verify that a corrupted census is caught.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import faces
from .counting import c_bounding
from .gaps import HubTag, classify_cell, count_gaps_oracle, is_gap_by_adjacency
from .objects import CellCensus, DigitalObject, census

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


def _witness(obj: DigitalObject, detail: str) -> str:
    centers = obj.centers()
    shown = centers if len(centers) <= 24 else centers[:24] + ["..."]
    return f"object n={obj.n} centers={shown}; {detail}"


def census_partition(obj: DigitalObject, cen: CellCensus) -> IdentityResult:
    """c_i = c*_i + c'_i for every dimension."""
    for i in range(obj.n + 1):
        if cen.c[i] != cen.c_star[i] + cen.c_prime[i]:
            return IdentityResult(
                "census-partition",
                False,
                obj.n + 1,
                _witness(obj, f"dim {i}: c={cen.c[i]} c*={cen.c_star[i]} c'={cen.c_prime[i]}"),
            )
    return IdentityResult("census-partition", True, obj.n + 1)


def facet_count(obj: DigitalObject, cen: CellCensus) -> IdentityResult:
    """c_{n-1} = 2n * c_n - c'_{n-1}."""
    n = obj.n
    lhs = cen.c[n - 1]
    rhs = 2 * n * cen.c[n] - cen.c_prime[n - 1]
    if lhs != rhs:
        return IdentityResult(
            "facet-count", False, 1, _witness(obj, f"c_(n-1)={lhs} but 2n*c_n - c'_(n-1)={rhs}")
        )
    return IdentityResult("facet-count", True, 1)


def border_sum(obj: DigitalObject, cen: CellCensus) -> IdentityResult:
    """sum of b_j(e) over the i-border equals c_bounding(i,j) * c*_j."""
    n = obj.n
    checked = 0
    for j in range(1, n):
        for i in range(j):
            checked += 1
            lhs = sum(cen.b_boundary(e, j) for e in cen.free_by_dim[i])
            rhs = c_bounding(i, j) * cen.c_star[j]
            if lhs != rhs:
                return IdentityResult(
                    "border-sum",
                    False,
                    checked,
                    _witness(obj, f"(i={i}, j={j}): sum={lhs} formula={rhs}"),
                )
    return IdentityResult("border-sum", True, checked)


def hub_nub_degree(obj: DigitalObject, cen: CellCensus) -> IdentityResult:
    """Every free (n-2)-cell bounds 4 free facets if a hub, else 2."""
    n = obj.n
    if n < 2:
        return IdentityResult("hub-nub-degree", True, 0)
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    checked = 0
    for e in cen.free_by_dim[n - 2]:
        checked += 1
        expected = 4 if e in hubs else 2
        got = cen.b_boundary(e, n - 1)
        if got != expected:
            return IdentityResult(
                "hub-nub-degree",
                False,
                checked,
                _witness(obj, f"cell={tuple(e)}: b_(n-1)={got}, expected {expected}"),
            )
    return IdentityResult("hub-nub-degree", True, checked)


def gap_triple_agreement(obj: DigitalObject, cen: CellCensus) -> IdentityResult:
    """Direct scan, free-cell formula and block formula count the same gaps."""
    n = obj.n
    if n < 2:
        return IdentityResult("gap-triple-agreement", True, 0)
    report = count_gaps_oracle(obj, n - 2, cen)
    if not report.g == report.g_formula == report.g_block_formula:
        return IdentityResult(
            "gap-triple-agreement",
            False,
            1,
            _witness(
                obj,
                f"scan={report.g} formula={report.g_formula}"
                f" block-formula={report.g_block_formula}",
            ),
        )
    return IdentityResult("gap-triple-agreement", True, 1)


def detector_equivalence(obj: DigitalObject, cen: CellCensus) -> IdentityResult:
    """Block inspection and the adjacency conditions find the same hubs."""
    n = obj.n
    if n < 2:
        return IdentityResult("detector-equivalence", True, 0)
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    checked = 0
    for e in cen.cells_by_dim[n - 2]:
        checked += 1
        if (e in hubs) != is_gap_by_adjacency(obj, e):
            return IdentityResult(
                "detector-equivalence",
                False,
                checked,
                _witness(obj, f"cell={tuple(e)}: detectors disagree"),
            )
    return IdentityResult("detector-equivalence", True, checked)


def classification_totality(obj: DigitalObject, cen: CellCensus) -> IdentityResult:
    """Each (n-2)-cell gets exactly one consistent tag.

    Consistency: witness arity matches the tag, the full block is exactly
    the non-free case, and the tandem tag is exactly the gap detector's yes.
    """
    n = obj.n
    if n < 2:
        return IdentityResult("classification-totality", True, 0)
    hubs = frozenset(count_gaps_oracle(obj, n - 2, cen).hubs)
    checked = 0
    free = cen.free_by_dim[n - 2]
    for e in cen.cells_by_dim[n - 2]:
        checked += 1
        klass = classify_cell(obj, e)
        bad = None
        if len(klass.voxels) != _TAG_ARITY[klass.tag]:
            bad = f"tag {klass.tag.value} with {len(klass.voxels)} voxels"
        elif (klass.tag is HubTag.FULL_BLOCK) != (e not in free):
            bad = f"tag {klass.tag.value} vs free={e in free}"
        elif (klass.tag is HubTag.GAP_TANDEM) != (e in hubs):
            bad = f"tag {klass.tag.value} vs gap detector"
        if bad:
            return IdentityResult(
                "classification-totality",
                False,
                checked,
                _witness(obj, f"cell={tuple(e)}: {bad}"),
            )
    return IdentityResult("classification-totality", True, checked)


def free_face_heredity(obj: DigitalObject, cen: CellCensus) -> IdentityResult:
    """Every (j-1)-face of a free j-cell is itself free (hence every face is)."""
    checked = 0
    for j in range(1, obj.n):
        free_above = cen.free_by_dim[j]
        free_below = cen.free_by_dim[j - 1]
        for f in free_above:
            checked += 1
            for e in faces(f, j - 1):
                if e not in free_below:
                    return IdentityResult(
                        "free-face-heredity",
                        False,
                        checked,
                        _witness(obj, f"free cell {tuple(f)} has non-free face {tuple(e)}"),
                    )
    return IdentityResult("free-face-heredity", True, checked)


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
    if cen is None:
        cen = census(obj)
    return [identity(obj, cen) for identity in ALL_IDENTITIES]
