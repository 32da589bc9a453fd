"""The identity suite's results, and the one (n-2)-gap scan it shares."""

from __future__ import annotations

from dataclasses import replace

import pytest

from gridgaps import DigitalObject, census, gaps, identities
from gridgaps.cells import Cell
from gridgaps.gaps import HubTag, count_gaps_oracle, is_gap
from gridgaps.identities import (
    IdentityResult,
    border_sum,
    check_object,
    classification_totality,
    detector_equivalence,
    facet_count,
    free_face_heredity,
    gap_triple_agreement,
    hub_nub_degree,
)
from gridgaps.objects import CellCensus

DIAG3 = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0)])
PREFIX = "object n=3 centers=[(0, 0, 0), (1, 1, 0)]; "


def _bump(counts: tuple[int, ...], i: int) -> tuple[int, ...]:
    return tuple(v + 1 if k == i else v for k, v in enumerate(counts))


def _drop_free(cen: CellCensus, i: int) -> CellCensus:
    free = list(cen.free_by_dim)
    free[i] = frozenset()
    return replace(cen, free_by_dim=tuple(free))


class TestFailureResults:
    """Each identity, made to fail, names itself and what it saw."""

    @pytest.mark.parametrize(
        "identity, doctor, name, checked, detail",
        [
            (
                facet_count,
                lambda cen: replace(cen, c_prime=_bump(cen.c_prime, 2)),
                "facet-count",
                1,
                "c_(n-1)=12 but 2n*c_n - c'_(n-1)=11",
            ),
            (
                border_sum,
                lambda cen: replace(cen, c_star=_bump(cen.c_star, 2)),
                "border-sum",
                2,
                "(i=0, j=2): sum=48 formula=52",
            ),
            (
                gap_triple_agreement,
                lambda cen: replace(cen, c_star=_bump(cen.c_star, 2)),
                "gap-triple-agreement",
                1,
                "scan=1 formula=3 block-formula=1",
            ),
            (
                hub_nub_degree,
                lambda cen: _drop_free(cen, 2),
                "hub-nub-degree",
                1,
                "cell=(0, -1, -1): b_(n-1)=0, expected 2",
            ),
            (
                classification_totality,
                lambda cen: _drop_free(cen, 1),
                "classification-totality",
                1,
                "cell=(0, -1, -1): tag simple vs free=False",
            ),
            (
                free_face_heredity,
                lambda cen: _drop_free(cen, 0),
                "free-face-heredity",
                1,
                "free cell (0, -1, -1) has non-free face (-1, -1, -1)",
            ),
        ],
    )
    def test_doctored_census(self, identity, doctor, name, checked, detail):
        result = identity(DIAG3, doctor(census(DIAG3)))
        assert result == IdentityResult(name, False, checked, PREFIX + detail)

    def test_detector_disagreement(self, monkeypatch):
        monkeypatch.setattr(identities, "is_gap_by_adjacency", lambda obj, e: False)
        result = detector_equivalence(DIAG3, census(DIAG3))
        assert result == IdentityResult(
            "detector-equivalence", False, 7, PREFIX + "cell=(1, 1, 0): detectors disagree"
        )

    def test_histogram_disagreement(self, monkeypatch):
        wrong = {tag: 0 for tag in HubTag}
        wrong[HubTag.SIMPLE] = 23
        monkeypatch.setattr(identities, "classification_histogram", lambda obj: wrong)
        result = classification_totality(DIAG3, census(DIAG3))
        assert result == IdentityResult(
            "classification-totality",
            False,
            23,
            PREFIX
            + "histogram {'simple': 23, 'facet_pair_block': 0, 'gap_tandem': 0,"
            " 'l_block': 0, 'full_block': 0} but classify_cell tally"
            " {'simple': 22, 'facet_pair_block': 0, 'gap_tandem': 1,"
            " 'l_block': 0, 'full_block': 0}",
        )

    def test_long_object_witness_is_cut_at_24_centers(self):
        obj = DigitalObject.from_centers(2, [(x, 0) for x in range(30)])
        cen = census(obj)
        result = facet_count(obj, replace(cen, c_prime=_bump(cen.c_prime, 1)))
        shown = [(x, 0) for x in range(24)] + ["..."]
        assert result.witness == f"object n=2 centers={shown}; c_(n-1)=91 but 2n*c_n - c'_(n-1)=90"

    def test_n1_results(self):
        line = DigitalObject.from_centers(1, [(0,), (1,)])
        got = [(r.name, r.passed, r.checked, r.witness) for r in check_object(line)]
        assert got == [
            ("census-partition", True, 2, ""),
            ("facet-count", True, 1, ""),
            ("border-sum", True, 0, ""),
            ("hub-nub-degree", True, 0, ""),
            ("gap-triple-agreement", True, 0, ""),
            ("detector-equivalence", True, 0, ""),
            ("classification-totality", True, 0, ""),
            ("free-face-heredity", True, 0, ""),
        ]


def _direct_hubs(obj: DigitalObject, cells) -> tuple[Cell, ...]:
    return tuple(sorted(e for e in cells if is_gap(obj, e, obj.n - 2)))


class TestOneScan:
    def test_check_object_scans_each_cell_once(self, monkeypatch):
        # an object no other test builds, so no earlier scan is kept for it
        obj = DigitalObject.from_centers(
            3, [(0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 1), (7, 3, 5)]
        )
        calls = []
        real = gaps.is_gap

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(gaps, "is_gap", counted)
        cen = census(obj)
        assert all(r.passed for r in check_object(obj, cen))
        assert len(calls) == cen.c[1]

    def test_alternating_objects_get_their_own_hubs(self):
        a = DIAG3
        b = DigitalObject.from_centers(3, [(0, 0, 0), (1, 0, 1), (2, 2, 2), (3, 3, 2)])
        expected = {
            obj: _direct_hubs(obj, census(obj).cells_by_dim[1]) for obj in (a, b)
        }
        assert expected[a] != expected[b]
        for obj in (a, b, a, b, b, a):
            assert count_gaps_oracle(obj, 1).hubs == expected[obj]

    def test_hubs_follow_the_census_cells(self):
        cen = census(DIAG3)
        assert count_gaps_oracle(DIAG3, 1, cen).hubs == (Cell((1, 1, 0)),)
        cells = list(cen.cells_by_dim)
        cells[1] = cells[1] - {Cell((1, 1, 0))}
        fewer = replace(cen, cells_by_dim=tuple(cells))
        report = count_gaps_oracle(DIAG3, 1, fewer)
        assert report.hubs == () and report.g == 0
        assert count_gaps_oracle(DIAG3, 1, cen).hubs == (Cell((1, 1, 0)),)


def test_check_object_rejects_a_census_of_another_dimension():
    other = DigitalObject.from_centers(2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="census of dimension 2 given for a 3-object"):
        check_object(DIAG3, census(other))
