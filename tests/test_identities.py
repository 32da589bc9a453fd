"""The identity suite's results, and its hubs from one vertex-window pass.

No identity scans the (n-2)-cells with ``is_gap``: gap-triple-agreement
counts the pass's hubs against both formulas and runs ``is_gap`` on each
hub alone; hub-nub-degree, detector-equivalence and
classification-totality test hubness against those hubs, mapped into the
census's bitmaps. The pass runs once per census and is kept with it, so
an equal object checked with a census of its own runs its own pass. A
failing identity names the first failing cell in witness order (tile
key, class, bit; ``bitmaps._Bitmaps``). The census doctors come from
``references.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from gridgaps import DigitalObject, census, gaps, identities
from gridgaps.cells import Cell
from gridgaps.gaps import HubTag, count_gaps_oracle, is_gap
from gridgaps.identities import (
    IdentityResult,
    border_sum,
    census_partition,
    check_object,
    classification_totality,
    detector_equivalence,
    facet_count,
    free_face_heredity,
    gap_triple_agreement,
    hub_nub_degree,
)
from gridgaps.objects import CellCensus

from references import (
    DIAG2,
    DIAG3,
    EDGE,
    FAR_DIAG3,
    RANDOM4,
    bump,
    with_count_off,
    with_listing,
    with_stray,
)

PREFIX = "object n=3 centers=[(0, 0, 0), (1, 1, 0)]; "
F = 1 << 60
FAR_PREFIX = f"object n=3 centers=[({-EDGE}, {-EDGE}, {-EDGE}), ({1 - EDGE}, {1 - EDGE}, {-EDGE})]; "


class TestFailureResults:
    """Each identity, made to fail, names itself and what it saw."""

    @pytest.mark.parametrize(
        "identity, doctor, name, checked, detail",
        [
            (
                facet_count,
                lambda cen: with_count_off(cen, "c_prime", 2),
                "facet-count",
                1,
                "c_(n-1)=12 but 2n*c_n - c'_(n-1)=11",
            ),
            (
                border_sum,
                lambda cen: with_count_off(cen, "c_star", 2),
                "border-sum",
                2,
                "(i=0, j=2): sum=48 formula=52",
            ),
            (
                gap_triple_agreement,
                lambda cen: with_count_off(cen, "c_star", 2),
                "gap-triple-agreement",
                1,
                "window hubs=1 formula=3 block-formula=1",
            ),
            (
                hub_nub_degree,
                lambda cen: with_listing(cen, 2, free=()),
                "hub-nub-degree",
                1,
                "cell=(0, -1, -1): b_(n-1)=0, expected 2",
            ),
            (
                classification_totality,
                lambda cen: with_listing(cen, 1, free=()),
                "classification-totality",
                1,
                "cell=(0, -1, -1): tag simple vs free=False",
            ),
            (
                free_face_heredity,
                lambda cen: with_listing(cen, 0, free=()),
                "free-face-heredity",
                1,
                "free cell (0, -1, -1) has non-free face (-1, -1, -1)",
            ),
        ],
    )
    def test_doctored_census(self, identity, doctor, name, checked, detail):
        result = identity(DIAG3, doctor(census(DIAG3)))
        assert result == IdentityResult(name, False, checked, PREFIX + detail)

    @pytest.mark.parametrize(
        "identity, doctor, name, detail",
        [
            (
                hub_nub_degree,
                lambda cen: with_listing(cen, 2, free=()),
                "hub-nub-degree",
                f"cell=({-F}, {-1 - F}, {-1 - F}): b_(n-1)=0, expected 2",
            ),
            (
                free_face_heredity,
                lambda cen: with_listing(cen, 0, free=()),
                "free-face-heredity",
                f"free cell ({-F}, {-1 - F}, {-1 - F})"
                f" has non-free face ({-1 - F}, {-1 - F}, {-1 - F})",
            ),
        ],
    )
    def test_doctored_census_far_from_the_origin(self, identity, doctor, name, detail):
        result = identity(FAR_DIAG3, doctor(census(FAR_DIAG3)))
        assert result == IdentityResult(name, False, 1, FAR_PREFIX + detail)

    @pytest.mark.parametrize(
        "field, detail",
        [
            ("c", "window c=[14, 24, 12, 2] but census c=[14, 23, 12, 2]"),
            ("c_star", "window c*=[14, 24, 12, 0] but census c*=[14, 23, 12, 0]"),
            ("c_prime", "window c'=[0, 1, 0, 2] but census c'=[0, 0, 0, 2]"),
        ],
    )
    def test_window_counts_disagree(self, monkeypatch, field, detail):
        real = gaps._window_counts(DIAG3)
        doctored = real._replace(**{field: bump(getattr(real, field), 1)})
        monkeypatch.setattr(identities, "_window_counts", lambda obj: doctored)
        result = census_partition(DIAG3, census(DIAG3))
        assert result == IdentityResult("census-partition", False, 4, PREFIX + detail)

    @pytest.mark.parametrize(
        "hubs, detail",
        [
            ((), "window hubs=0 formula=1 block-formula=1"),
            ((Cell((-1, 1, 0)), Cell((1, 1, 0))), "window hubs=2 formula=1 block-formula=1"),
            # the count holds, so only is_gap on each hub sees these
            ((Cell((-1, 1, 0)),), "window hub (-1, 1, 0) is not a gap"),
            ((Cell((1, 1, 1)),), "window hub (1, 1, 1) is not a gap"),
        ],
    )
    def test_window_hubs_disagree(self, monkeypatch, hubs, detail):
        doctored = gaps._window_counts(DIAG3)._replace(hubs=hubs)
        monkeypatch.setattr(identities, "_window_counts", lambda obj: doctored)
        result = gap_triple_agreement(DIAG3, census(DIAG3))
        assert result == IdentityResult("gap-triple-agreement", False, 1, PREFIX + detail)

    def test_window_hub_listed_twice(self, monkeypatch):
        # DIAG3 and a far copy have two hubs; a pass that lists the first
        # twice and drops the second has the right count of true gaps
        obj = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0), (8, 7, 0), (9, 8, 0)])
        doctored = gaps._window_counts(obj)._replace(hubs=(Cell((1, 1, 0)),) * 2)
        monkeypatch.setattr(identities, "_window_counts", lambda obj: doctored)
        result = gap_triple_agreement(obj, census(obj))
        assert result.witness.partition("; ")[2] == "window hub (1, 1, 0) is listed twice"

    def test_detector_disagreement(self, monkeypatch):
        # the window pass loses its one hub, which the adjacency conditions
        # still find
        doctored = gaps._window_counts(DIAG3)._replace(hubs=())
        monkeypatch.setattr(identities, "_window_counts", lambda obj: doctored)
        cen = census(DIAG3)
        checked = list(cen._bitmaps.listing("cells", 1)).index(Cell((1, 1, 0))) + 1
        assert checked == 20
        result = detector_equivalence(DIAG3, cen)
        assert result == IdentityResult(
            "detector-equivalence", False, checked, PREFIX + "cell=(1, 1, 0): detectors disagree"
        )

    def test_histogram_disagreement(self, monkeypatch):
        wrong = {tag: 0 for tag in HubTag}
        wrong[HubTag.SIMPLE] = 23
        doctored = gaps._window_counts(DIAG3)._replace(histogram=wrong)
        monkeypatch.setattr(identities, "_window_counts", lambda obj: doctored)
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

    def test_cell_with_no_voxel_in_its_block_is_reported(self):
        cen = census(DIAG3)
        doctored = with_listing(cen, 1, cells=cen.cells_by_dim[1] | {Cell((9, 9, 0))})
        results = {r.name: r for r in check_object(DIAG3, doctored)}
        # the stray is the greatest cell of the last class, so last in witness order
        assert results["classification-totality"] == IdentityResult(
            "classification-totality", False, 24, PREFIX + "cell=(9, 9, 0): no voxel in its block"
        )
        assert results["census-partition"] == IdentityResult(
            "census-partition", False, 4, PREFIX + "dim 1: 24 cells listed but c=23"
        )

    def test_window_hub_outside_the_census_format_is_dropped(self):
        # DIAG3's census given for DIAG3 and a far copy: the copy's hub
        # (17, 15, 0) lies past the census's index, so it maps to no bit
        obj = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0), (8, 7, 0), (9, 8, 0)])
        cen = replace(census(DIAG3))
        maps = cen._bitmaps
        assert maps.place([Cell((17, 15, 0))]) == {}
        assert maps.place([Cell((1, 1, 0))])[(0, 0, 0), (1, 1, 0)].bit_count() == 1
        prefix = "object n=3 centers=[(0, 0, 0), (1, 1, 0), (8, 7, 0), (9, 8, 0)]; "
        assert check_object(obj, cen) == [
            IdentityResult(
                "census-partition",
                False,
                4,
                prefix + "window c=[28, 46, 24, 4] but census c=[14, 23, 12, 2]",
            ),
            IdentityResult("facet-count", True, 1),
            IdentityResult("border-sum", True, 3),
            IdentityResult("hub-nub-degree", True, 23),
            IdentityResult(
                "gap-triple-agreement",
                False,
                1,
                prefix + "window hubs=2 formula=1 block-formula=1",
            ),
            IdentityResult("detector-equivalence", True, 23),
            IdentityResult(
                "classification-totality",
                False,
                23,
                prefix
                + "histogram {'simple': 44, 'facet_pair_block': 0, 'gap_tandem': 2,"
                " 'l_block': 0, 'full_block': 0} but classify_cell tally"
                " {'simple': 22, 'facet_pair_block': 0, 'gap_tandem': 1,"
                " 'l_block': 0, 'full_block': 0}",
            ),
            IdentityResult("free-face-heredity", True, 35),
        ]

    def test_facet_listed_as_an_n_minus_2_cell(self):
        # the greatest facet of a random 4-D object listed among its
        # 2-cells: it has one flat axis, so its class has no block corners
        # and census-partition names its dimension; gap-triple-agreement
        # reads the window pass's hubs, not the listing, and passes
        cen = census(RANDOM4)
        doctored = with_listing(cen, 2, cells=cen.cells_by_dim[2] | {max(cen.cells_by_dim[3])})
        assert doctored._bitmaps.count("cells", 2) == 654
        results = check_object(RANDOM4, doctored)
        got = {r.name: (r.passed, r.checked, r.witness.partition("; ")[2]) for r in results}
        assert len(results) == 8
        assert got["census-partition"] == (
            False, 5, "dim 2: listed cell (5, 4, 2, 4) has dimension 3"
        )
        assert got["gap-triple-agreement"] == (True, 1, "")
        # its class (1, 0, 0, 0) comes after the three classes of 2-cells
        # that extend along axis 0 and before the three flat on it
        assert got["classification-totality"] == (
            False, 326, "cell=(5, 4, 2, 4): no voxel in its block"
        )
        assert got["hub-nub-degree"] == (True, 636, "")
        assert got["detector-equivalence"] == (True, 654, "")

    def test_long_object_witness_is_cut_at_24_centers(self):
        obj = DigitalObject.from_centers(2, [(x, 0) for x in range(30)])
        cen = census(obj)
        result = facet_count(obj, with_count_off(cen, "c_prime", 1))
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


def _far_cell(cen: CellCensus, i: int) -> CellCensus:
    """One more i-cell, the greatest moved 2^40 along axis 0, listed as a cell only."""
    e = max(cen.cells_by_dim[i])
    return with_listing(cen, i, cells=cen.cells_by_dim[i] | {Cell((e[0] + (1 << 40), *e[1:]))})


def _unlisted_free(cen: CellCensus, i: int) -> CellCensus:
    return with_listing(cen, i, cells=cen.cells_by_dim[i] - {min(cen.free_by_dim[i])})


def _wrong_dimension(cen: CellCensus, i: int) -> CellCensus:
    """The least (i+1)-cell listed among the i-cells too."""
    return with_listing(cen, i, cells=cen.cells_by_dim[i] | {min(cen.cells_by_dim[i + 1])})


class TestCensusPartitionChecks:
    """census-partition checks every listing of the census against its
    counts and the others, on the random 4-D object of a 3^4 box: each
    doctored listing fails it with an exact witness, and checked stays
    n + 1."""

    @pytest.mark.parametrize(
        "doctor, i, detail",
        [
            (with_stray, 0, "dim 0: free cell (-3, -1, -1, -1) is not a listed cell"),
            (with_stray, 1, "dim 1: free cell (-3, -1, -1, 0) is not a listed cell"),
            (with_stray, 2, "dim 2: free cell (-3, -1, 0, 0) is not a listed cell"),
            (with_stray, 3, "dim 3: free cell (-3, 0, 0, 0) is not a listed cell"),
            (_far_cell, 0, "dim 0: 231 cells listed but c=230"),
            (_far_cell, 1, "dim 1: 648 cells listed but c=647"),
            (_far_cell, 2, "dim 2: 654 cells listed but c=653"),
            (_far_cell, 3, "dim 3: 278 cells listed but c=277"),
            (_far_cell, 4, "dim 4: 43 cells listed but c=42"),
            (_unlisted_free, 0, "dim 0: free cell (-1, -1, -1, -1) is not a listed cell"),
            (_unlisted_free, 1, "dim 1: free cell (-1, -1, -1, 0) is not a listed cell"),
            (_unlisted_free, 2, "dim 2: free cell (-1, -1, 0, 0) is not a listed cell"),
            (_unlisted_free, 3, "dim 3: free cell (-1, 0, 0, 0) is not a listed cell"),
            (_wrong_dimension, 0, "dim 0: listed cell (-1, -1, -1, 0) has dimension 1"),
            (_wrong_dimension, 1, "dim 1: listed cell (-1, -1, 0, 0) has dimension 2"),
            (_wrong_dimension, 2, "dim 2: listed cell (-1, 0, 0, 0) has dimension 3"),
            (_wrong_dimension, 3, "dim 3: listed cell (0, 0, 0, 0) has dimension 4"),
        ],
        # the ids name the shared stray doctor as the doctors of this module are named
        ids=lambda v: "_stray" if v is with_stray else None,
    )
    def test_doctored_listing_fails(self, doctor, i, detail):
        results = {r.name: r for r in check_object(RANDOM4, doctor(census(RANDOM4), i))}
        got = results["census-partition"]
        assert (got.passed, got.checked, got.witness.partition("; ")[2]) == (False, 5, detail)

    def test_free_listed_under_another_dimension(self):
        cen = census(RANDOM4)
        doctored = with_listing(cen, 1, free=cen.free_by_dim[1] | {min(cen.free_by_dim[2])})
        got = census_partition(RANDOM4, doctored)
        assert got.witness.partition("; ")[2] == "dim 1: listed cell (-1, -1, 0, 0) has dimension 2"

    def test_census_passes(self):
        assert census_partition(RANDOM4, census(RANDOM4)) == IdentityResult("census-partition", True, 5)


def _direct_hubs(obj: DigitalObject, cells) -> tuple[Cell, ...]:
    return tuple(sorted(e for e in cells if is_gap(obj, e, obj.n - 2)))


class TestOneScan:
    def test_check_object_scans_each_cell_once(self, monkeypatch):
        # is_gap runs once per window hub, in order, and on no other cell;
        # both bindings are counted, so a scan through either comes back here
        obj = DigitalObject.from_centers(
            3, [(0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 1), (7, 3, 5)]
        )
        calls = []
        real = gaps.is_gap

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(gaps, "is_gap", counted)
        monkeypatch.setattr(identities, "is_gap", counted)
        assert all(r.passed for r in check_object(obj))
        assert calls == [Cell((1, 1, 0)), Cell((3, 1, 2))] == list(gaps._window_counts(obj).hubs)

    def test_hub_identities_run_no_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("is_gap called")

        monkeypatch.setattr(gaps, "is_gap", refuse)
        monkeypatch.setattr(identities, "is_gap", refuse)
        obj = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 1)])
        cen = census(obj)
        for identity in (hub_nub_degree, detector_equivalence, classification_totality):
            result = identity(obj, cen)
            assert result.passed and result.checked > 0, result

    def test_check_object_runs_one_window_pass(self, monkeypatch):
        passes = []
        real = gaps._windows

        def counted(obj):
            passes.append(obj)
            return real(obj)

        monkeypatch.setattr(gaps, "_windows", counted)
        assert all(r.passed for r in check_object(DIAG3))
        assert passes == [DIAG3]

    def test_equal_object_gets_a_pass_of_its_own(self, monkeypatch):
        # the pass is kept with its census: an equal object checked after
        # the window tags change runs the changed pass, and the trace
        # 0b0011 (a facet-adjacent pair, here along the last axis) read as
        # a gap tandem fails every identity that reads the pass's hubs
        centers = [(0, 0, 0), (0, 0, 1), (1, 1, 0)]
        assert all(r.passed for r in check_object(DigitalObject.from_centers(3, centers)))
        tags = list(gaps._TRACE_TAG)
        tags[0b0011] = HubTag.GAP_TANDEM
        monkeypatch.setattr(gaps, "_TRACE_TAG", tuple(tags))
        results = check_object(DigitalObject.from_centers(3, centers))
        assert {r.name for r in results if not r.passed} == {
            "hub-nub-degree",
            "gap-triple-agreement",
            "detector-equivalence",
            "classification-totality",
        }

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
        fewer = with_listing(cen, 1, cells=cen.cells_by_dim[1] - {Cell((1, 1, 0))})
        report = count_gaps_oracle(DIAG3, 1, fewer)
        assert report.hubs == () and report.g == 0
        assert count_gaps_oracle(DIAG3, 1, cen).hubs == (Cell((1, 1, 0)),)


def test_check_object_rejects_a_census_of_another_dimension():
    with pytest.raises(ValueError, match="census of dimension 2 given for a 3-object"):
        check_object(DIAG3, census(DIAG2))
