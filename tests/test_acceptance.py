"""Acceptance suite: one test per criterion, budgets pinned, exact equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines on stdout.
"""

from __future__ import annotations

import functools
import json
import random
import time

from gridgaps import (
    Cell,
    ShapeSpec,
    bounds,
    c_bounded,
    c_bounding,
    census,
    cofaces,
    count_gaps_block_formula,
    count_gaps_formula,
    count_gaps_oracle,
    dual,
    dual_bounds,
    enumerate_all_objects,
    faces,
    generate,
)
from gridgaps.cli import EXIT_OK, main
from gridgaps.counting import block_cell_count
from gridgaps.identities import (
    border_sum,
    classification_totality,
    detector_equivalence,
    facet_count,
    gap_triple_agreement,
    hub_nub_degree,
)

from oracles import o_cofaces, o_faces

BASE_SEED = 20260810


def criterion(number: int, title: str, budget: float | None = None):
    """Wrap a test so it prints its own acceptance line and holds its budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            elapsed = time.monotonic() - start
            line = f"criterion {number} ({title}): PASS ({elapsed:.2f}s)"
            if budget is not None:
                assert elapsed < budget, (
                    f"criterion {number} blew its {budget}s budget: {elapsed:.2f}s"
                )
            print(line)

        return wrapper

    return decorate


@criterion(1, "closed-form face/coface counts, n <= 6", budget=10.0)
def test_criterion_1_closed_form_counts():
    for n in range(1, 7):
        for j in range(n + 1):
            f = Cell(tuple(0 if k < j else 1 for k in range(n)))
            for i in range(j):
                built = faces(f, i)
                assert len(built) == c_bounding(i, j)
                assert {tuple(c) for c in built} == o_faces(tuple(f), i)
        for i in range(n):
            e = Cell(tuple(0 if k < i else 1 for k in range(n)))
            for j in range(i + 1, n + 1):
                built = cofaces(e, j)
                assert len(built) == c_bounded(i, j, n)
                assert {tuple(c) for c in built} == o_cofaces(tuple(e), j)


@criterion(2, "named fixtures and block censuses", budget=30.0)
def test_criterion_2_named_fixtures():
    domino = generate(ShapeSpec(kind="facet_block", n=3))
    cen = census(domino)
    assert cen.c[2] == 11
    assert cen.c_star[2] == 10

    lblock = generate(ShapeSpec(kind="l_block", n=3))
    cen = census(lblock)
    assert cen.c_star[2] == 14
    assert cen.c[1] == 28
    assert cen.c[0] == 16

    for n in range(2, 7):
        block_cen = census(generate(ShapeSpec(kind="facet_block", n=n)))
        for i in range(n + 1):
            assert block_cen.c[i] == block_cell_count(i, n)


@criterion(3, "gap counts on the named shapes, three methods", budget=30.0)
def test_criterion_3_gap_fixtures():
    fixtures = [
        (generate(ShapeSpec(kind="single", n=3)), 0),
        (generate(ShapeSpec(kind="diagonal_pair", n=3)), 1),
        (generate(ShapeSpec(kind="diagonal_pair", n=2)), 1),
        (generate(ShapeSpec(kind="l_block", n=3)), 0),
        (generate(ShapeSpec(kind="box", n=3, extents=(2, 2, 2))), 0),
    ]
    for obj, expected in fixtures:
        report = count_gaps_oracle(obj, obj.n - 2)
        assert report.g == expected
        assert count_gaps_formula(obj) == expected
        assert count_gaps_block_formula(obj) == expected


@criterion(4, "exhaustive oracle/formula equivalence, 768 objects", budget=30.0)
def test_criterion_4_exhaustive_equivalence():
    cases = [(3, (2, 2, 2), 256), (2, (3, 3), 512)]
    for n, extents, expected_total in cases:
        total = 0
        for obj in enumerate_all_objects(n, extents):
            total += 1
            cen = census(obj)
            report = count_gaps_oracle(obj, n - 2)
            assert report.g == count_gaps_formula(obj, cen)
            assert report.g == count_gaps_block_formula(obj, cen)
        assert total == expected_total


@criterion(5, "randomized identity suite, 200 objects per n in {2,3,4}", budget=120.0)
def test_criterion_5_randomized_suite():
    checks = (
        gap_triple_agreement,
        detector_equivalence,
        facet_count,
        border_sum,
        hub_nub_degree,
        classification_totality,
    )
    for n in (2, 3, 4):
        extent_rng = random.Random(BASE_SEED + n)
        for trial in range(200):
            extents = tuple(extent_rng.randint(2, 5) for _ in range(n))
            obj = generate(ShapeSpec("random", n, extents, 0.5, BASE_SEED + 1000 * n + trial))
            cen = census(obj)
            for check in checks:
                result = check(obj, cen)
                assert result.passed, f"n={n} trial={trial}: {result.witness}"


@criterion(6, "dual pairs reverse bounding over object closures", budget=60.0)
def test_criterion_6_dual_pair_property():
    rng = random.Random(BASE_SEED)
    for trial in range(20):
        n = 3
        extents = tuple(rng.randint(1, 3) for _ in range(n))
        obj = generate(ShapeSpec("random", n, extents, 0.5, BASE_SEED + 77 * trial))
        cen = census(obj)
        closure = [e for cells_i in cen.cells_by_dim for e in cells_i]
        duals = {e: dual(e) for e in closure}
        for e in closure:
            assert duals[e].dim == n - e.dim
        for e in closure:
            de = duals[e]
            for f in closure:
                assert bounds(e, f) == dual_bounds(duals[f], de)


@criterion(7, "deterministic generator and report bytes", budget=30.0)
def test_criterion_7_determinism(tmp_path, capsys):
    gen_args = [
        "gen", "--shape", "random", "--n", "3", "--extents", "4,4,4",
        "--density", "0.5", "--seed", "2026",
    ]
    a, b = tmp_path / "a.dvo", tmp_path / "b.dvo"
    assert main(gen_args + ["--out", str(a)]) == EXIT_OK
    assert main(gen_args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()

    assert main(["count", str(a), "--json", "--hubs"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["count", str(a), "--json", "--hubs"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["agreement"] is True
