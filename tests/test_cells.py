"""Cell model: encoding, incidence, faces/cofaces, duality, adjacency."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgaps import (
    Cell,
    DualCell,
    adjacency,
    adjacent_voxels,
    block,
    bounds,
    cofaces,
    dimension,
    dual,
    dual_bounds,
    dual_incident,
    faces,
    from_point_direction,
    incident,
    representative,
    voxel,
    voxel_intersection,
)
from gridgaps.counting import c_bounded, c_bounding

from oracles import neighborhood, o_bounds, o_cofaces, o_contains, o_faces, o_incident


def cell_coords(n: int, lo: int = -5, hi: int = 5):
    return st.tuples(*([st.integers(min_value=lo, max_value=hi)] * n))


small_n = st.integers(min_value=1, max_value=4)


class TestEncoding:
    @pytest.mark.parametrize(
        "coords, dim",
        [((0, 0, 0), 3), ((1, 1, 1), 0), ((1, 0), 1), ((2, 3, 0, 1), 2), ((7,), 0)],
    )
    def test_dimension(self, coords, dim):
        assert dimension(Cell(coords)) == dim
        assert Cell(coords).dim == dim
        assert Cell(coords).n == len(coords)

    def test_voxel_constructor_doubles(self):
        assert voxel((1, -2, 0)) == Cell((2, -4, 0))
        assert voxel((1, -2, 0)).is_voxel

    def test_rejects_empty_and_bad_types(self):
        with pytest.raises(ValueError):
            Cell(())
        with pytest.raises(TypeError):
            Cell((1, 2.0))
        with pytest.raises(TypeError):
            Cell((True, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Cell((1 << 61,))
        Cell((1 << 60,))  # the boundary itself is fine

    def test_voxel_checks_the_center_as_written(self):
        big = (1 << 59) + 1
        with pytest.raises(ValueError) as err:
            voxel((big, 0))
        assert str(big) in str(err.value) and str(2 * big) not in str(err.value)
        with pytest.raises(ValueError, match=str(-big)):
            voxel((0, -big))
        edge = 1 << 59
        assert voxel((edge, -edge)) == Cell((2 * edge, -2 * edge))
        with pytest.raises(TypeError, match="0.5"):
            voxel((0.5, 0))
        with pytest.raises(TypeError):
            voxel((True, 0))
        with pytest.raises(ValueError):
            voxel(())

    @given(small_n.flatmap(lambda n: cell_coords(n)))
    def test_point_direction_representations_collapse(self, coords):
        # any valid (point, direction) pair for the cell maps back to it
        cell = Cell(coords)
        point, direction = representative(cell)
        assert from_point_direction(point, direction) == cell
        flipped_point = tuple(x + t for x, t in zip(point, direction))
        flipped_dir = tuple(-t for t in direction)
        assert from_point_direction(flipped_point, flipped_dir) == cell

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            from_point_direction((0, 0), (2, 0))
        with pytest.raises(ValueError):
            from_point_direction((0, 0), (1,))


class TestIncidenceAndBounding:
    def test_examples(self):
        # frozen from the interval oracle: the edge (1,1,0) lies on the
        # boundary of both the voxel (0,0,0) and the face (2,0,0)
        assert incident(Cell((1, 1, 0)), Cell((0, 0, 0)))
        assert incident(Cell((1, 1, 0)), Cell((2, 0, 0)))
        assert not incident(Cell((1, 1, 0)), Cell((3, 0, 0)))
        c = Cell((0, 1, 2))
        assert incident(c, c)

    def test_bounds_examples(self):
        assert bounds(Cell((1, 1, 1)), Cell((0, 0, 0)))
        assert not bounds(Cell((0, 0, 0)), Cell((0, 0, 0)))
        # frozen from the oracle: that edge is an edge of the face (2,1,0)
        assert bounds(Cell((1, 1, 0)), Cell((2, 1, 0)))
        assert not bounds(Cell((1, 1, 0)), Cell((2, 3, 0)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            incident(Cell((0, 0)), Cell((0, 0, 0)))
        with pytest.raises(ValueError):
            bounds(Cell((0, 0)), Cell((0, 0, 0)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_against_interval_oracle(self, n):
        # every cell pair in the closure of the 2^n voxel block at the origin
        cells = [Cell(c) for c in product(range(-1, 4), repeat=n)]
        for a in cells:
            for b in cells:
                assert incident(a, b) == o_incident(tuple(a), tuple(b))

    def test_oracle_agreement_spot_n4(self):
        # n=4 cut down to one voxel closure vs the whole 2x2x2x2 closure
        closure = [Cell(c) for c in neighborhood((0, 0, 0, 0))]
        all_cells = [Cell(c) for c in product(range(-1, 4), repeat=4)]
        for a in closure:
            for b in all_cells:
                assert incident(a, b) == o_incident(tuple(a), tuple(b))
                assert bounds(a, b) == o_bounds(tuple(a), tuple(b))

    @given(small_n.flatmap(lambda n: st.tuples(cell_coords(n), cell_coords(n))))
    def test_random_pairs_match_oracle(self, pair):
        a, b = Cell(pair[0]), Cell(pair[1])
        assert incident(a, b) == o_incident(tuple(a), tuple(b))
        assert bounds(a, b) == o_bounds(tuple(a), tuple(b))


class TestFacesAndCofaces:
    @pytest.mark.parametrize(
        "cell, i, count",
        [
            ((0, 0, 0), 0, 8),
            ((0, 0, 0), 1, 12),
            ((0, 0, 0), 2, 6),
            ((0, 0, 0), 3, 1),
            ((1, 0, 2), 1, 4),
        ],
    )
    def test_face_counts(self, cell, i, count):
        assert len(faces(Cell(cell), i)) == count

    @pytest.mark.parametrize(
        "cell, j, count",
        [
            ((1, 1, 0), 2, 4),  # faces around an edge in 3D
            ((1, 1), 2, 4),  # pixels around a vertex in 2D
            ((1, 1, 0), 1, 1),
            ((1, 0, 0), 3, 2),
        ],
    )
    def test_coface_counts(self, cell, j, count):
        assert len(cofaces(Cell(cell), j)) == count

    def test_identity_cases(self):
        f = Cell((2, 1, 0))
        assert faces(f, f.dim) == frozenset({f})
        assert cofaces(f, f.dim) == frozenset({f})

    def test_range_errors(self):
        with pytest.raises(ValueError):
            faces(Cell((0, 0)), 3)
        with pytest.raises(ValueError):
            faces(Cell((1, 0)), -1)
        with pytest.raises(ValueError):
            cofaces(Cell((1, 0)), 0)
        with pytest.raises(ValueError):
            cofaces(Cell((1, 0)), 3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_match_closed_forms_and_oracle(self, n):
        # sizes must equal the closed forms for every dimension pair; the
        # produced sets must equal a brute interval scan
        base = Cell(tuple(2 * k for k in range(n)))  # a shifted voxel
        for j in range(n + 1):
            f = Cell(tuple(base[k] if k < j else base[k] + 1 for k in range(n)))
            assert f.dim == j
            for i in range(j):
                got = faces(f, i)
                assert len(got) == c_bounding(i, j)
                assert {tuple(c) for c in got} == o_faces(tuple(f), i)
        for i in range(n):
            e = Cell(tuple(base[k] if k < i else base[k] + 1 for k in range(n)))
            assert e.dim == i
            for j in range(i + 1, n + 1):
                got = cofaces(e, j)
                assert len(got) == c_bounded(i, j, n)
                assert {tuple(c) for c in got} == o_cofaces(tuple(e), j)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_face_coface_duality(self, n):
        # e in faces(f, i) iff f in cofaces(e, dim f), over a voxel's closure
        closure = [Cell(c) for c in neighborhood((0,) * n)]
        for f in closure:
            for i in range(f.dim + 1):
                for e in faces(f, i):
                    assert f in cofaces(e, f.dim)
        for e in closure:
            for j in range(e.dim, n + 1):
                for f in cofaces(e, j):
                    assert e in faces(f, e.dim)

    def test_block_sizes(self):
        assert len(block(Cell((1, 1, 0)))) == 4  # (n-2)-cell in 3D
        assert len(block(Cell((1, 0, 0)))) == 2  # (n-1)-cell
        assert block(Cell((0, 0, 0))) == frozenset({Cell((0, 0, 0))})
        assert len(block(Cell((1, 1, 1, 1)))) == 16

    def test_block_members_contain_cell(self):
        e = Cell((3, 1, 0))
        for v in block(e):
            assert v.is_voxel and o_contains(tuple(v), tuple(e))


class TestAdjacency:
    def test_examples(self):
        assert adjacency(Cell((0, 0, 0)), Cell((2, 0, 0))) == (2, True)
        assert adjacency(Cell((0, 0, 0)), Cell((2, 2, 0))) == (1, True)
        assert adjacency(Cell((0, 0, 0)), Cell((2, 2, 2))) == (0, True)
        assert adjacency(Cell((0, 0, 0)), Cell((4, 0, 0))) == (None, False)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            adjacency(Cell((1, 0, 0)), Cell((0, 0, 0)))  # not a voxel
        with pytest.raises(ValueError):
            adjacency(Cell((0, 0, 0)), Cell((0, 0, 0)))  # equal voxels

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(cell_coords(n, -3, 3), cell_coords(n, -3, 3))
        )
    )
    @settings(max_examples=200)
    def test_symmetry_and_intersection_oracle(self, pair):
        v1 = Cell(tuple(2 * x for x in pair[0]))
        v2 = Cell(tuple(2 * x for x in pair[1]))
        if v1 == v2:
            return
        a12, a21 = adjacency(v1, v2), adjacency(v2, v1)
        assert a12 == a21
        shared = voxel_intersection(v1, v2)
        if a12.adjacent_at is None:
            assert shared is None
        else:
            # strictly i-adjacent: shares an i-cell and nothing higher
            assert shared is not None and shared.dim == a12.adjacent_at
            assert o_contains(tuple(v1), tuple(shared))
            assert o_contains(tuple(v2), tuple(shared))

    def test_adjacent_voxels_counts(self):
        v = Cell((0, 0, 0))
        assert len(adjacent_voxels(v, 2)) == 6
        assert len(adjacent_voxels(v, 1)) == 18
        assert len(adjacent_voxels(v, 0)) == 26
        pool = {Cell((2, 0, 0)), Cell((2, 2, 0)), Cell((4, 0, 0))}
        assert adjacent_voxels(v, 2, within=pool) == frozenset({Cell((2, 0, 0))})
        assert adjacent_voxels(v, 1, within=pool) == frozenset(
            {Cell((2, 0, 0)), Cell((2, 2, 0))}
        )

    @pytest.mark.parametrize("i", [-1, 3])
    def test_adjacent_voxels_order_outside_range(self, i):
        with pytest.raises(ValueError) as err:
            adjacent_voxels(Cell((0, 0, 0)), i)
        assert str(err.value) == f"adjacency order {i} outside [0, 2]"


class TestDuality:
    def test_dual_dimension(self):
        assert dual(Cell((1, 1))).dim == 2
        assert dual(Cell((0, 0, 0))).dim == 0
        assert dual(Cell((1, 0, 1))).dim == 2
        assert dual(Cell((1, 0, 1))).n == 3

    def test_dual_type_is_separate(self):
        d = dual(Cell((1, 0)))
        assert d != Cell((1, 0))
        assert d.coords == (1, 0)

    def test_empty_dual_cell_rejected(self):
        with pytest.raises(ValueError) as err:
            DualCell(())
        assert str(err.value) == "a dual cell needs at least one coordinate"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dual_reverses_bounding_exhaustively(self, n):
        closure = [Cell(c) for c in neighborhood((0,) * n)]
        for e in closure:
            assert dual(e).dim == n - e.dim
            for f in closure:
                assert bounds(e, f) == dual_bounds(dual(f), dual(e))
                assert incident(e, f) == dual_incident(dual(e), dual(f))


def test_package_attribute_cells_is_the_submodule():
    import sys

    import gridgaps

    assert gridgaps.cells is sys.modules["gridgaps.cells"]
    assert gridgaps.cells.faces is faces
    assert not {"cells", "border", "is_free", "b_boundary"} & set(gridgaps.__all__)


def test_package_all_is_sorted_and_star_binds_exactly_it():
    import gridgaps

    namespace: dict = {}
    exec("from gridgaps import *", namespace)
    del namespace["__builtins__"]
    assert gridgaps.__all__ == sorted(gridgaps.__all__)
    assert sorted(namespace) == gridgaps.__all__
    assert all(namespace[name] is getattr(gridgaps, name) for name in namespace)


def test_each_package_name_is_its_submodule_attribute():
    import sys

    import gridgaps

    for name in gridgaps.__all__:
        value = getattr(gridgaps, name)
        assert value.__module__.startswith("gridgaps.")
        assert getattr(sys.modules[value.__module__], name) is value


@pytest.mark.parametrize("module", ["cells", "counting", "gaps", "objects"])
def test_package_exports_every_public_definition_of(module):
    import importlib
    import inspect

    import gridgaps

    mod = importlib.import_module(f"gridgaps.{module}")
    defined = {
        name
        for name, value in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == mod.__name__
    }
    assert defined and defined <= set(gridgaps.__all__)


def test_check_object_returns_package_identity_results():
    import gridgaps
    from gridgaps.identities import check_object

    results = check_object(gridgaps.DigitalObject.from_centers(2, [(0, 0), (1, 1)]))
    assert results and all(type(r) is gridgaps.IdentityResult for r in results)
