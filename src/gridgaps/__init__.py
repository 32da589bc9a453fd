"""Digital n-objects in the grid-cell model: cells, censuses and gaps.

The package enumerates the cells of finite voxel sets in any dimension,
classifies them as free or non-free, detects (n-2)-gaps by direct block
inspection, and evaluates the closed-form gap counts that must agree with
the inspection on every object.
"""

from .cells import (
    Adjacency,
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
from .counting import (
    b_in_voxel,
    block_cell_count,
    block_free_facets,
    c_bounded,
    c_bounding,
    degrees_from_relation,
    incidence_sum_check,
    lblock_cell_count,
    lblock_free_facets,
)
from .gaps import (
    GapReport,
    HubClass,
    HubTag,
    classification_histogram,
    classify_cell,
    count_gaps_block_formula,
    count_gaps_formula,
    count_gaps_oracle,
    hub_nub_partition,
    is_gap,
    is_gap_by_adjacency,
)
from .identities import IdentityResult, check_object
from .objects import CellCensus, DigitalObject, census
from .shapes import ShapeSpec, enumerate_all_objects, generate

__version__ = "0.1.0"

# every class and function imported above from a submodule is public
__all__ = sorted(
    name
    for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(__name__ + ".")
)
