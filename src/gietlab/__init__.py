"""Rauzy combinatorics, exact induction, full families and pullback realization
for generalized interval exchange transformations."""

from .combinatorics import (
    CombinatorialDatum,
    IntMatrix,
    RauzyArrow,
    RauzyClass,
    RauzyPath,
    all_admissible_data,
    find_cyclic,
    find_path,
    is_admissible,
    parse_datum,
    parse_datum_text,
    path_matrix,
    path_predicates,
    rauzy_class,
    rauzy_step,
    reduction,
    return_times,
    sigma_and_cyclicity,
)
from .exact_iet import ExactIET, in_cone, cone_coordinates
from .branches import (
    Affine,
    Branch,
    Chain,
    PiecewiseLinear,
    SmoothParam,
    Translation,
    Window,
)
from .giet import (
    DynamicalPartition,
    Giet,
    dynamical_partition,
    giet_distance,
    giet_from_branches,
    giet_from_iet,
    partitions_equivalent,
    verify_matrix_counts,
)
from .full_family import (
    Degeneration,
    FamilySlopes,
    apply,
    boundary_apply,
    extended_distance,
    slopes,
)
from .thurston import (
    Configuration,
    ExactIETFamily,
    GietFamily,
    LabelClass,
    RefConfig,
    build_reference,
    family_from_iet,
    realize,
    reference_configuration,
    solve,
    step,
    tau_of,
)
from .semiconjugacy import MonotonePLMap, build_semiconjugacy, residual

__version__ = "0.1.0"
