"""Recurrent sets of lines for planar self-similar attractors.

Build a candidate recurrent set from an L2 density scan and a word-counting
slice test, search for a small perturbation of the system under which the
candidate recurs, and certify numerically that projections of the perturbed
attractor contain intervals.
"""

from .config import RunConfig, build_pipeline, config_from_json_dict, load_config
from .errors import BudgetExceeded, ConfigError
from .ifs import (
    IfsSpec,
    MapArrays,
    OscReport,
    Similarity,
    check_osc_unit_square,
    epsilon_distance,
    ifs_from_json_dict,
    make_ifs,
    similarity_dimension,
)
from .lines import renormalize_affine, renormalize_arrays
from .measure import (
    DirectionSet,
    build_E,
    l2_norm_estimate,
    measured_c9,
    projected_histogram,
    select_c5,
    stopping_cylinders,
)
from .recurrence import (
    GridGeometry,
    GridMembership,
    IntervalCertificate,
    RecurrenceReport,
    RecurrentCandidate,
    RowRuns,
    SliceBuilder,
    SliceParams,
    attractor_points,
    build_candidate,
    certify_projection_interval,
    certify_projection_intervals,
    check_recurrence,
    first_witness,
    first_witness_rows,
    recurrence_rows,
    two_letter_words,
)
from .search import (
    CoverageTester,
    SearchOutcome,
    build_perturbed_ifs,
    closeness_report,
    draw_omegas,
    hull_obstruction,
    invariant_polygon,
    omega_from_json,
    omega_letters,
    omega_to_json,
    search_omega0,
)
from .systems import BUILTIN, cantor_dust, four_corner, get_builtin, sierpinski

__all__ = [name for name in dir() if not name.startswith("_")]
