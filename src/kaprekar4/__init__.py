"""Four-digit Kaprekar routine in any base.

Exact integer dynamics of the digit-rearrangement subtraction step, its
difference-pair reduction, closed-form predictions for worst-case distances
and convergent fractions, and a verification harness comparing the two.
"""

from .digits import (
    DigitQuad,
    join_digits,
    split_digits,
    step_value,
    to_digits,
)
from .dynamics import (
    BaseReport,
    Cycle,
    FixedNumeral,
    PairDistanceMap,
    Terminal,
    Trajectory,
    UndeterminedOrbitError,
    ZeroSink,
    base_report,
    fixed_numeral_value,
    integer_distance,
    pair_distance_map,
    trajectory,
)
from .pairs import (
    PairType,
    canonical_pairs,
    fixed_pair,
    pair_count,
    pair_of_digits,
    step_pair,
)
from .predictions import (
    BaseClass,
    FiveMultiple,
    GridLanding,
    NoFixedPoint,
    TwoOrFour,
    classify_base,
    fixed_point_digits,
    grid_landing,
    predict_convergent_fraction,
    predict_max_distance,
)
from .tables import (
    GridArrival,
    LandingWitness,
    cell_step_bound,
    cycle_cells,
    grid_arrival,
    landing_bound,
    landing_witnesses,
    max_total_steps,
)
from .verify import Check, PredictionReport, verify_base

__version__ = "0.1.0"
