"""Four-digit Kaprekar routine in any base.

Exact integer dynamics of the digit-rearrangement subtraction step, its
difference-pair reduction, closed-form predictions for worst-case distances
and convergent fractions, and a verification harness comparing the two.
Only the entry points and their types are here; the rest is in its module.
"""

from .digits import DigitQuad, step_value, to_digits
from .dynamics import (
    BaseReport,
    Cycle,
    FixedNumeral,
    Trajectory,
    UndeterminedOrbitError,
    ZeroSink,
    base_report,
    trajectory,
)
from .predictions import predict_convergent_fraction, predict_max_distance
from .verify import Check, PredictionReport, verify_base

__version__ = "0.1.0"
