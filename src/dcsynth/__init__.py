"""Fixed-point digital controller synthesis for uncertain discrete plants.

Synthesizes controllers in a finite word length format that provably
BIBO-stabilize every plant in a coefficient-box uncertainty family, using a
counterexample-guided loop with a fast exact stage over the plant grid and a
sound stage over the inflated family.  Both decide a box by interval Jury,
then a strict sign of the closed loop's leading coefficient, exact Jury of
the box centre and a zero-exclusion sweep of the unit circle; only where
one of these refuses, by exact Jury of the box vertices, the sign of the
leading coefficient there, and the box edges (Edge Theorem).
"""

from .benchmark import BenchmarkSpec, parse_benchmark, parse_controller
from .cegis import (Limits, SynthesisResult, cegis_one_stage, cegis_two_stage,
                    synthesize_candidate, verify_precision, verify_uncertainty)
from .discretize import ContinuousTF, zoh_discretize
from .errors import (ArithmeticOverflow, DcsynthError, DeadlineExceeded,
                     DegenerateCharPoly, DegenerateLoop, DivisionByZero,
                     DivisorContainsZero, ImproperTransferFunction,
                     NoCandidate, NonpositiveSampleTime, Overflow, ParseError,
                     ValidationError)
from .fixedpoint import (FixedPointFormat, FixedPointValue, quantize_nearest,
                         quantize_poly, quantize_truncate)
from .intervals import (IntervalPoly, RationalInterval, family_grid_box,
                        family_to_interval_poly, ipoly_add, ipoly_mul)
from .simulate import (NoiseModel, SimulationTrace,
                       cancellation_on_or_outside_unit_circle,
                       frequency_margins, sensitivity_functions,
                       step_response, write_margins)
from .stability import (JuryVerdict, Status, jury_stable, jury_stable_interval,
                        root_oracle)
from .transfer import (Controller, PlantFamily, Poly, TransferFunction,
                       char_poly, poly_add, poly_mul)

__version__ = "0.1.0"
