"""Matrix optimization with orthogonalized momentum and randomized polar maps.

Subpackages:
  matcore   -- dense matrix primitives, compact SVD, RNG streams
  polar     -- exact and polynomial polar decomposition
  sketch    -- lifted randomized polar decomposition and its bound calculators
  optimizer -- Muon update rule, schedules
  noise     -- synthetic problems and heavy-tailed gradient oracles
  verify    -- numerical certification of the alignment/spectral constants
  config    -- run configuration file format
  runner    -- experiment runs and sweeps
  suites    -- named verification suites
  cli       -- command-line entry point
"""

from .matcore import RngStream, Svd, frobenius_norm, inner_product, nuclear_norm, operator_norm, svd
from .polar import (
    PolarConfig,
    PolynomialSchedule,
    cubic_schedule,
    exact_polar,
    inexact_polar,
    polar_express_schedule,
    prop1_gamma,
    quintic_empirical_schedule,
    quintic_theoretical_schedule,
)
from .sketch import SketchConfig, SpectrumSummary, randomized_polar
from .optimizer import MuonState, corollary1_schedule, min_batch_size, muon_step, theorem1_schedule

__version__ = "0.1.0"
