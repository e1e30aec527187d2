"""Displaced Gaussian boson sampling: exact loop-Hafnian probabilities,
in-situ state reconstruction from coherent-probe fringes, classical
surrogates, and synthetic-experiment tooling."""

__version__ = "0.1.0"

from .errors import (ConfigurationError, CutoffError, DgbsError,
                     EnumerationBudgetError, NumericalError,
                     PhysicalityError, SchemaError)
from .hafnian import matching_polynomial
from .metrics import LikelihoodTrace, likelihood_ratio, tvd
from .probability import (ModelSpec, PatternDistribution, StateKernel,
                          all_patterns, distribution_from_kernel,
                          predict_single, predict_twofold)
from .reconstruction import (FringeFits, MeasurementRecord,
                             ReconstructionResult, fit_fringe, gauge_fix,
                             reconstruct, records_from_csv, records_to_csv)
from .states import (AMatrix, ClassicalStateParams, GaussianState,
                     SourceConfig, TransferMatrix, a_matrix,
                     build_classical_input, build_input_state,
                     closest_classical_state, propagate, state_from_a)

__all__ = [name for name in dir() if not name.startswith("_")]
