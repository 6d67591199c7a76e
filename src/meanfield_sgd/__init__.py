"""Wide one-layer networks under 1/N-scaled online SGD, their mean-field
limit, and the statistical machinery that checks the two against each other.
"""

__version__ = "0.1.0"

from ._blas import pin_one_thread

pin_one_thread("numpy")  # before the first numpy import: see _blas

from .core import (Activation, ConfigError, DivergedError, RandomStreams,
                   RejectedInputError, TestFunction, activation,
                   clamped_polynomial, constant_one, default_test_functions,
                   gaussian_bump, mean_output, smoothed_coordinate)
from .data import (Batch, DataModel, IdxFormatError, InitLaw, default_init,
                   default_model, from_network, load_mnist_idx,
                   noisy_polynomial, sample_data, sample_init, teacher_network)
from .measure import (EmpiricalMeasure, Histogram1D, histogram, histogram_w1,
                      pair, resample, sliced_wasserstein, wasserstein,
                      wasserstein_bruteforce)
from .sgd import (Ensemble, TrainResult, TrainSchedule, moment_guard,
                  run_default, sgd_step, train)
from .meanfield import (MeanFieldSolution, PicardResult, Quadrature,
                        QuadratureSpec, drift, freeze_quadrature,
                        frozen_start, node_arrays, picard_iterate, q_on_nodes,
                        seed_resampled_floor, solve_selfconsistent,
                        weak_residual, weak_residuals)
from .diagnostics import (ChaosTable, LimitTable, LlnTable, MartingaleTable,
                          MomentTable, ReplicaStudy, chaos_table, chaos_test,
                          limit_distance, lln_decay, martingale_decay,
                          moment_bound, reconcile_decomposition, run_study)
