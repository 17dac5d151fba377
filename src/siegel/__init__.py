"""Connection coefficients and derivative operators on the Siegel upper
half space, with every identity reduced to a machine-checkable residual or
an exact coefficient match."""

__version__ = "0.1.0"

from .indexing import omega_list
from .symplectic import (SiegelPoint, SymplecticElement, DimensionError,
                         DegeneracyError, act,
                         cocycle, tangent_pushforward,
                         pushforward_matrix, pushforward_matrix_derivative,
                         random_symplectic, random_point)
from .metric import MetricPair, metric_pair
from .connection import (gamma_closed, gamma_from_metric,
                         mcc_residual, apply_D, d_f_detk, d_trace_form,
                         equivariance_residual, invariance_residual,
                         kron_trace)
from .forms import FormPolynomial, det_dz, trace_form
from .functions import TestFunction, random_test_function
from .operators import (sym_gradient, nabla, det_nabla, ModularExtension,
                        im_inverse, verify_nabla_transform, verify_G_law,
                        bracket1, bracket1_transform_residual)
from .qseries import (QSeries, G2_FACTOR, eisenstein, g2_series, delta,
                      serre_derivative, bracket1_classical, evaluate,
                      membership_in_Mw, ModularBasis, anomaly_residual)
