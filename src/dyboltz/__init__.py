"""Spectral solver and verification toolkit for the linearized Boltzmann
equation with Maxwellian molecules and a Debye-Yukawa grazing-collision
kernel: eigenvalues by singular quadrature, exact evolution in the
eigenbasis, weighted spectral norms, and finite-truncation checks of the
smoothing/decay claims."""

from .basis import (ModeIndex, SpectralField, eval_phi, fourier_sqrtmu_phi,
                    inner_product_numeric, orthonormality_max_deviation,
                    oscillator_residual, project_null)
from .errors import (CacheError, EigenvalueLookupError,
                     QuadratureConvergenceError, ResolutionError)
from .kernel import (EigenvalueEntry, EigenvalueTable, KernelParams,
                     QuadratureSpec, asymptotic_leading, beta, eigen_integrand,
                     eigenvalue, eigenvalue_table, load_table,
                     radial_eigenvalues, ratio_bounds, save_table)
from .solver import (DelaySeries, EvolutionReport, S2DelaySeries,
                     SobolevSeries, TailVerdict, choose_c0, classify_frontier,
                     decay_check_thm12, evolve, log_coeff, rate1_certificate,
                     rate1_check, rate2_check, series_tail_classify,
                     weak_form_residual)
from .spaces import (NormSpec, embedding_estimate, log_weight, parse_norm_spec,
                     spectral_norm, young_min, young_rhs)
from .specfun import (assoc_legendre_norm, hermite_osc, laguerre, legendre,
                      legendre_scaled_gap)

__version__ = "0.1.0"
