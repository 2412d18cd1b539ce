"""Prime geodesic counting on the Picard manifold, made executable.

Modules by theme:

  gaussian     exact arithmetic and multiplicative functions over Z[i]
  characters   quadratic residue symbols and the pinned discriminant character
  quad_counts  rho/lambda counting functions and Kloosterman sums
  lfunctions   Dirichlet series, the coefficient factorization, smoothed values
  lattice      shifted-circle lattice counts and the remainder exponent
  trace_engine vectorized smoothed-value sweeps over many traces
  geodesics    the counting function Psi, short intervals, smoothed counts
  spectral     spectral exponential sums and the explicit-formula comparison
  exponents    the balancing equations and every headline exponent
  harness      exponent fitting and experiment plumbing
  acceptance   the executable acceptance gate behind `pgt verify`
"""

from .gaussian import (CanonicalIdealRep, Factorization, GaussianInt,
                       canonical_rep, divisor_count, divisors, euler_phi,
                       factor, gcd, mobius, sigma_xi)
from .characters import (DiscriminantSplit, QuadraticCharacter, chi,
                         discriminant_split, pin_even_unit_values,
                         quadratic_character, residue_symbol)
from .quad_counts import (KloostermanValue, kloosterman,
                          kloosterman_identity_check, lambda_,
                          lambda_partial_sum, rho_bruteforce, rho_fast)
from .lfunctions import (SmoothedValue, L_chi, R_V_estimate, T_l_poly,
                         normalization_sum, szmidt_coefficient_check, zagier_L1,
                         zeta_qi)
from .lattice import EtaFit, LatticeCountResult, circle_count, eta_fit, \
    residue_class_count
from .geodesics import (GeodesicCountResult, KernelSpec, PsiOptions,
                        ShortIntervalResult, TowerStats, TraceTerm, psi,
                        psi_short_interval, psi_smoothed, tower_stats,
                        trace_threshold)
from .spectral import (EigenvalueTable, explicit_formula_residual,
                       load_eigenvalues, smoothed_spectral_side, spectral_sum,
                       stx_bound_report)
from .exponents import (corollary_exponents, short_interval_exponents,
                        solve_alpha, solve_beta, uncond_system)
from .harness import FitResult, fit_exponent

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
