"""Exact enumeration of essentially irreducible maps with even face degrees.

Counting polynomials for genus 0, 1, 2, their structural identities
(string/dilaton, transform inversion, moment-route agreement), and an
independent brute-force polygon-gluing oracle whose leaf check tests
contractibility exactly, by words in the fundamental group.
"""

from .families import (ConsistencyError, power_one_plus_r, qpoly_direct_sum_oracle,
                       qpoly_table, series_I, series_J, series_J_inverse)
from .oracle import (GluingSpec, HalfEdgeMap, OracleError, SizeError, brute_count,
                     check_irreducible)
from .pipeline import (CountPolynomial, DomainError, InvariantViolation,
                       UnsupportedGenusError, count_exact, girth_count, moment_hat,
                       moment_hat_via_T, moment_hats, moment_hats_via_Q, moment_hats_via_T,
                       nhat, nhat_genus0, nhat_higher_genus, solve_R_hat, to_m_basis)
from .ring import (ContextError, GradedSeries, MultiPoly, Rational, Series,
                   TruncationError, bernoulli_plus, power_sum_coeffs)
from .serialize import count_csv_rows, emit_polynomial_json
from .verify import (VerificationReport, cross_verify_counts, verify_ab_inverse,
                     verify_dilaton, verify_moments, verify_qpoly, verify_string,
                     verify_table1)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
