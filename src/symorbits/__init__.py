"""Exact computer algebra for ideals generated by permutation-group orbits
of polynomials: orbit expansion, graded and Groebner membership, radical
checks, the elimination identity for elementary symmetric orbits, and
randomized genericity sampling."""

from .fields import (
    GF,
    QQ,
    Field,
    binomial,
    binomial_alternating_sum,
)
from .genericity import sample_genericity
from .groebner import (
    GroebnerBasis,
    buchberger,
    radical_equals_irrelevant,
    radical_member,
)
from .ideals import (
    GradedPiece,
    OrbitIdeal,
    graded_member,
    graded_piece,
    ideal_equal,
    orbit_ideal,
    rank_condition,
)
from .linalg import ExactMatrix, in_span, rank
from .permutations import PermGroup, Permutation, orbit
from .polynomials import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    PolynomialSyntaxError,
    SupportProfile,
    SupportSet,
    analyze_support,
    elementary_symmetric,
    format_polynomial,
    monomial_type,
    monomials_of_degree,
    monomials_of_type,
    parse_polynomial,
)
from .reports import BudgetExceededError, CertificateError, GenericityReport, VerdictReport
from .verifiers import (
    TelescopingCertificate,
    elimination_coefficients,
    monomial_free_witness,
    radical_orbit_equality,
    solve_cancellation_system,
    telescoping_certificate,
    verify_elimination_identity,
    verify_squarefree_orbit,
)

__version__ = "0.1.0"
