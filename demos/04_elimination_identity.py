"""The elimination identity: writing a monomial as a combination of
elementary symmetric orbit members.

In n+d variables, the monomial x1...xd times C(n,d) equals an alternating
sum of e_n^d evaluated on all n-element index subsets, weighted by the
closed-form coefficients C(n-1,d)/C(n-1,d-j).  Both sides are fixed by
every permutation of x1..xd and of the other n variables, so two square-free
monomials that share as many of x1..xd have the same coefficient; the
identity is checked by expanding one monomial of each such class exactly,
which covers every monomial.  Over small prime fields it can fail because a
coefficient denominator vanishes.
"""

from symorbits import (
    GF,
    QQ,
    elimination_coefficients,
    telescoping_certificate,
    verify_elimination_identity,
)

for n, d in ((2, 1), (3, 2), (5, 3)):
    coeffs = elimination_coefficients(n, d, QQ)
    report = verify_elimination_identity(n, d, QQ)
    print(f"n={n}, d={d}: coefficients {[str(c) for c in coeffs]}, "
          f"identity holds: {report.verdict}")

print()
try:
    elimination_coefficients(3, 2, GF(2))
except ValueError as err:
    print(f"over GF(2): {err}")
print(f"over GF(5): identity holds: {verify_elimination_identity(3, 2, GF(5)).verdict}")

print()
cert = telescoping_certificate(3, 2, 5)
print("telescoping chain showing (x1 - x4)(x2 - x5) lies in the orbit ideal of e_3^2:")
print(f"  start: {cert.start}")
for tau, link in zip(cert.transpositions, cert.chain):
    print(f"  after subtracting the {tau}-image: {link}")
