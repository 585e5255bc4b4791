"""Radical membership, monomial radicals and witness points.

Radical membership is decided exactly by adjoining one variable.  The
term supports of an orbit fix the only monomial ideal its radical can be:
M, generated by x_S for each minimal support S, always contains the
radical, and ``radical_orbit_equality`` decides whether they are equal
with one membership test per group orbit of minimal supports.  When a
radical fails to contain a monomial, a witness point with convenient
structure (all-ones, a constant diagonal, or a sign pattern) often
certifies the failure at a glance: any point with all coordinates nonzero
that kills every generator rules out every monomial at once.
"""

from symorbits import (
    GF,
    QQ,
    PermGroup,
    elementary_symmetric,
    monomial_free_witness,
    orbit_ideal,
    parse_polynomial,
    radical_member,
    radical_orbit_equality,
)

f = parse_polynomial("x1^2*x2 + x1*x2^2", 3, QQ)
group = PermGroup.symmetric(3)
gens = list(orbit_ideal([f], group).expanded)
print(f"orbit ideal of {f} under S3:")
print(f"  x1*x2*x3 in radical: {radical_member(parse_polynomial('x1*x2*x3', 3, QQ), gens)}")
print(f"  x1*x2 in radical:    {radical_member(parse_polynomial('x1*x2', 3, QQ), gens)}")
witness = monomial_free_witness(f, group)
print(f"  witness killing all generators: {tuple(str(x) for x in witness)}")
print("  (a point with a single zero kills the monomials divisible by that")
print("   variable, which is exactly why x1*x2 stays out of the radical)")

print()
for p in (2, 3):
    field = GF(p)
    e = elementary_symmetric(5, (1, 2, 3), 2, field)
    report = radical_orbit_equality(e, PermGroup.symmetric(5))
    representatives = ", ".join(report.certificate["representatives"])
    print(f"over GF({p}): radical equals the monomial ideal of the orbit of "
          f"{representatives}: {report.verdict}")
    if report.notes:
        print(f"  {report.notes}")
