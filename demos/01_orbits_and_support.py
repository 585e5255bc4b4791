"""Orbits of polynomials under variable permutations, and support analysis.

A permutation group acts on polynomials by relabelling variables.  The
orbit of a single polynomial can be surprisingly small (it is a single
point when the polynomial is symmetric) or as large as the group.
"""

from symorbits import (
    QQ,
    PermGroup,
    analyze_support,
    elementary_symmetric,
    orbit,
    parse_polynomial,
)

f = parse_polynomial("x1^2*x2 + x1*x2^2", 3, QQ)
group = PermGroup.symmetric(3)

print(f"f = {f}")
print(f"group: {group.descriptor} with {group.order} elements")
print("orbit of f:")
for g in orbit(f, group):
    print(f"  {g}")

e = elementary_symmetric(3, (1, 2, 3), 2, QQ)
print(f"\ne = {e} is symmetric, so its orbit is a single polynomial:")
print(f"  orbit size = {len(orbit(e, group))}")

profile = analyze_support(f.support())
print(f"\nsupport analysis of f: {profile}")
print("every exponent vector of f has exactly 2 positive entries,")
print("so every monomial that could ever enter the orbit ideal is")
print("divisible by a product of 2 distinct variables.")

big = PermGroup.symmetric(6)
extended = parse_polynomial("x1^2*x2 + x1*x2^2", 6, QQ)
print(f"\nthe same f inside 6 variables has orbit size {len(orbit(extended, big))}")
print("(one polynomial per pair of distinct variable indices, since f is")
print("symmetric in x1 and x2)")

huge = PermGroup.symmetric(12)
g = parse_polynomial("x1*x2 - x3", 12, QQ)
print(f"\n{huge.descriptor} has order {huge.order}, yet no element is enumerated:")
print(f"the orbit of {g} has size {len(orbit(g, huge))}")
