"""Count permutations with a fixed descent set three different ways.

For a fixed set S, the number d(S, n) of permutations of n whose
descent set is exactly S is a polynomial in n. This script pins the
class down by listing its members, by the exact counting engine, and by
expanding d(S, n) in the binomial basis C(n-m, k), then checks that
all three agree.
"""
from peakpoly import (
    DescentClassQuery,
    count_descent_class,
    descent_coeffs,
    enumerate_descent_class,
    parallel_count,
)

S = (2, 3)


def main():
    # Small n: list the class explicitly.
    query = DescentClassQuery(S, 5)
    members = list(enumerate_descent_class(query))
    print(f"permutations of 5 with descent set {set(S)}: {len(members)}")
    for p in members[:5]:
        print(f"  {p}")
    print(f"  ... and {len(members) - 5} more")

    # The counting engine gives the same number without enumerating, and
    # keeps working long after enumeration becomes unthinkable.
    for n in (5, 8, 20, 100):
        print(f"d({set(S)}, {n}) = {count_descent_class(S, n)}")

    # The binomial-basis coefficients package the whole family of
    # counts into one object.
    poly = descent_coeffs(S, 4)
    print(f"coefficients around n=4: {list(poly.coeffs)}")
    print(f"  pretty: {poly.pretty()}")
    for n in (8, 20):
        print(f"  evaluate({n}) = {poly.evaluate(n)}")

    # Recentering rewrites the same polynomial around a larger center;
    # values are unchanged.
    shifted = poly.recenter(5)
    print(f"recentered around n=5: {list(shifted.coeffs)}")
    assert shifted.evaluate(20) == poly.evaluate(20)

    # Counting splits cleanly over prefixes, each counted on its own;
    # the split depth never changes the answer.
    big = DescentClassQuery(S, 9)
    serial = parallel_count(big, 0)
    split = parallel_count(big, 2)
    print(f"d({set(S)}, 9) serial {serial}, split over prefixes {split}")
    assert serial == split


if __name__ == "__main__":
    main()
