"""Cycles of points with respect to a family of projections.

A finite point set admits an exact representation f(x) = sum_i g_i(p_i(x))
if and only if it carries no "cycle": a signed weighting of the points that
sums to zero on every fiber of every projection.  This demo detects cycles,
enumerates minimal ones, and solves the interpolation system on a
cycle-free set.
"""

from fractions import Fraction

from ridgekit import (
    DirectionSet,
    Fibers,
    PointConfig,
    has_cycle,
    minimal_cycles,
    solve_representation,
)


def main() -> None:
    coords = DirectionSet(2, [(1, 0), (0, 1)])

    # The four corners of the unit square form the classic cycle for the
    # two coordinate projections: weights +1/-1 alternating around the
    # square annihilate every horizontal and vertical fiber.
    square = PointConfig(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    found, cert = has_cycle(square, coords)
    print("unit square has a cycle:", found)
    print("certificate weights:", cert)

    print("minimal cycles in a 3x2 grid:")
    grid = PointConfig(2, [(x, y) for x in range(3) for y in range(2)])
    certs, exhausted = minimal_cycles(grid, coords)
    for cyc in certs:
        print("  ", cyc)
    print("search exhausted:", exhausted)

    # A staircase set is cycle-free, so any data can be matched exactly by
    # a sum g1(x) + g2(y).  Its fibers are computed once and serve both
    # questions.
    stairs = Fibers(PointConfig(2, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]),
                    coords)
    found, _ = has_cycle(stairs)
    print("staircase has a cycle:", found)

    values = [Fraction(v) for v in (3, 5, 2, 7, 4)]
    tables, free = solve_representation(stairs, f_values=values)
    print("summand tables (fiber value -> summand value):")
    for i, tab in enumerate(tables):
        printable = {str(k): str(v) for k, v in sorted(tab.items())}
        print(f"  g{i + 1}:", printable)
    print("free parameters:", free)


if __name__ == "__main__":
    main()
