"""Best uniform approximation by sums of ridge functions on a rectangle.

For smooth functions whose mixed directional derivative keeps one sign,
the best sup-norm approximation by g1(a.x) + g2(b.x) has a closed form
built from the values of f at the domain's corners.  The demo computes
the closed form, confirms it against a grid linear program, checks the
extremal-point certificate, and runs the classical alternating
(Diliberto-Straus) iteration to the same error.
"""

from fractions import Fraction

from ridgekit import (
    ParallelogramDomain,
    best_uniform,
    diliberto_straus,
    grid_minimax_oracle,
    verify_extremal,
)


def main() -> None:
    f = lambda x, y: x * y
    dom = ParallelogramDomain((1, 0), (0, 1), 0, 1, 0, 1)

    result = best_uniform(f, dom)
    print("closed-form error for xy on the unit square:", result.error)

    grid = [(Fraction(i, 40), Fraction(j, 40))
            for i in range(41) for j in range(41)]
    lp = grid_minimax_oracle(f, [(1, 0), (0, 1)], grid)
    print("grid LP value (41x41):", round(lp, 6))

    report = verify_extremal(f, result, dom)
    print("extremal certificate verdict:", report["verdict"])
    print("alternating extremal path length:", len(report["witness"]))

    norms, _tables = diliberto_straus(f, dom, iters=100, grid_n=41)
    print("Diliberto-Straus residual after 100 sweeps:", round(norms[-1], 6))

    # Skew directions: anything of the form g1(x+y) + g2(x-y) is matched
    # exactly, so the error vanishes.
    g = lambda x, y: (x + y) ** 2 + (x - y) ** 3
    skew = ParallelogramDomain((1, 1), (1, -1), 0, 1, 0, 1)
    print("error for an exact skew ridge sum:", best_uniform(g, skew).error)


if __name__ == "__main__":
    main()
