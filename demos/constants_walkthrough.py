#!/usr/bin/env python3
# Reproduce the analytic constants from the exact side of the package.
#
# delta0(D, alpha) is the positive root of 12 d^2 + 32 d - (8 D alpha + 39);
# it marks the orbit growth needed before the sieve has any level to spend.
# The sifting function m(alpha, kappa; zeta) is minimized at the root of its
# stationarity equation log zeta + kappa/zeta = A, found by Newton's method,
# and floor(m*) + 1 is the almost-prime exponent the sieve certifies.

from fractions import Fraction

from triplesieve import (
    alpha_min_for_R,
    delta0,
    greaves_threshold,
    m_dhr,
    optimize_m,
    saturation_R,
    saturation_table,
    table_text,
)


def main() -> None:
    alpha_z = greaves_threshold()
    print(f"hypotenuse level alpha = 1/(4 - 0.103974) = {alpha_z:.7f}")
    print(f"delta0(2, alpha)  = {delta0(2, alpha_z):.9f}   (z form)")
    print(f"delta0(4, 0.1483334) = {delta0(4, 0.1483334):.9f}   (area)")
    print(f"delta0(6, 0.09980986) = {delta0(6, 0.09980986):.9f}   (product)")
    print()

    for label, alpha, kappa in (
        ("area    level 5/32", Fraction(5, 32), 4),
        ("product level 5/48", Fraction(5, 48), 5),
        ("area    level 7/48", Fraction(7, 48), 4),
        ("product level 7/72", Fraction(7, 72), 5),
    ):
        zeta, m_star = optimize_m(alpha, kappa)
        R = saturation_R(alpha, kappa)
        print(f"{label}: m* = {m_star:.6f} at zeta = {zeta:.4f}  ->  R = {R}")
    print()

    sample = Fraction(5, 32)
    print("m(5/32, 4; zeta) along the unimodal stretch:")
    for z in (1.0, 2.0, 3.0, 3.6, 4.5, 6.0, 8.0):
        print(f"  zeta = {z:4.1f}: m = {m_dhr(sample, 4, z):9.4f}")
    print()

    print(f"least area level certifying R=18:    {alpha_min_for_R(4, 18):.7f}")
    print(f"least product level certifying R=26: {alpha_min_for_R(5, 26):.7f}")
    print()
    print(table_text(saturation_table()))


if __name__ == "__main__":
    main()
