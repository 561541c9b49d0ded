#!/usr/bin/env python3
# Walk one orbit ball end to end: enumerate, grade, count almost primes.
#
# The modular group acting on (1,0,0,1) reaches every primitive Pythagorean
# triple up to sign.  Grading factors the hypotenuse of every orbit point
# with |gamma| <= T and reports how many are prime, semiprime, and so on.
#
#   python3 demos/orbit_census_tour.py --T 200

import argparse

from triplesieve import Form, census, enumerate_ball, modular_generators, triple_from_row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=float, default=200.0)
    args = ap.parse_args()

    ball = enumerate_ball(modular_generators(), args.T)
    print(f"ball |gamma| <= {args.T}: {len(ball)} group elements")

    rows = {(c, d) for c, d in ball.rows[:, 2:4].tolist() if c > 0 and d > 0}
    print("sample rows and their triples:")
    for c, d in sorted(rows, key=lambda r: (r[0] ** 2 + r[1] ** 2, r))[:8]:
        t = triple_from_row(c, d)
        print(f"  (c,d)=({c},{d})  ->  ({t.x}, {t.y}, {t.z})   z = {t.z}")

    for f in (Form.Z, Form.AREA, Form.PRODUCT):
        report = census(ball, f, 6)
        counts = {r: report.count_at_most(r) for r in (1, 2, 3, 6)}
        print(
            f"{f.value:>8}: {report.summary()['rows']} values, "
            f"P1 {counts[1]}, <=P2 {counts[2]}, <=P3 {counts[3]}, <=P6 {counts[6]}, "
            f"units {report.units}, max |n| = {report.max_abs_value}"
        )


if __name__ == "__main__":
    main()
