"""Measure the short-interval prime densities the construction relies on.

The chain construction needs intervals [x, x + x^gamma] and counting windows
[p^c, p^c + p^(c-1)] to hold roughly their fair share of primes. That is a
theorem only for large x with unspecified constants; here we just measure.
"""

from fractions import Fraction

from primecantor.survey import CSV_HEADER, gamma_survey, matomaki_fraction


def main():
    print("primes in [x, x + x^(2/3)] (density_ratio ~ 1 under PNT heuristics)")
    print(CSV_HEADER)
    for rec in gamma_survey([10**6, 10**8, 10**10], Fraction(2, 3)):
        print(rec.csv_row())

    print()
    for X in (100, 200, 1000):
        total, good, frac = matomaki_fraction(X, Fraction(2), 0.5)
        print(f"X={X:<5} windows [p^2, p^2+p] holding >50% expected primes: "
              f"{good}/{total} = {frac:.2f}")


if __name__ == "__main__":
    main()
