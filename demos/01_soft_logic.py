"""Soft-logic operators.

Shows the graded connectives and their exact Boolean restriction.
"""

import itertools

from ruledistill import avg_conj, disj, implies, neg, strong_conj


def main():
    print("Boolean restriction (operators are exact on {0, 1}):")
    print("  a b | a&&b  a|b  a=>b  !a")
    for a, b in itertools.product((0.0, 1.0), repeat=2):
        print(f"  {a:.0f} {b:.0f} |  {strong_conj(a, b):.0f}    "
              f"{disj(a, b):.0f}    {implies(a, b):.0f}    {neg(a):.0f}")

    print("\nGraded truth values interpolate:")
    for a, b in ((0.8, 0.3), (0.6, 0.6), (0.2, 0.9)):
        print(f"  a={a} b={b}: a&&b={strong_conj(a, b):.2f} "
              f"a|b={disj(a, b):.2f} a=>b={implies(a, b):.2f} "
              f"avg={avg_conj([a, b]):.2f}")


if __name__ == "__main__":
    main()
