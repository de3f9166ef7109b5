"""The one reflection routine: `reflected(f, n, x)` is (-1)^n f(-x), and
`Report.reflections` checks it against a count for x = 1..last."""

from fractions import Fraction

import pytest

from gpcount.polynomial import Polynomial, QuasiPolynomial
from gpcount.report import CheckEntry, Report, reflected

POLY = Polynomial([Fraction(1, 2), 3, 0, Fraction(-1, 6)])
# period 2: -x reads the constituent of its residue class, the second at odd x
QUASI = QuasiPolynomial(2, [Polynomial([1, 2]), Polynomial([Fraction(1, 3), 0, 5])])


@pytest.mark.parametrize("f", [POLY, QUASI], ids=["polynomial", "quasipolynomial"])
@pytest.mark.parametrize("n", [2, 3])
def test_reflected_is_the_signed_value_at_minus_x(f, n):
    for x in range(1, 5):
        assert reflected(f, n, x) == (-1) ** n * f(-x)


def test_reflected_reads_the_constituent_of_minus_x():
    # 1 + 2t at even t, 1/3 + 5t^2 at odd t, for negative t as well
    assert [reflected(QUASI, 3, x) for x in range(1, 5)] == [
        -Fraction(16, 3), 3, -Fraction(136, 3), 7]


def test_reflections_labels_each_x_in_order_and_counts_once_per_x():
    seen = []

    def count(x):
        seen.append(x)
        return -POLY(-x)

    report = Report()
    report.check("first", 1, 1)
    assert report.reflections("t=", POLY, 3, count, 4) is report
    assert seen == [1, 2, 3, 4]
    assert report.entries == [CheckEntry("first", 1, 1)] + [
        CheckEntry(f"t={x}", reflected(POLY, 3, x), -POLY(-x)) for x in range(1, 5)]
    assert report.failures == 0
    # the even n of the same count fails wherever the value at -x is nonzero
    even = Report().reflections("m=", POLY, 2, lambda x: -POLY(-x), 2)
    assert [e.label for e in even.entries] == ["m=1", "m=2"] and even.failures == 2
