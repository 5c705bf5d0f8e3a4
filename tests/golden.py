"""A fully worked n=5, lambda=(9,7,6,2,1) example: one tableau with its matrix,
pattern, compass recoding, and weight, used as golden data across the suite.

Entries are written level-first with "-" marking a bar, e.g. "4-" is barred 4.
"""

from symptok.algebra import LaurentPoly, xvar, yvar
from symptok.matrices import CompassPointMatrix, SympGTPattern, UTurnASM
from symptok.shapes import letter
from symptok.tableaux import PrimedShiftedTableau, ShiftedTableau

N = 5
LAMBDA = (9, 7, 6, 2, 1)
MU = (4, 3, 3)


def _codes(*entries: str):
    out = []
    for e in entries:
        barred = e.endswith("-")
        out.append(letter(int(e.rstrip("-")), barred))
    return tuple(out)


ST = ShiftedTableau(
    LAMBDA,
    (
        _codes("1", "1-", "2", "2-", "3", "3", "4", "4-", "5-"),
        _codes("2", "2", "2-", "3-", "4", "4", "4-"),
        _codes("3-", "4", "4-", "4-", "4-", "4-"),
        _codes("4-", "4-"),
        _codes("5"),
    ),
)

# One of the primed refinements of ST (primes marked per cell).
QT = PrimedShiftedTableau(
    ST,
    (
        (False, False, True, True, False, False, True, True, False),
        (True, False, False, True, False, False, True),
        (False, False, True, False, False, False),
        (False, False),
        (False,),
    ),
)

A = UTurnASM(
    (
        (1, 0, 0, 0, 0, 0, 0, 0, 0),
        (-1, 1, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, -1, 0, 1, 0, 0, 0),
        (1, 0, -1, 1, 0, 0, 0, 0, 0),
        (-1, 1, 0, -1, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1, 0),
        (1, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, -1, 1),
    ),
)

ROW_SUMS = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 0, 0, 0),
    (1, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 1, 1, 1, 0, 0),
    (1, 1, 1, 1, 1, 1, 1, 1, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
)

COL_SUMS = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 1, 0, 0, 0),
    (1, 0, 0, 1, 0, 1, 0, 0, 0),
    (0, 1, 0, 0, 0, 1, 1, 0, 0),
    (0, 1, 0, 0, 0, 1, 1, 1, 0),
    (1, 1, 0, 0, 0, 1, 1, 1, 0),
    (1, 1, 0, 0, 0, 1, 1, 0, 1),
)

# Pattern rows bottom-to-top: 1, 1', 2, 2', 3, 3', 4, 4', 5, 5'.
GT = SympGTPattern(
    (
        (1,),
        (2,),
        (3, 2),
        (4, 3),
        (6, 3, 0),
        (6, 4, 1),
        (7, 6, 2, 0),
        (8, 7, 6, 2),
        (8, 7, 6, 2, 1),
        (9, 7, 6, 2, 1),
    ),
)

CPM = CompassPointMatrix(tuple(
    tuple(row.split())
    for row in (
        "WE SE SE SE SE SE SE SE SE",
        "NS WE SE SE SE SE SE SE SE",
        "SW NW WE SE SE SE SE SE SE",
        "SE NS NW WE SE SE SE SE SE",
        "SE SE NE NS SW WE SE SE SE",
        "WE SE NS WE SE NE SE SE SE",
        "NS WE SE NS SW NW WE SE SE",
        "SW NW SW SW SW NW NW WE SE",
        "WE NE SE SE SE NE NE NE SE",
        "NE NE SE SE SE NE NE NS WE",
    )
))


def golden_weight() -> LaurentPoly:
    """(x1+y1)^2 (x2+y2)^2 (x3+y3)^3 (x4+y4)^3 (x5+y5)^2
       / (x1 x3 x4^4 x5 * y1 y2 y3^2 y4^3 y5), expanded."""
    x = lambda k, e=1: LaurentPoly.variable(xvar(k), e)
    y = lambda k, e=1: LaurentPoly.variable(yvar(k), e)
    out = LaurentPoly.const(1)
    for k, power in ((1, 2), (2, 2), (3, 3), (4, 3), (5, 2)):
        out = out * (x(k) + y(k)) ** power
    out = out * LaurentPoly.monomial({
        xvar(1): -1, xvar(3): -1, xvar(4): -4, xvar(5): -1,
        yvar(1): -1, yvar(2): -1, yvar(3): -2, yvar(4): -3, yvar(5): -1,
    })
    return out


B_STAT, R_ODD_STAT, L_EVEN_STAT = 7, 2, 5
QX_EXPONENTS = {1: 0, 2: 1, 3: 0, 4: -4, 5: 0}
QX_FACTORED = "(1+q)^7 * q^7 * x2 * x4^-4"
