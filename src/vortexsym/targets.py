"""Frozen reference values that the derivation pipeline must reproduce.

Every oracle check in :mod:`vortexsym.scenarios` compares a quantity the
package derives from scratch against one of these constants.  Polynomial
targets are stored in the plain text format of :mod:`vortexsym.ratpoly`,
factored the way the classification states them, and parsed once per
process on first use (``parsed``, ``build_products``); numeric targets
carry six significant figures and are matched to 1e-5.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from vortexsym.ratpoly import Poly, VarRegistry

R_REGISTRY = VarRegistry(["r", "mu1", "mu2", "mu3", "mu4"])
AB_REGISTRY = VarRegistry(["a", "b"])
ANNI_REGISTRY = VarRegistry(["mu2", "mu3", "mu4"])

# ---------------------------------------------------------------------------
# Pipeline polynomials in the half-angle variable r (one overall scalar each)
# ---------------------------------------------------------------------------

# each pipeline target is (overall scalar, polynomial factors to multiply)
KITE_PIPELINE = (
    (32, ("-2*mu3 - mu4 - 6*mu1*r^2 + 4*mu3*r^2 + 15*mu4*r^2 - 4*mu1*r^4"
          " + 6*mu3*r^4 - 15*mu4*r^4 + 2*mu1*r^6 + mu4*r^6",)),
    (1, ("mu2 - mu4", "-1 + 3*r^2")),
    (32, ("-mu2 - 2*mu3 - 6*mu1*r^2 + 15*mu2*r^2 + 4*mu3*r^2 - 4*mu1*r^4"
          " - 15*mu2*r^4 + 6*mu3*r^4 + 2*mu1*r^6 + mu2*r^6",)),
)

# even degree-six factor controlling how many kite angles exist for given
# circulations (the middle pipeline polynomial forces mu2 = mu4)
(KITE_CONFIG_FACTOR,) = KITE_PIPELINE[2][1]

RECTANGLE_PIPELINE = (
    (4, ("-mu3 - 3*mu1*r^2 + 3*mu3*r^2 + mu1*r^4",)),
    (4, ("mu2 - 3*mu2*r^2 + 3*mu4*r^2 - mu4*r^4",)),
    (4, ("-mu1 + 3*mu1*r^2 - 3*mu3*r^2 + mu3*r^4",)),
)

RECTANGLE_ELIMINATION = (
    "mu2*mu3 - mu1*mu4",
    "mu1*mu2 - mu3*mu4",
    "mu1^2 - mu3^2",
)

# on the equal-pairs (mu3 = mu1, mu4 = mu2) and opposite-pairs (mu3 = -mu1,
# mu4 = -mu2) branches, every pipeline polynomial is an r-free multiple of one
RECTANGLE_BRANCHES = ("r^4 - 1", "r^4 - 6*r^2 + 1")

# minor of rows and columns 2-4 of the diagonal family's Hessian at
# mu = (mu1, mu2, -mu1, -mu2), as (monomial, (a, b, c)) for the monomial
# times a*mu1^2 + b*sqrt(2)*mu1*mu2 + c*mu2^2
RECTANGLE_DIAGONAL_MINOR = ("mu1^2*mu2^2", (6, Fraction(25, 4), 6))

TRAPEZOID_PIPELINE = (
    (-8, ("mu4 - 6*mu1*r^2 + 6*mu3*r^2 - 15*mu4*r^2 - 4*mu1*r^4 + 4*mu3*r^4"
          " + 15*mu4*r^4 + 2*mu1*r^6 - 2*mu3*r^6 - mu4*r^6",)),
    (-8, ("-mu1 + 15*mu1*r^2 - 6*mu2*r^2 + 6*mu4*r^2 - 15*mu1*r^4 - 4*mu2*r^4"
          " + 4*mu4*r^4 + mu1*r^6 + 2*mu2*r^6 - 2*mu4*r^6",)),
    (32, ("mu2 + 18*mu1*r^2 - 17*mu2*r^2 + 6*mu3*r^2 - 168*mu1*r^4 + 42*mu2*r^4"
          " - 8*mu3*r^4 + 252*mu1*r^6 + 14*mu2*r^6 - 28*mu3*r^6 - 72*mu1*r^8"
          " - 43*mu2*r^8 - 8*mu3*r^8 + 2*mu1*r^10 + 3*mu2*r^10 + 6*mu3*r^10",)),
)

# ---------------------------------------------------------------------------
# Trapezoid elimination ideal: the nine-element basis over mu1..mu4
# ---------------------------------------------------------------------------

P1_QUINTIC = (
    "4*mu2^5 + 2*mu2^3*mu3^2 + 10*mu2^2*mu3^3 - 22*mu2*mu3^4 + 8*mu3^5"
    " - 24*mu2^4*mu4 - 30*mu2^3*mu3*mu4 + 82*mu2^2*mu3^2*mu4 - 60*mu2*mu3^3*mu4"
    " + 22*mu3^4*mu4 + 13*mu2^3*mu4^2 + 135*mu2^2*mu3*mu4^2 - 181*mu2*mu3^2*mu4^2"
    " + 54*mu3^3*mu4^2 + 112*mu2^2*mu4^3 - 247*mu2*mu3*mu4^3 + 117*mu3^2*mu4^3"
    " - 106*mu2*mu4^4 + 98*mu3*mu4^4 + 17*mu4^5"
)

# the nine homogeneous basis elements, each (sign, factor texts) as
# ``build_products`` reads them
F_BASIS = (
    (1, ("mu1^2 - mu1*mu3 + mu2*mu4 - mu4^2",)),
    (1, ("mu2 - mu4", "mu4^2",
         "2*mu1*mu3^4 - 2*mu3^5 - 6*mu1*mu2*mu3^2*mu4 + 8*mu2*mu3^3*mu4"
         " + 2*mu1*mu2^2*mu4^2 - 6*mu2^2*mu3*mu4^2 + 7*mu1*mu3^2*mu4^2"
         " - 9*mu3^3*mu4^2 - 5*mu1*mu2*mu4^3 + 5*mu1*mu3*mu4^3 + 14*mu2*mu3*mu4^3"
         " - 5*mu3^2*mu4^3 - 8*mu1*mu4^4 + 5*mu2*mu4^4 + 3*mu3*mu4^4 - 9*mu4^5")),
    (-1, ("mu2 - mu4", "mu4^2",
          "-2*mu1*mu2*mu3^3 + 2*mu2*mu3^4 + 4*mu1*mu2^2*mu3*mu4 - 6*mu2^2*mu3^2*mu4"
          " + 2*mu1*mu3^3*mu4 - 2*mu3^4*mu4 + 2*mu2^3*mu4^2 - 9*mu1*mu2*mu3*mu4^2"
          " + 13*mu2*mu3^2*mu4^2 - 5*mu1*mu2*mu4^3 - 7*mu2^2*mu4^3 + 5*mu1*mu3*mu4^3"
          " + 5*mu2*mu3*mu4^3 - 7*mu3^2*mu4^3 + 9*mu1*mu4^4 - 3*mu2*mu4^4"
          " - 5*mu3*mu4^4 + 8*mu4^5")),
    (-1, ("mu2 - mu4", "mu4^2",
          "-2*mu1*mu2^2*mu3^2 + 2*mu2^2*mu3^3 + 2*mu1*mu2^3*mu4 - 4*mu2^3*mu3*mu4"
          " + 4*mu1*mu2*mu3^2*mu4 - 4*mu2*mu3^3*mu4 - 7*mu1*mu2^2*mu4^2"
          " + 13*mu2^2*mu3*mu4^2 - 2*mu1*mu3^2*mu4^2 + 2*mu3^3*mu4^2"
          " - 3*mu1*mu2*mu4^3 + 5*mu2^2*mu4^3 + 4*mu1*mu3*mu4^3 - 14*mu2*mu3*mu4^3"
          " + 8*mu1*mu4^4 - 14*mu2*mu4^4 + 5*mu3*mu4^4 + 9*mu4^5")),
    (1, ("mu2 - mu4", "mu4^2",
         "2*mu1*mu2^3*mu3 - 2*mu2^3*mu3^2 + 2*mu2^4*mu4 - 6*mu1*mu2^2*mu3*mu4"
         " + 6*mu2^2*mu3^2*mu4 - 5*mu1*mu2^2*mu4^2 - 9*mu2^3*mu4^2"
         " + 17*mu1*mu2*mu3*mu4^2 - 4*mu1*mu3^2*mu4^2 - 6*mu2*mu3^2*mu4^2"
         " + 14*mu1*mu2*mu4^3 + 4*mu2^2*mu4^3 - 13*mu1*mu3*mu4^3 + 4*mu2*mu3*mu4^3"
         " + 2*mu3^2*mu4^3 - 9*mu1*mu4^4 + 11*mu2*mu4^4 - 4*mu3*mu4^4 - 8*mu4^5")),
    (1, ("mu2 - mu4", "mu4^2", P1_QUINTIC)),
    (1, ("mu2 - mu4", "mu4^2",
         "2*mu1*mu2^4 - 2*mu2^4*mu3 - 9*mu1*mu2^3*mu4 - 5*mu1*mu2^2*mu3*mu4"
         " + 8*mu2^3*mu3*mu4 + 11*mu1*mu2*mu3^2*mu4 - 4*mu1*mu3^3*mu4"
         " + 4*mu1*mu2^2*mu4^2 + 5*mu2^3*mu4^2 + 18*mu1*mu2*mu3*mu4^2"
         " - 23*mu2^2*mu3*mu4^2 - 11*mu1*mu3^2*mu4^2 + 4*mu2*mu3^2*mu4^2"
         " + 11*mu1*mu2*mu4^3 - 19*mu2^2*mu4^3 - 13*mu1*mu3*mu4^3"
         " + 30*mu2*mu3*mu4^3 - 4*mu3^2*mu4^3 - 8*mu1*mu4^4 + 23*mu2*mu4^4"
         " - 13*mu3*mu4^4 - 9*mu4^5")),
    (1, ("mu2 - mu4", "mu4",
         "4*mu1*mu2^5 + 2*mu1*mu2^3*mu3^2 + 10*mu1*mu2^2*mu3^3 - 22*mu1*mu2*mu3^4"
         " + 8*mu1*mu3^5 + 4*mu1*mu2^4*mu4 - 28*mu2^4*mu3*mu4 + 2*mu1*mu2^2*mu3^2*mu4"
         " - 30*mu2^3*mu3^2*mu4 + 10*mu1*mu2*mu3^3*mu4 + 80*mu2^2*mu3^3*mu4"
         " - 22*mu1*mu3^4*mu4 - 70*mu2*mu3^4*mu4 + 44*mu3^5*mu4 - 33*mu1*mu2^3*mu4^2"
         " + 30*mu2^4*mu4^2 - 165*mu1*mu2^2*mu3*mu4^2 - 48*mu2^3*mu3*mu4^2"
         " + 265*mu1*mu2*mu3^2*mu4^2 + 300*mu2^2*mu3^2*mu4^2 - 72*mu1*mu3^3*mu4^2"
         " - 336*mu2*mu3^3*mu4^2 + 70*mu3^4*mu4^2 - 231*mu1*mu2^2*mu4^3"
         " - 135*mu2^3*mu4^3 + 575*mu1*mu2*mu3*mu4^3 + 330*mu2^2*mu3*mu4^3"
         " - 331*mu1*mu3^2*mu4^3 - 489*mu2*mu3^2*mu4^3 + 278*mu3^3*mu4^3"
         " + 423*mu1*mu2*mu4^4 + 239*mu2^2*mu4^4 - 404*mu1*mu3*mu4^4"
         " - 563*mu2*mu3*mu4^4 + 329*mu3^2*mu4^4 - 49*mu1*mu4^5 - 78*mu2*mu4^5"
         " + 67*mu3*mu4^5 + 32*mu4^6")),
    (1, ("mu2 - mu4",
         "8*mu1*mu2^5*mu3 + 4*mu1*mu2^3*mu3^3 + 20*mu1*mu2^2*mu3^4"
         " - 44*mu1*mu2*mu3^5 + 16*mu1*mu3^6 - 8*mu2^6*mu4 - 48*mu1*mu2^4*mu3*mu4"
         " - 60*mu1*mu2^3*mu3^2*mu4 - 4*mu2^4*mu3^2*mu4 + 164*mu1*mu2^2*mu3^3*mu4"
         " - 20*mu2^3*mu3^3*mu4 - 120*mu1*mu2*mu3^4*mu4 + 44*mu2^2*mu3^4*mu4"
         " + 44*mu1*mu3^5*mu4 - 16*mu2*mu3^5*mu4 - 8*mu2^5*mu4^2"
         " - 48*mu1*mu2^3*mu3*mu4^2 + 60*mu2^4*mu3*mu4^2 - 60*mu1*mu2^2*mu3^2*mu4^2"
         " - 118*mu2^3*mu3^2*mu4^2 + 164*mu1*mu2*mu3^3*mu4^2 + 310*mu2^2*mu3^3*mu4^2"
         " - 120*mu1*mu3^4*mu4^2 - 262*mu2*mu3^4*mu4^2 + 116*mu3^5*mu4^2"
         " + 330*mu1*mu2^3*mu4^3 + 236*mu2^4*mu4^3 - 606*mu1*mu2^2*mu3*mu4^3"
         " - 510*mu2^3*mu3*mu4^3 + 850*mu1*mu2*mu3^2*mu4^3 + 570*mu2^2*mu3^2*mu4^3"
         " - 292*mu1*mu3^3*mu4^3 - 840*mu2*mu3^3*mu4^3 + 218*mu3^4*mu4^3"
         " - 1198*mu1*mu2^2*mu4^4 - 599*mu2^3*mu4^4 + 1526*mu1*mu2*mu3*mu4^4"
         " + 1433*mu2^2*mu3*mu4^4 - 784*mu1*mu3^2*mu4^4 - 897*mu2*mu3^2*mu4^4"
         " + 600*mu3^3*mu4^4 + 872*mu1*mu2*mu4^5 + 1162*mu2^2*mu4^5"
         " - 710*mu1*mu3*mu4^5 - 2107*mu2*mu3*mu4^5 + 699*mu3^2*mu4^5"
         " + 198*mu1*mu4^6 - 1048*mu2*mu4^6 + 574*mu3*mu4^6 + 465*mu4^7")),
)


def f_basis():
    """The nine homogeneous basis elements of the trapezoid elimination
    ideal, over ``R_REGISTRY``."""
    return build_products(R_REGISTRY, F_BASIS)


# ---------------------------------------------------------------------------
# The mu1-linear coefficient ideal (fourteen polynomials plus the quintic)
# ---------------------------------------------------------------------------

C_POLYS = (
    "2*mu2*mu3^4*mu4^2 - 6*mu2^2*mu3^2*mu4^3 - 2*mu3^4*mu4^3 + 2*mu2^3*mu4^4"
    " + 13*mu2*mu3^2*mu4^4 - 7*mu2^2*mu4^5 + 5*mu2*mu3*mu4^5 - 7*mu3^2*mu4^5"
    " - 3*mu2*mu4^6 - 5*mu3*mu4^6 + 8*mu4^7",
    "-2*mu2*mu3^5*mu4^2 + 8*mu2^2*mu3^3*mu4^3 + 2*mu3^5*mu4^3 - 6*mu2^3*mu3*mu4^4"
    " - 17*mu2*mu3^3*mu4^4 + 20*mu2^2*mu3*mu4^5 - 5*mu2*mu3^2*mu4^5 + 9*mu3^3*mu4^5"
    " + 5*mu2^2*mu4^6 - 11*mu2*mu3*mu4^6 + 5*mu3^2*mu4^6 - 14*mu2*mu4^7"
    " - 3*mu3*mu4^7 + 9*mu4^8",
    "2*mu2^2*mu3^3*mu4^2 - 4*mu2^3*mu3*mu4^3 - 4*mu2*mu3^3*mu4^3"
    " + 13*mu2^2*mu3*mu4^4 + 2*mu3^3*mu4^4 + 5*mu2^2*mu4^5 - 14*mu2*mu3*mu4^5"
    " - 14*mu2*mu4^6 + 5*mu3*mu4^6 + 9*mu4^7",
    "-2*mu2^2*mu3^4*mu4^2 + 6*mu2^3*mu3^2*mu4^3 + 4*mu2*mu3^4*mu4^3 - 2*mu2^4*mu4^4"
    " - 19*mu2^2*mu3^2*mu4^4 - 2*mu3^4*mu4^4 + 9*mu2^3*mu4^5 - 5*mu2^2*mu3*mu4^5"
    " + 20*mu2*mu3^2*mu4^5 - 4*mu2^2*mu4^6 + 10*mu2*mu3*mu4^6 - 7*mu3^2*mu4^6"
    " - 11*mu2*mu4^7 - 5*mu3*mu4^7 + 8*mu4^8",
    "2*mu2^3*mu3^2*mu4^2 - 2*mu2^4*mu4^3 - 6*mu2^2*mu3^2*mu4^3 + 9*mu2^3*mu4^4"
    " + 6*mu2*mu3^2*mu4^4 - 4*mu2^2*mu4^5 - 4*mu2*mu3*mu4^5 - 2*mu3^2*mu4^5"
    " - 11*mu2*mu4^6 + 4*mu3*mu4^6 + 8*mu4^7",
    "-2*mu2^3*mu3^3*mu4^2 + 4*mu2^4*mu3*mu4^3 + 6*mu2^2*mu3^3*mu4^3"
    " - 17*mu2^3*mu3*mu4^4 - 6*mu2*mu3^3*mu4^4 - 5*mu2^3*mu4^5 + 27*mu2^2*mu3*mu4^5"
    " + 2*mu3^3*mu4^5 + 19*mu2^2*mu4^6 - 19*mu2*mu3*mu4^6 - 23*mu2*mu4^7"
    " + 5*mu3*mu4^7 + 9*mu4^8",
    "2*mu2^4*mu3*mu4^2 - 8*mu2^3*mu3*mu4^3 - 5*mu2^3*mu4^4 + 23*mu2^2*mu3*mu4^4"
    " - 4*mu2*mu3^2*mu4^4 + 19*mu2^2*mu4^5 - 30*mu2*mu3*mu4^5 + 4*mu3^2*mu4^5"
    " - 23*mu2*mu4^6 + 13*mu3*mu4^6 + 9*mu4^7",
    "-2*mu2^4*mu3^2*mu4^2 + 2*mu2^5*mu4^3 + 8*mu2^3*mu3^2*mu4^3 - 11*mu2^4*mu4^4"
    " - 12*mu2^2*mu3^2*mu4^4 + 13*mu2^3*mu4^5 + 4*mu2^2*mu3*mu4^5"
    " + 8*mu2*mu3^2*mu4^5 + 7*mu2^2*mu4^6 - 8*mu2*mu3*mu4^6 - 2*mu3^2*mu4^6"
    " - 19*mu2*mu4^7 + 4*mu3*mu4^7 + 8*mu4^8",
    "2*mu2^5*mu4^2 - 11*mu2^4*mu4^3 - 5*mu2^3*mu3*mu4^3 + 11*mu2^2*mu3^2*mu4^3"
    " - 4*mu2*mu3^3*mu4^3 + 13*mu2^3*mu4^4 + 23*mu2^2*mu3*mu4^4 - 22*mu2*mu3^2*mu4^4"
    " + 4*mu3^3*mu4^4 + 7*mu2^2*mu4^5 - 31*mu2*mu3*mu4^5 + 11*mu3^2*mu4^5"
    " - 19*mu2*mu4^6 + 13*mu3*mu4^6 + 8*mu4^7",
    "-2*mu2^5*mu3*mu4^2 + 10*mu2^4*mu3*mu4^3 + 5*mu2^4*mu4^4 - 31*mu2^3*mu3*mu4^4"
    " + 4*mu2^2*mu3^2*mu4^4 - 24*mu2^3*mu4^5 + 53*mu2^2*mu3*mu4^5"
    " - 8*mu2*mu3^2*mu4^5 + 42*mu2^2*mu4^6 - 43*mu2*mu3*mu4^6 + 4*mu3^2*mu4^6"
    " - 32*mu2*mu4^7 + 13*mu3*mu4^7 + 9*mu4^8",
    "4*mu2^6*mu4 + 2*mu2^4*mu3^2*mu4 + 10*mu2^3*mu3^3*mu4 - 22*mu2^2*mu3^4*mu4"
    " + 8*mu2*mu3^5*mu4 - 8*mu3^5*mu4^2 - 37*mu2^4*mu4^3 - 165*mu2^3*mu3*mu4^3"
    " + 263*mu2^2*mu3^2*mu4^3 - 82*mu2*mu3^3*mu4^3 + 22*mu3^4*mu4^3"
    " - 198*mu2^3*mu4^4 + 740*mu2^2*mu3*mu4^4 - 596*mu2*mu3^2*mu4^4"
    " + 72*mu3^3*mu4^4 + 654*mu2^2*mu4^5 - 979*mu2*mu3*mu4^5 + 331*mu3^2*mu4^5"
    " - 472*mu2*mu4^6 + 404*mu3*mu4^6 + 49*mu4^7",
    "-28*mu2^5*mu3*mu4^2 - 30*mu2^4*mu3^2*mu4^2 + 80*mu2^3*mu3^3*mu4^2"
    " - 70*mu2^2*mu3^4*mu4^2 + 44*mu2*mu3^5*mu4^2 + 30*mu2^5*mu4^3"
    " - 20*mu2^4*mu3*mu4^3 + 330*mu2^3*mu3^2*mu4^3 - 416*mu2^2*mu3^3*mu4^3"
    " + 140*mu2*mu3^4*mu4^3 - 44*mu3^5*mu4^3 - 165*mu2^4*mu4^4"
    " + 378*mu2^3*mu3*mu4^4 - 789*mu2^2*mu3^2*mu4^4 + 614*mu2*mu3^3*mu4^4"
    " - 70*mu3^4*mu4^4 + 374*mu2^3*mu4^5 - 893*mu2^2*mu3*mu4^5"
    " + 818*mu2*mu3^2*mu4^5 - 278*mu3^3*mu4^5 - 317*mu2^2*mu4^6"
    " + 630*mu2*mu3*mu4^6 - 329*mu3^2*mu4^6 + 110*mu2*mu4^7 - 67*mu3*mu4^7"
    " - 32*mu4^8",
    "8*mu2^6*mu3 + 4*mu2^4*mu3^3 + 20*mu2^3*mu3^4 - 44*mu2^2*mu3^5 + 16*mu2*mu3^6"
    " - 56*mu2^5*mu3*mu4 - 60*mu2^4*mu3^2*mu4 + 160*mu2^3*mu3^3*mu4"
    " - 140*mu2^2*mu3^4*mu4 + 88*mu2*mu3^5*mu4 - 16*mu3^6*mu4 - 44*mu3^5*mu4^2"
    " + 330*mu2^4*mu4^3 - 558*mu2^3*mu3*mu4^3 + 910*mu2^2*mu3^2*mu4^3"
    " - 456*mu2*mu3^3*mu4^3 + 120*mu3^4*mu4^3 - 1528*mu2^3*mu4^4"
    " + 2132*mu2^2*mu3*mu4^4 - 1634*mu2*mu3^2*mu4^4 + 292*mu3^3*mu4^4"
    " + 2070*mu2^2*mu4^5 - 2236*mu2*mu3*mu4^5 + 784*mu3^2*mu4^5 - 674*mu2*mu4^6"
    " + 710*mu3*mu4^6 - 198*mu4^7",
    "-8*mu2^7*mu4 - 4*mu2^5*mu3^2*mu4 - 20*mu2^4*mu3^3*mu4 + 44*mu2^3*mu3^4*mu4"
    " - 16*mu2^2*mu3^5*mu4 + 60*mu2^5*mu3*mu4^2 - 114*mu2^4*mu3^2*mu4^2"
    " + 330*mu2^3*mu3^3*mu4^2 - 306*mu2^2*mu3^4*mu4^2 + 132*mu2*mu3^5*mu4^2"
    " + 244*mu2^5*mu4^3 - 570*mu2^4*mu3*mu4^3 + 688*mu2^3*mu3^2*mu4^3"
    " - 1150*mu2^2*mu3^3*mu4^3 + 480*mu2*mu3^4*mu4^3 - 116*mu3^5*mu4^3"
    " - 835*mu2^4*mu4^4 + 1943*mu2^3*mu3*mu4^4 - 1467*mu2^2*mu3^2*mu4^4"
    " + 1440*mu2*mu3^3*mu4^4 - 218*mu3^4*mu4^4 + 1761*mu2^3*mu4^5"
    " - 3540*mu2^2*mu3*mu4^5 + 1596*mu2*mu3^2*mu4^5 - 600*mu3^3*mu4^5"
    " - 2210*mu2^2*mu4^6 + 2681*mu2*mu3*mu4^6 - 699*mu3^2*mu4^6 + 1513*mu2*mu4^7"
    " - 574*mu3*mu4^7 - 465*mu4^8",
)

# reduced grevlex basis (mu2 > mu3 > mu4) of the ideal <c_1..c_14, p_1>
ANNIHILATOR_BASIS = (
    P1_QUINTIC,
    "-2*mu3^5*mu4^2 + 8*mu2*mu3^3*mu4^3 - 6*mu2^2*mu3*mu4^4 - 9*mu3^3*mu4^4"
    " + 14*mu2*mu3*mu4^5 - 5*mu3^2*mu4^5 + 5*mu2*mu4^6 + 3*mu3*mu4^6 - 9*mu4^7",
    C_POLYS[0],
    C_POLYS[2],
    C_POLYS[4],
    C_POLYS[6],
)

# ---------------------------------------------------------------------------
# Generic plane division: remainder coefficients and the (a, b) ideal
# ---------------------------------------------------------------------------

# coefficients of mu2^5, mu2^4*mu3, ..., mu3^5 in the remainder of dividing
# the quintic form by a*mu2 + b*mu3 + mu4
REMAINDER_COEFFS = (
    "4 + 24*a + 13*a^2 - 112*a^3 - 106*a^4 - 17*a^5",
    "30*a + 135*a^2 + 247*a^3 + 98*a^4 + 24*b + 26*a*b - 336*a^2*b - 424*a^3*b"
    " - 85*a^4*b",
    "2 - 82*a - 181*a^2 - 117*a^3 + 30*b + 270*a*b + 741*a^2*b + 392*a^3*b"
    " + 13*b^2 - 336*a*b^2 - 636*a^2*b^2 - 170*a^3*b^2",
    "10 + 60*a + 54*a^2 - 82*b - 362*a*b - 351*a^2*b + 135*b^2 + 741*a*b^2"
    " + 588*a^2*b^2 - 112*b^3 - 424*a*b^3 - 170*a^2*b^3",
    "-22 - 22*a + 60*b + 108*a*b - 181*b^2 - 351*a*b^2 + 247*b^3 + 392*a*b^3"
    " - 106*b^4 - 85*a*b^4",
    "8 - 22*b + 54*b^2 - 117*b^3 + 98*b^4 - 17*b^5",
)

B_QUINTIC = "-8 + 22*b - 54*b^2 + 117*b^3 - 98*b^4 + 17*b^5"

# The second basis element determines a as a polynomial in b, so each of the
# three positive b-roots in PLANE_FAMILIES induces exactly one a-value.
AB_IDEAL_SECOND = "434 + 178*a - 484*b + 1885*b^2 - 2907*b^3 + 578*b^4"

Q_EIGENVALUES = (1.07524, 0.2035, 0.0)
Q_NULL_DIRECTION = (-0.95922, -0.0997192, -0.264487)

# ---------------------------------------------------------------------------
# The ten annihilating lines: unit vectors, discriminant sign, mu1 roots
# ---------------------------------------------------------------------------

TABLE_LINES = (
    {"u": (-0.392564, -0.601236, 0.695995), "disc_positive": True,
     "mu1": (-1.221488, 0.620252), "case": "intersection"},
    {"u": (0.437709, 0.899117, 0.0), "disc_positive": True,
     "mu1": (0.899117, 0.0), "case": "mu4=0"},
    {"u": (0.0897986, -0.782076, 0.616680), "disc_positive": True,
     "mu1": (-1.082289, 0.300213), "case": "intersection"},
    {"u": (-0.644154, -0.619064, -0.449250), "disc_positive": True,
     "mu1": (-0.400360, -0.218705), "case": "intersection"},
    {"u": (0.959220, 0.099719, 0.264487), "disc_positive": False,
     "mu1": (), "case": "null-line"},
    {"u": (-0.443673, 0.778658, -0.443673), "disc_positive": True,
     "mu1": (0.778658, 0.0), "case": "mu2=mu4"},
    {"u": (-0.598235, -0.533132, -0.598235), "disc_positive": True,
     "mu1": (-0.533132, 0.0), "case": "mu2=mu4"},
    {"u": (0.668602, 0.325490, 0.668602), "disc_positive": True,
     "mu1": (0.325490, 0.0), "case": "mu2=mu4"},
    {"u": (0.665316, 0.746562, 0.0), "disc_positive": True,
     "mu1": (0.746561, 0.0), "case": "mu4=0"},
    {"u": (0.868855, -0.495067, 0.0), "disc_positive": True,
     "mu1": (-0.495067, 0.0), "case": "mu4=0"},
)

# ---------------------------------------------------------------------------
# Valid trapezoid angles: the r-projection basis and the angle table
# ---------------------------------------------------------------------------

G_OF_R = "-1 + 33*r^2 - 202*r^4 + 146*r^6 - 117*r^8 + 13*r^10"

# the five-element projection basis onto (r, mu1, mu3), each (sign, factor
# texts) as ``build_products`` reads them
VALID_THETA_BASIS = (
    (1, ("mu1^2", "mu1 - mu3", G_OF_R)),
    (-1, ("mu1", "2*mu1 - mu3 - mu3*r^2", G_OF_R)),
    (1, ("mu1^2", "r - 1", "r + 1", G_OF_R)),
    (1, ("mu1", "r - 1", "r + 1", "r^2 + 1", G_OF_R)),
    (-1, ("mu3^3", G_OF_R,
          "2048*mu1^2 + mu3^2 - 40*mu3^2*r^2 + 672*mu3^2*r^4 - 4568*mu3^2*r^6"
          " + 7529*mu3^2*r^8 + 7056*mu3^2*r^10 - 17272*mu3^2*r^12 - 912*mu3^2*r^14"
          " + 7971*mu3^2*r^16 - 2664*mu3^2*r^18 + 88*mu3^2*r^20 + 104*mu3^2*r^22"
          " - 13*mu3^2*r^24")),
)


def valid_theta_basis():
    """Five-element projection basis onto (r, mu1, mu3), stated factored,
    over ``R_REGISTRY``."""
    return build_products(R_REGISTRY, VALID_THETA_BASIS)


# r-root magnitude, angle magnitude, and the plane pair each one selects
ANGLE_TABLE = (
    {"r": 2.79493, "theta2": 0.687197, "plane": "A1", "true_trapezoid": True},
    {"r": 0.375563, "theta2": 2.42306, "plane": "C3", "true_trapezoid": False},
    {"r": 0.199167, "theta2": 2.74840, "plane": "B2", "true_trapezoid": False},
)

# The three real planes a*mu2 + b*mu3 + mu4 of the quintic form, as families
# (alpha*mu2 + beta*mu3, mu2, mu3, beta*mu2 + alpha*mu3) with alpha = -b and
# beta = -a; B2's plane mu1 + 0.843716*mu2 + 0.480743*mu3 = 0 fixes its a's sign.
PLANE_FAMILIES = {
    "A1": {"b": 0.638032, "a": -1.31061},
    "B2": {"b": 0.843716, "a": 0.480743},
    "C3": {"b": 4.330096, "a": -4.858868},
}

# ---------------------------------------------------------------------------
# Square and kite stability reference data
# ---------------------------------------------------------------------------

# the kite's special point: theta2 = 2*pi/3, where cos(theta2) = -1/2 and the
# vanishing gradient forces mu1 = mu2 = mu4
KITE_SPECIAL_THETA2 = 2 * math.pi / 3
KITE_SPECIAL_COS = Fraction(-1, 2)
KITE_SPECIAL_CONDITIONS = ("mu1 - mu4", "mu2 - mu4")

# kite at the 120-degree angle with mu1 = mu2 = mu4: weighted eigenvalues are
# 0, (3*mu3 - mu1)/2 and the roots of l^2 - (7*mu1 + 3*mu3)/4 * l - 3/8*(3*mu1 + mu3)*(mu1 + 3*mu3)
KITE_WINDOW_LOWER = -0.335544  # (3/121) * (-47 + 4*sqrt(70))
KITE_WINDOW_DISCRIMINANT = "121*t^2 + 282*t + 81"  # 16 * the pair's discriminant

SQUARE_CONDITIONS = ("mu1 - mu3", "mu2 - mu4")

# numeric matching tolerance for the six-figure reference values
NUMERIC_TOL = 1e-5


@functools.cache
def parsed(registry, text):
    """The polynomial of ``text`` over ``registry``, parsed once per process.

    Lazy: a text is parsed on its first use, so importing costs nothing.
    The cache is keyed by the text itself, so a reference constant that is
    changed (by a test, say) is a new key and is parsed afresh; every
    caller shares one immutable ``Poly``.
    """
    return Poly.parse(registry, text)


@functools.cache
def build_products(registry, entries):
    """Materialise (scalar, factor texts) pairs as a tuple of polynomials,
    once per process for each registry and tuple of entries."""
    return tuple(
        math.prod((parsed(registry, t) for t in factors), start=Poly.constant(registry, scalar))
        for scalar, factors in entries
    )
