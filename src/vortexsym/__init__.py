"""Exact classification of symmetric relative equilibria in the (1+4)-vortex problem.

Four infinitesimal vortices on the unit circle around one dominant vortex at
the origin admit four one-parameter families of symmetric configurations:
the square, kites, rectangles, and trapezoids with three equal sides.  This
package re-derives, in exact rational arithmetic, the circulation conditions,
configuration angles, and linear-stability verdicts for each family, and
checks every derivation against frozen reference values.
"""

from vortexsym.ratpoly import GrevLex, Lex, MonomialOrder, Poly, VarRegistry, elimination

__all__ = ["Poly", "VarRegistry", "MonomialOrder", "Lex", "GrevLex", "elimination"]
