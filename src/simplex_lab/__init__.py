"""simplex-lab: n-distances, simplex inequalities, and best-constant search.

An n-distance generalizes a metric to n arguments: it vanishes exactly on
constant tuples, is symmetric, and satisfies the simplex inequality
d(x_1..x_n) <= K * sum_i d(..z at i..).  This package evaluates a catalog
of such maps, verifies their axioms and the partial/strong variants of the
inequality, estimates best constants with explicit witnesses, and builds
distances with prescribed constants.
"""

__version__ = "0.1.0"
