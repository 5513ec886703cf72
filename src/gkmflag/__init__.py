"""GKM graphs of flag manifolds and their fiber bundles, exactly over Q.

The package builds the labeled graphs attached to quotients of Weyl
groups by parabolic subgroups, verifies the GKM axioms and the graph
fiber-bundle axioms, computes holonomy groups, equivariant Schubert
classes via the nilCoxeter product formula, and the invariant-class
module bases obtained from iterated fiber bundles.  All arithmetic is
exact rational arithmetic; there are no floats anywhere.
"""

from .polyring import LinearForm, Polynomial, parse_polynomial
from .rootsys import RootSystem, WeylElement

__all__ = [
    "LinearForm",
    "Polynomial",
    "parse_polynomial",
    "RootSystem",
    "WeylElement",
]

__version__ = "0.1.0"
