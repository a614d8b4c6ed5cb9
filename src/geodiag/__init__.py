"""Totally geodesic submanifolds of products of rank-one symmetric spaces.

The package has five layers:

* :mod:`geodiag.catalog` -- exact database of rank-one spaces and their
  totally geodesic submanifolds, with rational curvature parameters.
* :mod:`geodiag.tableaux` -- adapted Young tableaux, enumeration of all
  totally geodesic submanifold classes of a product, exact diagonal
  curvatures.
* :mod:`geodiag.kahler` -- constant Kahler angles of diagonal projective
  subspaces, exact rational realizations, density by continued fractions.
* :mod:`geodiag.models` -- compact skew-Hermitian matrix models and their
  weighted direct sums, the only place matrices are built.
* :mod:`geodiag.lieverify` -- independent numerical verification of
  classification entries in those models, on p-coordinate rows.

:mod:`geodiag.cli` wires these into the ``geodiag`` command.
"""

from .catalog import (
    Field,
    RankOneSpace,
    TotGeodInclusion,
    are_homothetic,
    is_totally_geodesic,
    list_totally_geodesic,
    normalize,
    space,
)
from .kahler import (
    AngleRealization,
    ExactAngle,
    Grassmannian,
    angles_in_product,
    approximate_angle,
    grassmannian_product_embeddings,
    realize_angle,
)
from .tableaux import (
    AdaptedTableau,
    Box,
    ClassifiedSubmanifold,
    ProductSpace,
    classify,
    count_classes,
    diagonal_curvature,
    enumerate_tableaux,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedTableau",
    "AngleRealization",
    "Box",
    "ClassifiedSubmanifold",
    "ExactAngle",
    "Field",
    "Grassmannian",
    "ProductSpace",
    "RankOneSpace",
    "TotGeodInclusion",
    "angles_in_product",
    "approximate_angle",
    "are_homothetic",
    "classify",
    "count_classes",
    "diagonal_curvature",
    "enumerate_tableaux",
    "grassmannian_product_embeddings",
    "is_totally_geodesic",
    "list_totally_geodesic",
    "normalize",
    "realize_angle",
    "space",
]
