"""polygeom: numerical verification of apolarity and coincidence
theorems for complex polynomials."""

from .apolarity import apolarity_functional, grace_witness, is_apolar, make_apolar
from .coincidence import (
    SymmetricMultiaffine,
    coincidence_witness,
    diagonal,
    evaluate_multiaffine,
    theorem1_apolarity_residual,
    theorem1_hypothesis,
)
from .derivative_bound import (
    Theorem2Instance,
    Theorem2Report,
    check_theorem2,
    factorization_roots,
    gauss_lucas_check,
    generate_theorem2_instance,
    kth_derivative_identity,
    theorem2_bound,
)
from .poly import (
    N_MAX,
    Polynomial,
    binomial,
    elementary_symmetric,
    from_roots,
    mean_of_roots,
)
from .regions import (
    CircularRegion,
    contains,
    convex_hull,
    disk,
    exterior_disk,
    half_plane,
    hull_distance,
    is_convex,
    smallest_enclosing_disk,
)
from .rootfind import RootSet, cauchy_bound, find_roots, find_roots_many

__version__ = "0.1.0"
