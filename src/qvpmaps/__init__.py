"""Quadratic volume-preserving maps: shear algebra, normal forms, dynamics,
and invariant-manifold computation."""

from .polymap import (
    AffineMap,
    PolyMap,
    QuadMap,
    QvpmapsError,
    compose,
    has_quadratic_inverse,
    invert_quadratic,
    is_volume_preserving,
)
from .shear import AFFINE, NOT_A_SHEAR, ShearData, build_shear, extract_shear, power
from .normalform import (
    NormalForm,
    QuadraticForm2,
    decompose,
    reduce_generic,
    second_trace,
    to_normal_form,
    z_dimension,
)
from .symplectic import (
    GradientShearForm,
    is_symplectic,
    shear_to_gradient_form,
    symplectic_decompose,
)
from .dynamics import (
    FixedPointReport,
    GenericMapParams,
    OrbitRecord,
    Reversor,
    asymptotic_direction,
    classify_stability,
    escape_bound,
    fixed_points,
    iterate,
    period2_line,
    periodic_count_bound,
    reversor_for,
    stability_diagram,
    symmetric_orbit_search,
)
from .manifold import (
    HeteroclinicCurve,
    ManifoldMesh,
    grow_1d,
    grow_2d,
    heteroclinic_from_symmetry,
    intersect_meshes,
    linear_data,
)

__version__ = "0.1.0"
