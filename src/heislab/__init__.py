"""heislab: numerics for Heisenberg-group calculus and Kirchhoff-type variational problems.

The package is organised around five layers:

* ``geometry``     -- closed-form group operations, Koranyi gauge, dilations;
* ``grid``         -- box grids, scalar/horizontal-vector fields;
* ``operators``    -- finite-difference left-invariant vector fields, sub-Laplacians,
                      twisted Laplacians, p-sub-Laplacians (plus an exact polynomial mode);
* ``hermite``      -- Hermite functions (``hermite_fn``, ``hermite_fn_scaled``)
                      and the tabulated Fourier-Wigner transform
                      (``fourier_wigner_table``);
* ``spectral``     -- assembled twisted operators, Landau-ladder fits, the special
                      Hermite family e_{j,k,tau} (tabulated by
                      ``tabulate_eigenfunction``), eigenfunction residuals,
                      convention adjudication, and Weyl sequence probes;
* ``variational``  -- the Kirchhoff-type energy, its exact discrete gradient, grid
                      Folland-Stein constants, and a mountain-pass solver that descends
                      on the ray-peak (Nehari) set.

``cli`` wires the layers into reproducible experiment campaigns.
"""

from .geometry import (
    HeisPoint,
    dilate,
    group_inv,
    group_mul,
    koranyi_dist,
    koranyi_norm,
)
from .grid import BoxGrid, HorizontalVectorField, ScalarField
from .operators import (
    H3,
    HN,
    FieldConvention,
    apply_T,
    apply_X,
    apply_Y,
    commutator_check,
    horizontal_divergence,
    horizontal_gradient,
    null_covector,
    p_sublaplacian,
    sublaplacian,
    sublaplacian_expanded,
    symbol_L,
    twisted_laplacian,
)
from .polyfield import PolyField
from .hermite import hermite_fn, hermite_fn_scaled
from .spectral import (
    ConventionChoice,
    GramResult,
    LadderFit,
    WeylProbeResult,
    assemble_twisted,
    cluster_eigenvalues,
    convention_search,
    eigenfunction_residual,
    gram_matrix,
    landau_structure_fit,
    lowest_eigenvalues,
    tabulate_eigenfunction,
    vertical_bridge_sign,
    weyl_probe,
)
from .variational import (
    FSResult,
    GrowthNonlinearity,
    KirchhoffM,
    KirchhoffProblem,
    MPResult,
    dirichlet_field,
    energy,
    folland_stein_constant,
    gradient,
    hw_norm,
    mountain_pass_solve,
    mp_geometry_check,
    mp_threshold,
    ps_monitor,
    random_dirichlet_field,
    ray_scan,
    validate_exponents,
)

__version__ = "0.1.0"
