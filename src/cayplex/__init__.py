"""Generator systems for finite projective linear groups built from a
cyclic division algebra over a rational function field, plus exact
Cayley-graph and spectral-comparison tooling."""

from cayplex.cayley import (
    CayleyGraph,
    VertexLimitError,
    bfs_build,
    closure_from_matrices,
    export_graph,
    import_graph,
)
from cayplex.cyclic import CycAlg, CycElem, gamma_from_alpha
from cayplex.ffield import (
    ExtField,
    Field,
    default_extension_modulus,
    frobenius_matrix,
    gaussian_binomial,
    get_ext_field,
    get_field,
    mult_generator,
    regular_rep,
)
from cayplex.genforge import (
    GenSet,
    Generator,
    MemoryBudgetError,
    attach_subspace,
    build_omega,
    build_omega_hat,
    expected_index,
    family,
    family_order_m,
    group_order_pgl,
    group_order_psl,
    hat_class_sizes,
    make_params,
    predicted_group_order,
    symmetrize,
)
from cayplex.projmat import MatSpace
from cayplex.ratfunc import Poly
from cayplex.spectra import (
    ComparisonReport,
    MomentSeq,
    SpectrumReport,
    cayley_isomorphism,
    compare,
    dense_spectrum,
    walk_moments,
)

__version__ = "0.1.0"
