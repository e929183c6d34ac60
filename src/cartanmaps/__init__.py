"""Coset-space correspondences for GL2 over a prime field.

Builds the explicit maps between the four permutation modules attached to
split/non-split Cartan subgroups and their normalizers (geodesic and path
incidence operators), verifies that they are surjective intertwiners at desk
scale, and provides the supporting double coset machinery and circulant
eigenvalue certificates as independently checkable computations.
"""

__version__ = "0.1.0"

from .modular_arith import (
    PrimeContext,
    binom_mod,
    find_nonsquare,
    find_primitive_root,
    is_odd_prime,
    legendre,
)
from .geometry import GroupElement
from .correspondence import (
    OperatorMatrix,
    build_H_s,
    build_psi,
    build_psi_plus,
    restrict_to_affine,
)
from .cosets import (
    DoubleCosetDecomposition,
    SubgroupSpec,
    coset_operator,
    decompose,
    decompose_all,
    enumerate_subgroup,
)
from .circulant import (
    BlockMatrixN,
    CertificateError,
    EigenvalueReport,
    ReducedCountMatrixC,
    ReducedCountMatrixN,
    build_block_matrix_N,
    build_reduced_C,
    circulant_det_mod,
    eigenvalues_C,
    eigenvalues_N,
    reduce_mod_frak_L,
    verify_chart_conjugacy,
)
from .exact_linalg import (
    RankCertificate,
    det_exact_small,
    det_mod_p,
    rank_exact,
    rank_mod_p,
)

__all__ = [name for name in dir() if not name.startswith("_")]
