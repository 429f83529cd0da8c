"""Semiclassical tight-binding reduction of the periodic stationary NLSE.

Pipeline: periodic potential -> Floquet bands -> real localized first-band
basis -> lattice parameters (hopping, interaction, effective nonlinearity)
-> discrete NLS branches -> continuum reconstruction and cross checks.
"""

from .errors import (
    BasisError,
    ConfigError,
    Error,
    GaugeError,
    NonConvergenceError,
    PotentialError,
    QuadratureError,
    SolverError,
    TailFitError,
)
from .potential import (
    PotentialSpec,
    free_potential,
    make_potential,
    tunneling_action,
)
from .bloch import BandData, FloquetConfig, band_metrics, solve_bands
from .wannier import (
    WannierBasis,
    build_orthonormal_basis,
    fix_gauge,
    pair_overlap_l1,
)
from .operators import PeriodicDomain, domain_grid
from .tightbinding import (
    TBParams,
    band_hopping,
    extract_params,
    h_matrix_elements,
    interaction_constant,
    with_eta,
)
from .dnls import (
    DnlsProblem,
    DnlsState,
    decay_rate,
    dnls_residual,
    linearization_lplus,
    solve_anticontinuum,
)
from .nlse import (
    ContinuumState,
    direct_newton_oracle,
    peak_cell_mass,
    reconstruct_and_correct,
    solve_perp_fixed_point,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
