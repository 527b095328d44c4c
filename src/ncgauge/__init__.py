"""ncgauge: differential calculus and gauge theory on matrix algebras.

Five layers, each usable on its own:

* :mod:`ncgauge.basis` — Hermitian traceless bases of M_n(C), their
  structure constants and metric (``MatrixBasis``).
* :mod:`ncgauge.universal` — universal differential calculus over a
  finite point set, with the two-point gauge-Higgs toy model.
* :mod:`ncgauge.derforms` — derivation-based forms on M_n(C): wedge,
  differential, Hodge star, integration (``DerForm``).
* :mod:`ncgauge.connections` / :mod:`ncgauge.lattice` — Yang-Mills
  actions for matrix connections and their lattice gauge-Higgs
  extension, with vacua and mass spectra.
* :mod:`ncgauge.spectral` — finite spectral triples: axiom reports,
  inner fluctuations, products, the two-point model and the
  C (+) H (+) M3(C) fixture.

``ncgauge.cli`` drives verification suites and small optimization runs
from the command line (installed as the ``ncgauge`` script).
"""

from __future__ import annotations

from .basis import (
    MatrixBasis,
    anticommutator,
    basis_metric,
    commutator,
    dagger,
    frob_norm,
    gellmann_basis,
    is_antihermitian,
    is_hermitian,
    is_traceless,
    is_unitary,
    random_antihermitian,
    random_hermitian,
    random_traceless_hermitian,
    random_unitary,
    structure_constants,
)
from .connections import (
    FlatnessReport,
    MatrixConnection,
    MinimizeResult,
    action,
    action_gradient,
    action_via_pairing,
    casimir_invariant,
    curvature,
    curvature_form,
    flat_connection_check,
    gauge_transform,
    grassmann_connection,
    hermitian_compatibility_check,
    minimize,
    random_connection,
)
from .derforms import (
    Derivation,
    DerForm,
    canonical_theta,
    dinvolution,
    dprime,
    evaluate,
    hodge,
    koszul_evaluate,
    nc_integrate,
    wedge,
)
from .errors import (
    BasisMismatchError,
    ConfigError,
    DegreeError,
    MaxIterationsError,
    MissingStructureError,
    NCGaugeError,
    NotHermitianError,
    NotProjectorError,
    NotUnitaryError,
    ShapeError,
    SingularBasisError,
)
from .lattice import (
    MAX_LATTICE_DIM,
    MAX_SIDE,
    LatticeConfig,
    lattice_action,
    lattice_gauge_transform,
    mass_spectrum,
    random_lattice_config,
    vacuum_config,
    zero_momentum_gradient_norm,
)
from .spectral import (
    KO_TABLE,
    AxiomReport,
    FiniteSpectralTriple,
    OperatorForm,
    RealStructure,
    SMFixture,
    check_axioms,
    fermionic_pairing,
    fluctuate,
    inner_gauge,
    product_triple,
    quaternion,
    represent_form,
    sm_algebra_fixture,
    sm_represent,
    triple_from_json,
    triple_to_json,
    trivial_triple,
    two_point_action,
    two_point_triple,
)
from .tolerances import TAU_ALG, TAU_NUM
from .universal import (
    UniversalForm,
    duniv,
    point_function,
    two_point_curvature,
    two_point_curvature_form,
    two_point_one_form,
    uinvolution,
    uproduct,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # basis layer
    "MatrixBasis",
    "gellmann_basis",
    "is_antihermitian",
    "is_hermitian",
    "is_traceless",
    "is_unitary",
    "structure_constants",
    "basis_metric",
    "dagger",
    "commutator",
    "anticommutator",
    "frob_norm",
    "random_unitary",
    "random_hermitian",
    "random_antihermitian",
    "random_traceless_hermitian",
    # universal calculus
    "UniversalForm",
    "uproduct",
    "duniv",
    "uinvolution",
    "point_function",
    "two_point_one_form",
    "two_point_curvature_form",
    "two_point_curvature",
    # derivation calculus
    "Derivation",
    "DerForm",
    "wedge",
    "dprime",
    "dinvolution",
    "canonical_theta",
    "evaluate",
    "koszul_evaluate",
    "hodge",
    "nc_integrate",
    # connections
    "MatrixConnection",
    "MinimizeResult",
    "FlatnessReport",
    "random_connection",
    "curvature",
    "curvature_form",
    "gauge_transform",
    "action",
    "action_via_pairing",
    "action_gradient",
    "minimize",
    "flat_connection_check",
    "casimir_invariant",
    "hermitian_compatibility_check",
    "grassmann_connection",
    # lattice
    "MAX_LATTICE_DIM",
    "MAX_SIDE",
    "LatticeConfig",
    "lattice_action",
    "lattice_gauge_transform",
    "vacuum_config",
    "random_lattice_config",
    "mass_spectrum",
    "zero_momentum_gradient_norm",
    # spectral triples
    "KO_TABLE",
    "RealStructure",
    "OperatorForm",
    "FiniteSpectralTriple",
    "AxiomReport",
    "check_axioms",
    "represent_form",
    "fluctuate",
    "inner_gauge",
    "product_triple",
    "trivial_triple",
    "two_point_triple",
    "two_point_action",
    "fermionic_pairing",
    "quaternion",
    "sm_represent",
    "sm_algebra_fixture",
    "SMFixture",
    "triple_to_json",
    "triple_from_json",
    # tolerances and errors
    "TAU_ALG",
    "TAU_NUM",
    "NCGaugeError",
    "SingularBasisError",
    "BasisMismatchError",
    "DegreeError",
    "ShapeError",
    "NotUnitaryError",
    "NotHermitianError",
    "NotProjectorError",
    "MissingStructureError",
    "ConfigError",
    "MaxIterationsError",
]
