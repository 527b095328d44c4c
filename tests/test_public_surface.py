"""The package's public names: each declared once, by exactly one layer."""
from __future__ import annotations

import inspect
from itertools import combinations

import ncgauge
from ncgauge import (
    basis,
    connections,
    derforms,
    errors,
    lattice,
    spectral,
    tolerances,
    universal,
    verify,
)

LAYERS = (basis, universal, derforms, connections, lattice, spectral, tolerances, errors)


def test_layer_surfaces_are_pairwise_disjoint():
    for first, second in combinations(LAYERS, 2):
        shared = set(first.__all__) & set(second.__all__)
        assert not shared, (first.__name__, second.__name__, shared)


def test_every_layer_name_resolves_on_the_package():
    for layer in LAYERS:
        assert len(set(layer.__all__)) == len(layer.__all__), layer.__name__
        for name in layer.__all__:
            assert getattr(ncgauge, name) is getattr(layer, name), (layer.__name__, name)
    # and the package declares nothing beyond them
    declared = {name for layer in LAYERS for name in layer.__all__}
    assert set(ncgauge.__all__) == declared | {"__version__"}


# Every gate holds its residual to TAU_ALG times the norms of its operands, so
# no caller needs a tolerance, mode, step or sample size of its own; the point
# projections are the triple's generators, the zero connection lives on r = n,
# a caller rescales a random connection's coefficients itself, and the action
# and its gradient form their own normal-frame curvature: these parameters
# are constants.
FIXED_PARAMETERS = [
    (basis.is_hermitian, "tol"),
    (basis.is_antihermitian, "tol"),
    (basis.is_traceless, "tol"),
    (basis.is_unitary, "tol"),
    (basis.structure_constants, "tol"),
    (basis.MatrixBasis.from_matrices, "tol"),
    (basis.MatrixBasis.expand, "tol"),
    (basis.MatrixBasis.expand, "strict"),
    (basis.MatrixBasis.same_as, "tol"),
    (connections.MatrixConnection.zero, "r"),
    (connections.random_connection, "scale"),
    (connections.action, "f"),
    (connections.action_gradient, "f"),
    (connections.hermitian_compatibility_check, "tol"),
    (connections.grassmann_connection, "tol"),
    (connections.minimize, "step0"),
    (connections.minimize, "armijo"),
    (connections.minimize, "trace_every"),
    (lattice.vacuum_check, "tol"),
    (spectral.check_axioms, "tol"),
    (spectral.fluctuate, "tol"),
    (spectral.represent_form, "projections"),
    (spectral.inner_gauge, "tol"),
    (spectral.inner_gauge, "projections"),
    (spectral.sm_algebra_fixture, "samples"),
    (spectral.sm_algebra_fixture, "seed"),
    (spectral.sm_algebra_fixture, "tol"),
    (verify.suite_universal, "size"),
    (verify.suite_universal, "samples"),
    (verify.suite_calculus, "samples"),
    (verify.suite_gauge, "samples"),
    (verify.suite_spectral, "big_n"),
    (verify.suite_spectral, "samples"),
    (verify.fd_action_gradient, "h"),
    (verify.line_derivative, "h"),
]


def test_no_gate_takes_a_fixed_parameter():
    assert len(FIXED_PARAMETERS) == 35
    present = [
        f"{fn.__qualname__}({name})"
        for fn, name in FIXED_PARAMETERS
        if name in inspect.signature(fn).parameters
    ]
    assert not present, present


def test_the_finite_difference_oracle_stays_importable():
    # the tests and the benchmark's tracer reach it by this name
    from ncgauge.verify import fd_action_gradient

    assert callable(fd_action_gradient)
