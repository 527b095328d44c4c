"""The package's public names: each declared once, by exactly one layer."""
from __future__ import annotations

from itertools import combinations

import ncgauge
from ncgauge import basis, connections, derforms, errors, lattice, spectral, tolerances, universal

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
