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

:mod:`ncgauge.tolerances` holds the tolerance and the ``Check`` record
every named residual is reported in; :mod:`ncgauge.errors` the exception
types.  The package re-exports each layer's ``__all__``.

``ncgauge.cli`` drives verification suites and small optimization runs
from the command line (installed as the ``ncgauge`` script).
"""

from __future__ import annotations

from . import basis, connections, derforms, errors, lattice, spectral, tolerances, universal
from .basis import *  # noqa: F401,F403
from .connections import *  # noqa: F401,F403
from .derforms import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .tolerances import *  # noqa: F401,F403
from .universal import *  # noqa: F401,F403

__version__ = "0.1.0"

# the layers whose ``__all__`` lists make up the package's public names
_LAYERS = (basis, universal, derforms, connections, lattice, spectral, tolerances, errors)

__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]
