"""Analog quantum search on graphs with static disorder and a thermal bath.

Closed-system evolution, a two-level reduction for the complete graph,
Bloch-Redfield and secular master equations, bath correlation functions,
and a config-driven experiment runner.  Units: hbar = k_B = 1.

Each name is imported from the submodule that defines it, for example
``from qsearch.spectral import reduce_two_level``.
"""

from . import bath, errors, experiments, model, redfield, spectral, unitary
from .version import __version__
