"""Toolkit for news diffusion networks on social platforms.

Reconstructs directed interaction networks from event streams, measures
global topology (components, diameter, clustering, k-core), compares
networks with alignment-free distances (directed graphlet correlation
distance, portrait divergence), and classifies mainstream versus
disinformation spreading patterns with cross-validated linear and
nearest-neighbor models.
"""

from .errors import *
from .graphs import *
from .features import *
from .graphlets import *
from .portraits import *
from .ml import *
from .synth import *
from .dataset import *
from . import dataset, errors, features, graphlets, graphs, ml, portraits, synth

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, graphs, features, graphlets, portraits, ml, synth, dataset)
    for name in module.__all__
]
