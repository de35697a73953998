"""Detect design patterns in class models by typed-edge subgraph matching.

Class models and patterns are both directed multigraphs whose edges carry a
relationship code (association, dependency, generalization) and a derived
self-loop flag.  ``detect`` reports whether a pattern exists in a model
completely, partially (at the largest matchable size), or not at all,
together with every distinct occurrence.  ``oracle_detect`` is a
brute-force reference implementation for cross-checking results on small
inputs.
"""

__version__ = "0.1.0"

from . import catalog, graph, matcher, model, oracle
from .graph import *
from .model import *
from .catalog import *
from .matcher import *
from .oracle import *

__all__ = [
    "__version__",
    *graph.__all__,
    *model.__all__,
    *catalog.__all__,
    *matcher.__all__,
    *oracle.__all__,
]
