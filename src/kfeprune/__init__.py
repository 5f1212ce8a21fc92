"""Curvature-aware pruning and bottleneck compression for small networks.

Every name is imported from its own module (``from kfeprune.pipeline
import cmd_prune``); the root re-exports only ``RunConfig``, which the
benchmark's probe builds as ``kfeprune.RunConfig``.
"""

from .config import RunConfig
