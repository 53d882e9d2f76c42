"""Single-pass LRU simulation baselines.

The DEW paper positions itself against the LRU-only single-pass simulators of
Janapsatya et al. (ASP-DAC 2006) and the CRCB enhancements of Tojo et al.
(ASP-DAC 2009).  This package provides working reimplementations of that line
of work so the paper's limitation statement ("DEW can simulate LRU caches,
but will typically be slower than Janapsatya's method") can be measured.
CRCB's pruning of consecutive same-block accesses needs no module of its own:
the fused sweep executor feeds :class:`JanapsatyaSimulator` run-length
collapsed chunks, which is exactly that pruning (see
:meth:`JanapsatyaSimulator.run_block_runs`).

``stack``
    Classic Mattson stack-distance computation, the foundation of
    all-associativity LRU simulation.
``janapsatya``
    A binomial-tree, single-pass, multi-configuration LRU simulator that
    produces exact hit/miss counts for every (set size, associativity) pair
    at a fixed block size.
"""

from repro.lru.stack import StackDistanceEngine, stack_distances
from repro.lru.janapsatya import JanapsatyaSimulator, simulate_lru_family

__all__ = [
    "StackDistanceEngine",
    "stack_distances",
    "JanapsatyaSimulator",
    "simulate_lru_family",
]
