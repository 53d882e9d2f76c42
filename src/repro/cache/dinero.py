"""Dinero-style multi-configuration sweeps.

Dinero IV can only simulate one cache configuration per invocation, so
exploring ``N`` configurations costs ``N`` complete passes over the trace.
:class:`DineroStyleRunner` reproduces that cost model: it constructs one
``single`` engine per configuration (via the engine registry) and replays the
trace through each of them independently, accumulating wall-clock time and
tag-comparison counts.  This is the baseline that Table 3, Figure 5 and
Figure 6 measure DEW against.

The clock covers simulation only: ``elapsed_seconds`` sums the ``run`` of
each pass, and engine construction is left out, just as the DEW half of a
Table 3 cell times ``run`` on an engine it built beforehand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Union

from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig, ConfigSpace
from repro.errors import SimulationError
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace


@dataclass
class DineroRunResult:
    """Outcome of sweeping a set of configurations one at a time."""

    stats: Dict[CacheConfig, CacheStats] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    trace_length: int = 0
    passes: int = 0

    @property
    def total_tag_comparisons(self) -> int:
        """Tag comparisons summed over every configuration simulated."""
        return sum(stat.tag_comparisons for stat in self.stats.values())

    def miss_count(self, config: CacheConfig) -> int:
        """Misses recorded for ``config``."""
        return self.stats[config].misses

    def miss_rates(self) -> Dict[CacheConfig, float]:
        """Miss rate per configuration."""
        return {config: stat.miss_rate for config, stat in self.stats.items()}

    def as_rows(self) -> List[Dict[str, object]]:
        """Flat list of per-configuration dictionaries for reporting."""
        rows = []
        for config, stat in sorted(self.stats.items()):
            row: Dict[str, object] = {
                "num_sets": config.num_sets,
                "associativity": config.associativity,
                "block_size": config.block_size,
                "policy": config.policy.value,
            }
            row.update(stat.as_dict())
            rows.append(row)
        return rows


class DineroStyleRunner:
    """Simulate many configurations the way Dinero IV would: one at a time.

    Parameters
    ----------
    configs:
        The configurations to sweep (a :class:`ConfigSpace` or any iterable
        of :class:`CacheConfig`).
    seed:
        Seed forwarded to stochastic replacement policies.
    """

    def __init__(
        self,
        configs: Union[ConfigSpace, Sequence[CacheConfig], Iterable[CacheConfig]],
        seed: int = 0,
    ) -> None:
        self.configs: List[CacheConfig] = list(configs)
        if not self.configs:
            raise SimulationError("DineroStyleRunner needs at least one configuration")
        if len(set(self.configs)) != len(self.configs):
            raise SimulationError("duplicate configurations in Dinero-style sweep")
        self.seed = seed

    def run(
        self,
        trace: Trace,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> DineroRunResult:
        """Replay ``trace`` once per configuration.

        Parameters
        ----------
        trace:
            The memory trace to simulate.
        chunk_size:
            Block-pipeline chunk length forwarded to every engine pass.
        """
        from repro.engine import get_engine

        result = DineroRunResult(trace_length=len(trace))
        for config in self.configs:
            engine = get_engine("single", config=config, seed=self.seed)
            start = time.perf_counter()
            engine.run(trace, chunk_size=chunk_size)
            result.elapsed_seconds += time.perf_counter() - start
            result.stats[config] = engine.stats
            result.passes += 1
        return result
