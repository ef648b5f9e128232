"""Fig. 2's measurement campaign on the Elastico substrate.

Fig. 2a: mean committee-formation latency and intra-committee consensus
latency while the network size scales; formation dominates and grows
roughly linearly (driven by the serial identity registration of stage 2).

Fig. 2b: the CDF of both latency terms at a fixed network size; each is
randomly distributed within a band.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.chain.elastico import ElasticoSimulation
from repro.chain.params import ChainParams


@dataclass(frozen=True)
class TwoPhaseMeasurement:
    """Latency samples measured at one network size."""

    num_nodes: int
    formation_latencies: tuple
    consensus_latencies: tuple

    @property
    def mean_formation(self) -> float:
        """Mean committee-formation latency at this network size."""
        return float(np.mean(self.formation_latencies)) if self.formation_latencies else 0.0

    @property
    def mean_consensus(self) -> float:
        """Mean intra-committee consensus latency at this size."""
        return float(np.mean(self.consensus_latencies)) if self.consensus_latencies else 0.0

    @property
    def mean_two_phase(self) -> float:
        """Mean total two-phase latency (formation + consensus)."""
        return self.mean_formation + self.mean_consensus

    def cdf(self, which: str) -> tuple:
        """(sorted values, cumulative fractions) for 'formation' or 'consensus'."""
        if which == "formation":
            values = np.sort(np.asarray(self.formation_latencies))
        elif which == "consensus":
            values = np.sort(np.asarray(self.consensus_latencies))
        else:
            raise ValueError("which must be 'formation' or 'consensus'")
        if values.size == 0:
            return (), ()
        fractions = np.arange(1, values.size + 1) / values.size
        return tuple(values.tolist()), tuple(fractions.tolist())


def measure_two_phase_latency(
    base_params: ChainParams,
    network_sizes: Sequence[int],
    epochs_per_size: int = 1,
) -> List[TwoPhaseMeasurement]:
    """Run the Elastico substrate at each network size and collect latencies.

    The chain engine is ``base_params.chain_engine`` (``"des"`` reference
    simulation or the ``"fastpath"`` closed-form kernel; see
    :mod:`repro.chain.fastpath`).
    """
    measurements = []
    for num_nodes in network_sizes:
        params = replace(base_params, num_nodes=int(num_nodes))
        simulation = ElasticoSimulation(params)
        formation: List[float] = []
        consensus: List[float] = []
        for _ in range(epochs_per_size):
            outcome = simulation.run_epoch()
            formation.extend(outcome.formation_latencies.values())
            consensus.extend(outcome.consensus_latencies.values())
        measurements.append(
            TwoPhaseMeasurement(
                num_nodes=int(num_nodes),
                formation_latencies=tuple(formation),
                consensus_latencies=tuple(consensus),
            )
        )
    return measurements


def linear_growth_check(measurements: Sequence[TwoPhaseMeasurement]) -> Dict[str, float]:
    """Fit formation latency ~ a * num_nodes + b; used by tests and EXPERIMENTS.md.

    Returns the fit plus R^2 -- Fig. 2a's claim is a near-linear trend
    (positive slope, high R^2), not a specific constant.
    """
    if len(measurements) < 2:
        raise ValueError("need at least two network sizes to fit a trend")
    sizes = np.array([m.num_nodes for m in measurements], dtype=np.float64)
    formations = np.array([m.mean_formation for m in measurements])
    slope, intercept = np.polyfit(sizes, formations, deg=1)
    predicted = slope * sizes + intercept
    residual = formations - predicted
    total = formations - formations.mean()
    r_squared = 1.0 - float((residual**2).sum()) / max(float((total**2).sum()), 1e-12)
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r_squared}
