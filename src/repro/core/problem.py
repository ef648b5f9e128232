"""The MVCom utility-maximisation problem (Section III).

For one epoch ``j`` the final committee observes, for every member committee
``i`` that submitted a shard, two features: the shard's transaction count
:math:`s_i` and the committee's two-phase latency :math:`l_i`.  With the
deadline :math:`t_j = \\max_k l_k` over the arrived set, the cumulative age
of a permitted shard is :math:`\\Pi_i = x_i (t_j - l_i)` (eq. 1) and the
epoch utility is

.. math:: U = \\sum_i (\\alpha\\, x_i s_i - \\Pi_i)

subject to :math:`\\sum_i x_i \\ge N_{min}` (const. 3) and
:math:`\\sum_i x_i s_i \\le \\hat C` (const. 4).

Because :math:`t_j` is fixed once the arrived set is known, the utility is
*separable*: each shard carries a value :math:`v_i = \\alpha s_i - (t_j -
l_i)` and :math:`U(f) = \\sum_{i \\in f} v_i`.  :class:`EpochInstance`
precomputes these values; everything downstream (SE, baselines, exact
solvers) runs on top of them.

A note on constraint interplay (documented in DESIGN.md): with the paper's
parameters (:math:`N_{min} = 50\\%\\,|I_j|`, :math:`\\hat C = 1000|I_j|`,
mean shard size ~3000 TXs) constraints (3) and (4) can be mutually
unsatisfiable.  We resolve this the only consistent way: the *effective*
minimum count is ``min(N_min, n_cap)`` where ``n_cap`` is the largest
cardinality whose lightest shards fit in :math:`\\hat C`; the instance
records whether the relaxation was applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from repro.analysis.contracts import sane_instance

#: Paper defaults (Section VI-A).
DEFAULT_ALPHA = 1.5
DEFAULT_BETA = 2.0
DEFAULT_TAU = 0.0
DEFAULT_NMIN_FRACTION = 0.5
DEFAULT_NMAX_FRACTION = 0.8


@dataclass(frozen=True)
class MVComConfig:
    """Problem-level parameters shared across epochs.

    Parameters
    ----------
    alpha:
        Weight of the throughput term (paper sweeps 1.5 / 5 / 10).
    capacity:
        :math:`\\hat C`, maximum TXs in the final block per epoch.
    n_min_fraction:
        :math:`N_{min}` as a fraction of the number of arrived committees
        (paper: 50%).
    n_max_fraction:
        :math:`N_{max}`, the fraction of member committees after which the
        final committee stops listening for new arrivals (paper: 80%).
    """

    alpha: float = DEFAULT_ALPHA
    capacity: int = 500_000
    n_min_fraction: float = DEFAULT_NMIN_FRACTION
    n_max_fraction: float = DEFAULT_NMAX_FRACTION

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= self.n_min_fraction <= 1.0:
            raise ValueError("n_min_fraction must lie in [0, 1]")
        if not 0.0 < self.n_max_fraction <= 1.0:
            raise ValueError("n_max_fraction must lie in (0, 1]")


class EpochInstance:
    """One epoch's scheduling instance.

    Attributes
    ----------
    shard_ids:
        Stable identifiers of the arrived shards (committee ids).  Indices
        into the arrays below are *positions*, which change when committees
        join or leave; ids do not.
    tx_counts:
        :math:`s_i` per shard (int64 array).
    latencies:
        Two-phase latency :math:`l_i` per shard (float64 array, seconds).
    ddl:
        :math:`t_j = \\max_i l_i` over the arrived set, unless an explicit
        deadline was supplied.
    ddl_given:
        True when the deadline was supplied rather than derived; JOIN/LEAVE
        edits (:meth:`without`, :meth:`with_shard`) then keep it.
    values:
        Separable utility contribution :math:`v_i = \\alpha s_i - (t_j - l_i)`.
    """

    def __init__(
        self,
        tx_counts: Sequence[int],
        latencies: Sequence[float],
        config: MVComConfig,
        shard_ids: Optional[Sequence[int]] = None,
        ddl: Optional[float] = None,
    ) -> None:
        self.tx_counts = np.asarray(tx_counts, dtype=np.int64)
        self.latencies = np.asarray(latencies, dtype=np.float64)
        if self.tx_counts.shape != self.latencies.shape:
            raise ValueError("tx_counts and latencies must have equal length")
        if self.tx_counts.ndim != 1:
            raise ValueError("expected 1-D shard arrays")
        if len(self.tx_counts) == 0:
            raise ValueError("an epoch instance needs at least one shard")
        if (self.tx_counts < 0).any():
            raise ValueError("tx counts must be non-negative")
        if (self.latencies < 0).any():
            raise ValueError("latencies must be non-negative")

        self.config = config
        if shard_ids is None:
            shard_ids = range(len(self.tx_counts))
        self.shard_ids = tuple(int(s) for s in shard_ids)
        if len(set(self.shard_ids)) != len(self.shard_ids):
            raise ValueError("shard ids must be unique")

        self.ddl_given = ddl is not None
        self.ddl = float(ddl) if self.ddl_given else float(self.latencies.max())
        if self.ddl < self.latencies.max() - 1e-9:
            raise ValueError("ddl must cover the slowest arrived shard")

        self.ages = self.ddl - self.latencies  # cumulative age if permitted
        self.values = config.alpha * self.tx_counts - self.ages

        self._n_cap = self._capacity_cardinality()
        requested_n_min = int(np.ceil(config.n_min_fraction * self.num_shards))
        self.n_min = min(requested_n_min, self._n_cap)
        #: True when const. (3) had to be relaxed to keep the instance feasible.
        self.n_min_relaxed = self.n_min < requested_n_min

        # Plain-list mirrors for scalar-indexing hot paths (numpy scalar
        # indexing costs ~10x a list index; the SE race reads these tens of
        # millions of times).
        self.tx_counts_list = self.tx_counts.tolist()
        self.values_list = self.values.tolist()

    # ------------------------------------------------------------------ #
    # basic shape
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of arrived shards."""
        return len(self.tx_counts)

    @property
    def capacity(self) -> int:
        """Final-block TX capacity (const. 4)."""
        return self.config.capacity

    @property
    def alpha(self) -> float:
        """Throughput weight of the utility."""
        return self.config.alpha

    @property
    def max_feasible_cardinality(self) -> int:
        """Largest n such that the n lightest shards fit in the capacity."""
        return self._n_cap

    def _capacity_cardinality(self) -> int:
        ordered = np.sort(self.tx_counts)
        prefix = np.cumsum(ordered)
        return int(np.searchsorted(prefix, self.capacity, side="right"))

    # ------------------------------------------------------------------ #
    # objective pieces (eq. 1-2)
    # ------------------------------------------------------------------ #
    def utility(self, mask: np.ndarray) -> float:
        """:math:`U(f) = \\sum_{i \\in f} v_i` for a boolean selection mask."""
        mask = self._check_mask(mask)
        return float(self.values[mask].sum())

    def weight(self, mask: np.ndarray) -> int:
        """Total TXs packed, :math:`\\sum_i x_i s_i`."""
        mask = self._check_mask(mask)
        return int(self.tx_counts[mask].sum())

    def cumulative_age(self, mask: np.ndarray) -> float:
        """:math:`\\sum_i \\Pi_i` for the selection (eq. 1)."""
        mask = self._check_mask(mask)
        return float(self.ages[mask].sum())

    def throughput(self, mask: np.ndarray) -> int:
        """Alias for :meth:`weight`: the number of TXs in the final block."""
        return self.weight(mask)

    def is_capacity_feasible(self, mask: np.ndarray) -> bool:
        """Check constraint (4) only."""
        return self.weight(mask) <= self.capacity

    def is_feasible(self, mask: np.ndarray) -> bool:
        """Check constraints (3) and (4)."""
        mask = self._check_mask(mask)
        return bool(mask.sum() >= self.n_min) and self.is_capacity_feasible(mask)

    def _check_mask(self, mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.tx_counts.shape:
            raise ValueError(
                f"mask of length {mask.shape} does not match {self.num_shards} shards"
            )
        return mask

    # ------------------------------------------------------------------ #
    # dynamics support
    # ------------------------------------------------------------------ #
    def position_of(self, shard_id: int) -> int:
        """Index of a shard id (raises ``KeyError`` for unknown ids)."""
        try:
            return self.shard_ids.index(shard_id)
        except ValueError:
            raise KeyError(f"shard id {shard_id} not in instance") from None

    def without(self, shard_id: int) -> "EpochInstance":
        """A new instance with one committee removed (leave/failure).

        N_min and the capacity cardinality re-derive from the smaller
        arrived set.  A given DDL passes through unchanged, so the other
        shards' values v_i stay put; a derived DDL re-derives from the
        remaining latencies, so losing the slowest shard lowers it and
        shifts every value.
        """
        position = self.position_of(shard_id)
        keep = np.ones(self.num_shards, dtype=bool)
        keep[position] = False
        if not keep.any():
            raise ValueError("cannot remove the last shard")
        return EpochInstance(
            tx_counts=self.tx_counts[keep],
            latencies=self.latencies[keep],
            config=self.config,
            shard_ids=[sid for sid in self.shard_ids if sid != shard_id],
            ddl=self.ddl if self.ddl_given else None,
        )

    def with_shard(self, shard_id: int, tx_count: int, latency: float) -> "EpochInstance":
        """A new instance with one committee added (join/recovery).

        A derived DDL re-evaluates to the new maximum latency, so every
        existing shard's age (and value) shifts -- exactly the behaviour of
        eq. (1) when a straggler arrives.  A given DDL becomes
        ``max(ddl, latency)``, so it still covers the newcomer.
        """
        if shard_id in self.shard_ids:
            raise ValueError(f"shard id {shard_id} already present")
        return EpochInstance(
            tx_counts=np.append(self.tx_counts, int(tx_count)),
            latencies=np.append(self.latencies, float(latency)),
            config=self.config,
            shard_ids=list(self.shard_ids) + [int(shard_id)],
            ddl=max(self.ddl, float(latency)) if self.ddl_given else None,
        )

    def carry_over_latency(self, shard_id: int, floor: float = 1.0) -> float:
        """Fig. 3 carry-over for a shard of *this* instance.

        See the module-level :func:`carry_over_latency` for the general rule
        (which also covers committees refused before arrival).
        """
        position = self.position_of(shard_id)
        return carry_over_latency(self.latencies[position], self.ddl, floor)

    def __repr__(self) -> str:
        return (
            f"EpochInstance(n={self.num_shards}, capacity={self.capacity}, "
            f"alpha={self.alpha}, n_min={self.n_min}, ddl={self.ddl:.1f}s)"
        )


def carry_over_latency(latency: float, previous_ddl: float, floor: float = 1.0) -> float:
    """Latency a refused committee carries into the next epoch (Fig. 3).

    "If C_i was not permitted in epoch j, its two-phase latency will be
    updated by reducing the previous DDL in epoch j+1" -- so a straggler
    refused at epoch j re-enters epoch j+1 with ``l_i - t_j`` (it has been
    working all along); committees that finished before the DDL carry the
    ``floor``.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    return max(float(latency) - float(previous_ddl), floor)


def n_max_cutoff(n_max_fraction: float, arrivals: int) -> int:
    """Arrivals the :math:`N_{max}` rule keeps: ``max(1, floor(N_max * arrivals))``.

    The product is taken in the fraction's decimal value: ``0.29`` is
    stored as ``0.28999...`` in binary, so flooring the float product
    would keep 28 of 100 arrivals instead of 29.  The fraction is read
    back from its shortest round-trip repr and multiplied exactly.
    """
    exact = Fraction(str(float(n_max_fraction))) * int(arrivals)
    return max(1, math.floor(exact))


@sane_instance
def build_instance(
    shards,
    config: MVComConfig,
    ddl: Optional[float] = None,
) -> EpochInstance:
    """Build an :class:`EpochInstance` from ``ShardRecord``-like objects.

    Accepts any sequence of objects exposing ``shard_id``, ``tx_count``
    (:math:`s_i`, TXs) and ``latency`` (:math:`l_i`, seconds) — duck-typed
    so :mod:`repro.data` and :mod:`repro.chain` can both feed the core
    without import cycles.  N_min/Ĉ gating comes from ``config``.
    """
    shards = list(shards)
    if not shards:
        raise ValueError("cannot build an instance from zero shards")
    return EpochInstance(
        tx_counts=[shard.tx_count for shard in shards],
        latencies=[shard.latency for shard in shards],
        config=config,
        shard_ids=[shard.shard_id for shard in shards],
        ddl=ddl,
    )
