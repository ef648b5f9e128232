"""Closed-form fast path for the chain substrate.

The DES in :mod:`repro.chain.pbft` / :mod:`repro.chain.network` /
:mod:`repro.sim.engine` is the *reference executable spec*: every
protocol message is a scheduled callback, which is faithful but costs
O(c^2) Python lambdas per PBFT stage.  This module computes the same
round latency in closed form with numpy order statistics, in the same
reference-vs-optimized discipline as :mod:`repro.core.engine` (the DES
stays ground truth; the fast path is validated distributionally with
per-size KS tests in ``tests/test_chain_fastpath.py``).

**PBFT kernel.**  On a loss-free network whose honest members reach
quorum, the DES round is a deterministic function of its random inputs,
so the whole event cascade collapses into matrix algebra.  The normal
case under primary seat ``p`` starting at ``t``:

* NIC serialisation is a *rank* matrix ``D[i, r] = pos(i, r) / bandwidth``
  where ``pos`` is recipient ``r``'s position in sender ``i``'s broadcast
  (member order, sender skipped);
* pre-prepare arrival at replica ``r`` is ``t + D[p, r] + Lognormal``
  (later if the primary's NIC is still busy at ``t``);
* prepare votes land at ``B[i] + D[i, r] + Lognormal`` (``B`` = send time
  deferred by the sender's busy NIC), own votes at their send events, and
  a replica is *prepared* at the first vote event at or after
  ``max(pre-prepare arrival, 2f-th smallest vote)``;
* commit votes repeat the pattern and the round commits at the primary's
  ``(2f+1)``-th smallest commit-vote time -- order statistics instead of
  event scheduling.

**View changes.**  A Byzantine primary never pre-prepares, so view
``v - 1`` times out at ``tau_v = t_{v-1} + T * 2**(v-1)`` (``t_0 = 0``,
``T`` = :func:`view_change_timeout`).  Then every honest replica
broadcasts VIEW-CHANGE(v) in member order: the message from ``i`` to
``r`` departs at ``tau_v + D[i, r]`` (after the sender's previous
VIEW-CHANGE burst, if one is still draining) plus a lognormal lag.  A
vote counts at its first delivery to an *honest* replica (Byzantine
handlers drop it, a replica does not count its own), and view ``v``
starts at ``t_v``, the ``(2f+1)``-th smallest of those first-delivery
times; later VIEW-CHANGE messages are ignored.  The cascade repeats while
``members[v % c]`` is Byzantine; at the first honest primary the normal
case runs with ``p = v`` from ``t = t_v``, every honest NIC busy until
its VIEW-CHANGE burst drains and the primary's pre-prepare burst on top.
The round then reports the DES's stage times: ``new-view-1 .. v``,
``pre-prepare-sent = t_v``, ``prepare-quorum``, ``commit-quorum``.

The closed form is *invalid* (caller falls back to the DES) when the
honest count cannot reach quorum, ``loss_probability > 0``, or the
computed commit reaches ``t_v + T * 2**v``, the timeout of its view (the
DES would fire the timer first and change views again).  The first two
checks happen before any RNG draw, so a fallback round consumes the
stream from exactly the same position as a pure DES run and stays
byte-identical; the timeout fallback necessarily happens after the
kernel's draws and is only distributionally faithful.

**Batched rounds.**  All committees of an epoch share one sequential RNG
stream, so :func:`repro.chain.committee.run_intra_consensus_batch` stacks
every closed-form-eligible committee -- honest and Byzantine view-0
primaries alike -- into a single kernel call (:func:`_pbft_kernel_batch`)
instead of ``K`` small-matrix calls; the per-call numpy dispatch overhead
dominates at ``c = 8``, and at ``c = 128`` a DES replay costs ~40k
``Network.send`` calls.  The batch draws
one 128-bit Philox key from the shared stream (a fixed two-``uint64``
consumption, whatever the batch shape) and replays the ineligible
committees under the DES afterwards; committee-vs-committee draw *order*
therefore differs from the one-round-at-a-time path, which is immaterial
because the draws are independent (the per-size KS tests cover both entry
points).  With a lossy network nothing is drawn by the kernel at all --
not even the key -- so a fully-fallback epoch stays byte-identical to the
pure DES epoch.

**Chunked streaming.**  At eth2 scale (``K = 1024`` committees of
``c = 128``) a monolithic batch would materialise several ``(K, c, c)``
tensors of ~135 MB each.  Instead the kernel is *counter-addressed*:
committee ``k`` owns the absolute Philox counter block
``[k * S / 4, (k + 1) * S / 4)`` where ``S`` is the per-committee uniform
budget (:func:`_kernel_draw_budget`, padded to whole 4-word counter
blocks) for its normal case.  VIEW-CHANGE round ``j`` has its own region
after all ``K`` normal-case blocks, in which the committees that need
round ``j`` hold consecutive ``c^2``-lag blocks in committee order (so a
chunk draws each round with one contiguous counter range).  The batch is
processed in committee-index chunks sized by a
``max_batch_bytes`` scratch budget (:class:`repro.chain.params.ChainParams`,
default 256 MiB).  Because every committee's bytes live at a fixed
counter offset, the chunked result is *byte-identical* at any chunk size
-- including 1 and "everything at once" -- and the calling stream's
position never depends on the chunking.  Exponential and lognormal
variates come from the uniform lattice through exact inverse-CDF /
Box-Muller transforms, so the KS parity claims vs the DES are unchanged.
Per-chunk scratch (the uniform lattice, the normal block, and two
``(rows, c, c)`` vote matrices) is allocated once and reused across
chunks via ``out=`` ufuncs; the VIEW-CHANGE rounds run in the same
buffers before the chunk's normal case.

**Crosslink-scale note.**  The commit quorum only ever gates on votes
*to the primary* (the round commits at the primary's ``(2f+1)``-th
commit vote), so the kernel draws the commit-lag matrix's primary column
only -- ``c`` lognormals per committee instead of ``c^2`` --
distributionally identical to the historical full-matrix draw and one of
the two ``(K, c, c)`` tensors gone outright.

**Formation kernel.**  Stages 1-2 (PoW election + overlay configuration)
contain no event interleaving at all, so their vectorization is
*byte-identical* to the DES path: the same ``rng.exponential`` block
draw for solve times, grouped order statistics for fill times and
membership, a prefix-maximum recurrence for the serial registration
queue, and one gossip block draw in committee-index order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.chain.node import Node
from repro.chain.params import NetworkParams
from repro.chain.pbft import PbftOutcome, run_pbft_round
from repro.chain.pow import _committee_of
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry
from repro.sim.rng import counter_rng, philox_key

#: NIC rank geometry per (committee size, 1/bandwidth) -- identical for
#: every round at a given configuration, so computing it per call would
#: be pure numpy dispatch overhead.  LRU-bounded: a long-running
#: multi-configuration sweep (network-size x committee-size x bandwidth)
#: must not grow the cache without limit.
_NIC_GEOMETRY: "OrderedDict[Tuple[int, float], Tuple[np.ndarray, float]]" = OrderedDict()
_NIC_GEOMETRY_MAX_ENTRIES = 16


def _nic_geometry(c: int, inv_bw: float) -> Tuple[np.ndarray, float]:
    """``(nic, burst_s)`` for a ``c``-member committee.

    ``nic[i, r]`` is recipient ``r``'s NIC-serialisation delay in sender
    ``i``'s broadcast burst (member order, sender skipped); ``burst_s`` is
    one full broadcast burst, i.e. how long a broadcast keeps the
    sender's NIC busy.
    """
    key = (c, inv_bw)
    cached = _NIC_GEOMETRY.get(key)
    if cached is None:
        idx = np.arange(c)
        rank = np.where(idx[None, :] > idx[:, None], idx[None, :], idx[None, :] + 1)
        np.fill_diagonal(rank, 0)
        cached = (rank * inv_bw, (c - 1) * inv_bw)
        _NIC_GEOMETRY[key] = cached
        if len(_NIC_GEOMETRY) > _NIC_GEOMETRY_MAX_ENTRIES:
            _NIC_GEOMETRY.popitem(last=False)
    else:
        _NIC_GEOMETRY.move_to_end(key)
    return cached


def _kernel_draw_budget(c: int) -> Tuple[int, int, int]:
    """``(uniforms, exponentials, normals)`` one committee's normal case consumes.

    Per ``c``-member committee the kernel needs ``2c`` exponentials
    (prepare + commit verify delays), and ``c + c^2 + c`` standard normals
    (pre-prepare lag, the full prepare-lag matrix, and the commit-lag
    primary column).  Normals come from Box-Muller pairs, so their uniform
    count is rounded up to even; the total is padded to a multiple of four
    so every committee starts on a whole Philox counter block.
    """
    n_exp = 2 * c
    n_norm = c * c + 2 * c
    n_norm_u = n_norm + (n_norm & 1)
    total = n_exp + n_norm_u
    total += (-total) % 4
    return total, n_exp, n_norm


def _view_change_draw_budget(c: int) -> int:
    """Uniforms one VIEW-CHANGE round consumes: the ``(c, c)`` lag matrix.

    The diagonal is drawn and ignored (a replica does not count its own
    vote), which keeps the block a plain square; padded to a whole Philox
    counter block, which also makes it even for Box-Muller.
    """
    return c * c + (-(c * c)) % 4


def kernel_bytes_per_committee(c: int) -> int:
    """Approximate live scratch bytes one committee adds to a chunk.

    Counts the uniform lattice, the normal block plus its Box-Muller
    temporaries, the two ``(c, c)`` vote/partition matrices, the boolean
    threshold mask, and a dozen ``(c,)`` working vectors.  Used by
    :func:`kernel_chunk_rows` to size chunks under ``max_batch_bytes``.
    The VIEW-CHANGE rounds reuse the same lattice, normal block and vote
    matrix (their ``c^2`` block is smaller than the normal case's), so
    they add nothing here.
    """
    total_u, _, n_norm = _kernel_draw_budget(c)
    n_norm_u = n_norm + (n_norm & 1)
    return 8 * (total_u + 2 * n_norm_u + 2 * c * c + 12 * c) + c * c


def kernel_chunk_rows(c: int, max_batch_bytes: Optional[int]) -> int:
    """Committees per chunk under a ``max_batch_bytes`` scratch budget.

    Always at least 1: a single committee is the smallest unit the kernel
    can process, even when it alone exceeds the budget.
    """
    if max_batch_bytes is None:
        return 2**31
    return max(1, int(max_batch_bytes) // kernel_bytes_per_committee(c))


def view_change_timeout(network_params: NetworkParams, verify_mean_s: float) -> float:
    """PbftRound's adaptive view-change timeout (must match it exactly)."""
    return 8.0 * verify_mean_s + 20.0 * network_params.base_delay


class KernelBatch(NamedTuple):
    """Per-committee results of one :func:`_pbft_kernel_batch` call."""

    #: commit time at the committing view's primary, shape ``(K,)``
    commit: np.ndarray
    #: that primary's prepare-quorum time, shape ``(K,)``
    prepared: np.ndarray
    #: the committing view ``v`` (0 when the view-0 primary is honest)
    views: np.ndarray
    #: new-view times ``t_1 .. t_v``, shape ``(K, max v)``, NaN-padded
    new_view: np.ndarray
    #: when view ``v``'s timer fires: ``t_v + T * 2**v`` (``t_0 = 0``)
    deadline: np.ndarray

    def in_time(self) -> np.ndarray:
        """Committees whose closed form holds: commit before view ``v`` times out.

        Otherwise the DES would fire the next view change first, and the
        cascade after that is not closed-form.
        """
        return np.isfinite(self.commit) & (self.commit < self.deadline)

    def stage_times(self, k: int) -> Dict[str, float]:
        """Committee ``k``'s ``PbftOutcome.stage_times``, in the DES's shape."""
        view = int(self.views[k])
        stages = {f"new-view-{j + 1}": float(self.new_view[k, j]) for j in range(view)}
        stages["pre-prepare-sent"] = float(self.new_view[k, view - 1]) if view else 0.0
        stages["prepare-quorum"] = float(self.prepared[k])
        stages["commit-quorum"] = float(self.commit[k])
        return stages


def _lognormals(
    u1: np.ndarray, u2: np.ndarray, out: np.ndarray, mu: float, sigma: float
) -> None:
    """``exp(mu + sigma * z)`` into ``out`` from uniform pairs ``(u1, u2)``.

    Box-Muller gives exact standard normals ``z`` (even lanes from the
    cosine, odd lanes from the sine), so the lags keep their DES
    distribution.
    """
    radius = np.log1p(np.negative(u1))
    radius *= -2.0
    np.sqrt(radius, out=radius)
    theta = u2 * (2.0 * np.pi)
    z0 = out[:, 0::2]
    z1 = out[:, 1::2]
    np.cos(theta, out=z0)
    z0 *= radius
    np.sin(theta, out=z1)
    z1 *= radius
    out *= sigma
    out += mu
    np.exp(out, out=out)


def _pbft_kernel_batch(
    honest: np.ndarray,
    speeds: np.ndarray,
    rng: np.random.Generator,
    network_params: NetworkParams,
    verify_mean_s: float,
    max_batch_bytes: Optional[int] = None,
    view_change_timeout_s: Optional[float] = None,
) -> KernelBatch:
    """The order-statistics kernel over a ``(K, c)`` committee stack.

    Covers ``K`` independent loss-free rounds whose honest count reaches
    quorum; committees whose view-0 primary is Byzantine first run the
    VIEW-CHANGE cascade (see the module docstring) up to their first
    honest primary.  The caller is responsible for those pre-draw checks
    and for the post-draw timeout fallback (:meth:`KernelBatch.in_time`).

    The only consumption from ``rng`` is one Philox key (two ``uint64``
    words).  Committee ``k``'s normal case lives at counter offset
    ``k * S / 4`` of the keyed stream; its VIEW-CHANGE round ``j`` lives
    in a region after all ``K`` normal-case blocks, ranked among the
    committees that need round ``j``.  Every block has a fixed offset, so
    splitting the stack into chunks of any size -- bounded by
    ``max_batch_bytes`` of live scratch -- reproduces identical bytes.
    """
    num_rounds, c = honest.shape
    f = (c - 1) // 3
    nic, burst_s = _nic_geometry(c, 1.0 / network_params.bandwidth_msgs_per_s)
    if view_change_timeout_s is None:
        view_change_timeout_s = view_change_timeout(network_params, verify_mean_s)
    mu = float(np.log(network_params.base_delay))
    sigma = network_params.jitter_sigma
    idx = np.arange(c)
    nic_by_recipient = nic.T

    # The committing view is the first honest seat: view v's primary is
    # members[v % c], and a Byzantine primary stays silent until its view
    # times out.  Quorum guarantees an honest seat below c.
    views = np.argmax(honest, axis=1)
    max_view = int(views.max(initial=0))

    key = philox_key(rng)
    total_u, n_exp, n_norm = _kernel_draw_budget(c)
    n_norm_u = n_norm + (n_norm & 1)
    vc_u = _view_change_draw_budget(c)
    # VIEW-CHANGE blocks follow the K normal-case blocks: round-major,
    # then in committee order over the committees that need the round.
    needs = views[None, :] >= np.arange(1, max_view + 1)[:, None]
    vc_block = np.cumsum(needs).reshape(needs.shape) - 1
    rows = min(num_rounds, kernel_chunk_rows(c, max_batch_bytes))

    # Chunk-reused scratch: the uniform lattice, the normal block, and the
    # two (rows, c, c) matrices -- the only O(c^2)-per-committee arrays.
    uniforms = np.empty((rows, total_u))
    normals = np.empty((rows, n_norm_u))
    votes = np.empty((rows, c, c))
    scratch = np.empty((rows, c, c))

    commit_out = np.empty(num_rounds)
    prepared_out = np.empty(num_rounds)
    deadline_out = np.empty(num_rounds)
    new_view_out = np.full((num_rounds, max_view), np.nan)
    for start in range(0, num_rounds, rows):
        b = min(rows, num_rounds - start)
        honest_b = honest[start : start + b]
        view_b = views[start : start + b]
        t_view = np.zeros(b)  # t_v: when the committing view starts
        nic_busy = np.zeros(b)  # honest NICs drain their last VIEW-CHANGE burst
        timer = np.full(b, view_change_timeout_s)  # the current view's timeout

        # VIEW-CHANGE rounds: at the timeout every honest replica
        # broadcasts; a vote counts at its first delivery to an honest
        # replica, and the new view starts at the (2f+1)-th voter.
        for j in range(1, int(view_b.max(initial=0)) + 1):
            sel = np.flatnonzero(view_b >= j)
            n = sel.size
            lattice = uniforms.reshape(-1)[: n * vc_u]
            offset = num_rounds * total_u + int(vc_block[j - 1, start + sel[0]]) * vc_u
            counter_rng(key, offset // 4).random(out=lattice)
            lattice = lattice.reshape(n, vc_u)
            lag = normals.reshape(-1)[: n * vc_u].reshape(n, vc_u)
            _lognormals(lattice[:, 0::2], lattice[:, 1::2], lag, mu, sigma)
            send = np.maximum(timer[sel], nic_busy[sel])
            delivered = votes[:n]
            np.add(lag[:, : c * c].reshape(n, c, c), nic[None, :, :], out=delivered)
            delivered += send[:, None, None]
            delivered[:, idx, idx] = np.inf
            honest_sel = honest_b[sel]
            np.copyto(delivered, np.inf, where=~honest_sel[:, None, :])
            first = delivered.min(axis=2)
            first[~honest_sel] = np.inf
            first.partition(2 * f, axis=1)
            started = first[:, 2 * f]
            new_view_out[start + sel, j - 1] = started
            t_view[sel] = started
            nic_busy[sel] = send + burst_s
            timer[sel] = started + view_change_timeout_s * 2.0**j

        counter_rng(key, start * (total_u // 4)).random(out=uniforms[:b].reshape(-1))
        u = uniforms[:b]
        # Lognormal lags: one pass over the whole normal block; lag_pre /
        # lag1 / lag2-primary-column are views.
        z = normals[:b]
        normal_u = u[:, n_exp : n_exp + n_norm_u]
        _lognormals(normal_u[:, 0::2], normal_u[:, 1::2], z, mu, sigma)
        lag_pre = z[:, :c]
        lag2_col = z[:, c + c * c : c + c * c + c]

        # Verify delays: one inverse-CDF pass over both exponential lanes.
        expo = np.log1p(np.negative(u[:, :n_exp]))
        neg_scale = (-verify_mean_s) / speeds[start : start + b]
        verify1 = expo[:, :c]
        verify1 *= neg_scale
        verify2 = expo[:, c : 2 * c]
        verify2 *= neg_scale

        # Pre-prepare arrivals: the primary (seat p = v) broadcasts once
        # its NIC is free at t_v and pre-prepares itself at t_v.
        row = np.arange(b)
        preprepare_at = np.maximum(t_view, nic_busy)
        arrival = lag_pre
        arrival += nic[view_b]
        arrival += preprepare_at[:, None]
        arrival[row, view_b] = t_view
        nic_free = np.repeat(nic_busy[:, None], c, axis=1)
        nic_free[row, view_b] = preprepare_at + burst_s

        # Prepare votes: sent after one verify delay, once the sender's
        # NIC has drained (the primary's pre-prepare burst, everyone's
        # VIEW-CHANGE burst).
        prep_send = arrival + verify1
        depart1 = np.maximum(prep_send, nic_free)
        votes_b = votes[:b]
        np.add(z[:, c : c + c * c].reshape(b, c, c), nic[None, :, :], out=votes_b)
        votes_b += depart1[:, :, None]
        votes_b[:, idx, idx] = prep_send
        votes_b[~honest_b] = np.inf
        # Prepared at the first vote event >= max(pre-prepare arrival,
        # 2f-th smallest vote) -- votes can land before the pre-prepare
        # and only count once the replica is pre-prepared.
        scratch_b = scratch[:b]
        np.copyto(scratch_b, votes_b)
        scratch_b.partition(2 * f - 1, axis=1)
        threshold = np.maximum(arrival, scratch_b[:, 2 * f - 1, :])
        np.copyto(scratch_b, votes_b)
        scratch_b[votes_b < threshold[:, None, :]] = np.inf
        prepared = scratch_b.min(axis=1)

        # Commit votes: one more verify delay.  A replica can become
        # prepared from *others'* votes while its own prepare verify is
        # still running, so its commit burst may hit the NIC before its
        # prepare burst -- burst order on the NIC is the event order of
        # the send calls.  (The late prepare burst then departs up to
        # (c-1)/bandwidth later, which we do not feed back into the
        # prepare quorums above: the window is measure-(c-1)/bandwidth
        # and sub-millisecond at default bandwidth, far below KS
        # resolution; the DES stays the reference for it.)  Only the
        # votes *to the primary* matter: the round commits at the
        # primary's (2f+1)-th commit vote, with no pre-prepare gate.
        commit_send = prepared + verify2
        commit_first = commit_send < prep_send
        depart2 = np.where(
            commit_first,
            np.maximum(commit_send, nic_free),
            np.maximum(commit_send, depart1 + burst_s),
        )
        votes2_primary = depart2 + nic_by_recipient[view_b]
        votes2_primary += lag2_col
        votes2_primary[row, view_b] = commit_send[row, view_b]
        votes2_primary[~honest_b] = np.inf
        votes2_primary.partition(2 * f, axis=1)
        commit_out[start : start + b] = votes2_primary[:, 2 * f]
        prepared_out[start : start + b] = prepared[row, view_b]
        deadline_out[start : start + b] = timer
    return KernelBatch(commit_out, prepared_out, views, new_view_out, deadline_out)


def emit_kernel_round(
    telemetry: NullTelemetry, round_tag: str, batch: KernelBatch, k: int, members: int
) -> None:
    """The DES's telemetry for committee ``k`` of a kernel batch.

    One ``chain.pbft.view_change`` event per view change, then the
    ``chain.pbft.round`` span on sim time -- the records
    :class:`repro.chain.pbft.PbftRound` emits for the same round.
    """
    if not telemetry.enabled:
        return
    view = int(batch.views[k])
    for j in range(view):
        telemetry.event(
            "chain.pbft.view_change", tag=round_tag, view=j + 1, at=float(batch.new_view[k, j])
        )
    commit_time = float(batch.commit[k])
    telemetry.record_span(
        "chain.pbft.round",
        0.0,
        commit_time,
        tag=round_tag,
        view=view,
        members=members,
        stages=batch.stage_times(k),
    )


def _closed_form_pbft(
    members: Sequence[Node],
    rng: np.random.Generator,
    network_params: NetworkParams,
    verify_mean_s: float,
    round_tag: str,
    view_change_timeout_s: Optional[float],
    telemetry: NullTelemetry,
) -> Tuple[Optional[PbftOutcome], str]:
    """The order-statistics kernel; returns ``(outcome, fallback_reason)``.

    ``outcome`` is ``None`` when the closed form does not apply and the
    caller must run the reference DES; ``fallback_reason`` says why.
    """
    c = len(members)
    if c < 4:
        raise ValueError("PBFT needs at least 4 members (3f+1, f >= 1)")
    f = (c - 1) // 3
    # Validity checks that consume no randomness -- a fallback from here
    # replays the DES from the identical stream position.
    if network_params.loss_probability > 0.0:
        return None, "lossy-network"
    honest = np.array([node.honest for node in members], dtype=bool)
    if int(honest.sum()) < 2 * f + 1:
        return None, "no-quorum"

    speeds = np.array([node.verify_speed for node in members])
    batch = _pbft_kernel_batch(
        honest[None, :],
        speeds[None, :],
        rng,
        network_params,
        verify_mean_s,
        view_change_timeout_s=view_change_timeout_s,
    )
    if not batch.in_time()[0]:
        # The DES would fire the next view change before this commit.
        # (The kernel's key draw is already consumed, so this fallback is
        # distributional only.)
        return None, "view-change-timeout"

    commit_time = float(batch.commit[0])
    outcome = PbftOutcome(
        committed=True,
        start_time=0.0,
        commit_time=commit_time,
        stage_times=batch.stage_times(0),
    )
    emit_kernel_round(telemetry, round_tag, batch, 0, c)
    return outcome, ""


def pbft_round_closed_form(
    members: Sequence[Node],
    rng: np.random.Generator,
    network_params: NetworkParams,
    verify_mean_s: float,
    round_tag: str = "round-0",
    view_change_timeout_s: Optional[float] = None,
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> Optional[PbftOutcome]:
    """Closed-form round latency, or ``None`` when the DES must run."""
    outcome, _ = _closed_form_pbft(
        members, rng, network_params, verify_mean_s, round_tag,
        view_change_timeout_s, telemetry,
    )
    return outcome


def run_pbft_round_fast(
    members: Sequence[Node],
    rng: np.random.Generator,
    network_params: NetworkParams,
    verify_mean_s: float,
    round_tag: str = "round-0",
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> PbftOutcome:
    """One PBFT round on the fast path, DES fallback when invalid."""
    outcome, reason = _closed_form_pbft(
        members, rng, network_params, verify_mean_s, round_tag, None, telemetry
    )
    if outcome is not None:
        return outcome
    if telemetry.enabled:
        telemetry.event("chain.fastpath.fallback", tag=round_tag, reason=reason)
    return run_pbft_round(
        members=members,
        rng=rng,
        network_params=network_params,
        verify_mean_s=verify_mean_s,
        round_tag=round_tag,
        telemetry=telemetry,
    )


def run_pbft(
    chain_engine: str,
    members: Sequence[Node],
    rng: np.random.Generator,
    network_params: NetworkParams,
    verify_mean_s: float,
    round_tag: str = "round-0",
    telemetry: NullTelemetry = NULL_TELEMETRY,
) -> PbftOutcome:
    """Engine dispatch for one PBFT round (``"des"`` | ``"fastpath"``)."""
    runner = run_pbft_round_fast if chain_engine == "fastpath" else run_pbft_round
    return runner(
        members=members,
        rng=rng,
        network_params=network_params,
        verify_mean_s=verify_mean_s,
        round_tag=round_tag,
        telemetry=telemetry,
    )


#: Per-node live-scratch estimate for :func:`formation_kernel` chunking:
#: the solve-time, id, assignment, sort-order and registration arrays plus
#: per-chunk draw temporaries, ~12 float64-sized slots per node.
FORMATION_BYTES_PER_NODE = 96


def formation_chunk_rows(max_batch_bytes: Optional[int]) -> int:
    """Nodes per formation-kernel chunk under ``max_batch_bytes``."""
    if max_batch_bytes is None:
        return 2**31
    return max(1, int(max_batch_bytes) // FORMATION_BYTES_PER_NODE)


def formation_kernel(
    nodes: Sequence[Node],
    num_committees: int,
    committee_size: int,
    mean_solve_s: float,
    epoch_randomness: str,
    registration_rate: float,
    rng: np.random.Generator,
    gossip_delay_mean: float = 4.0,
    solve_scales: Optional[np.ndarray] = None,
    node_ids: Optional[np.ndarray] = None,
    max_batch_bytes: Optional[int] = None,
) -> Tuple[Dict[int, float], Dict[int, List[int]], Dict[int, float]]:
    """Vectorized stages 1-2, byte-identical to the reference path.

    Returns ``(fill_times, members, overlay_times)`` matching
    :func:`repro.chain.pow.committee_fill_times`,
    :func:`repro.chain.pow.committee_members` and
    :func:`repro.chain.overlay.run_overlay_configuration` exactly: the
    solve-time block draw and the gossip block draw consume the RNG
    stream in the same order as the scalar reference loops.  Both block
    draws stream through node-index chunks sized by ``max_batch_bytes``
    (numpy's elementwise exponential consumes the stream sequentially,
    so chunked draws into a preallocated output are byte-identical to
    one monolithic draw at any chunk size).

    ``solve_scales`` / ``node_ids`` are optional precomputed per-node
    arrays (``mean_solve_s / hash_power`` and ids, in ``nodes`` order) --
    they are fixed for the lifetime of a deployment, so multi-epoch
    callers cache them instead of re-reading node attributes per epoch.
    """
    if num_committees <= 0:
        raise ValueError("num_committees must be positive")
    if mean_solve_s <= 0:
        raise ValueError("mean_solve_s must be positive")
    if registration_rate <= 0:
        raise ValueError("registration_rate must be positive")

    scales = (
        np.array([mean_solve_s / node.hash_power for node in nodes])
        if solve_scales is None
        else solve_scales
    )
    if node_ids is None:
        node_ids = np.array([node.node_id for node in nodes])
    n = scales.shape[0]
    step = max(1, min(n, formation_chunk_rows(max_batch_bytes)))
    times = np.empty(n)
    assigned = np.empty(n, dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        times[lo:hi] = rng.exponential(scales[lo:hi])
        assigned[lo:hi] = [
            _committee_of(int(nid), epoch_randomness, num_committees)
            for nid in node_ids[lo:hi]
        ]

    # Directory arrival order (stable, like the reference's list sort).
    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    ids_sorted = node_ids[order]
    comm_sorted = assigned[order]

    # Serial registration queue: free_k = max(free_{k-1}, t_k) + s, which
    # unrolls to a prefix maximum.
    service = 1.0 / registration_rate
    k = np.arange(t_sorted.size)
    ready_sorted = np.maximum.accumulate(t_sorted - k * service) + (k + 1) * service

    # Group arrivals by committee, keeping arrival order inside groups.
    group_order = np.argsort(comm_sorted, kind="stable")
    grouped = comm_sorted[group_order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    ends = np.r_[starts[1:], grouped.size]

    fills: Dict[int, float] = {}
    members: Dict[int, List[int]] = {}
    last_ready: List[float] = []
    for start, end in zip(starts, ends):
        if end - start < committee_size:
            continue  # this committee never fills this epoch
        rows = group_order[start : start + committee_size]
        committee_index = int(grouped[start])
        fills[committee_index] = float(t_sorted[rows[-1]])
        members[committee_index] = [int(nid) for nid in ids_sorted[rows]]
        last_ready.append(float(ready_sorted[rows].max()))

    # One gossip delay per filled committee, in committee-index order --
    # grouped indices are already ascending, matching the reference dict.
    gossip = np.empty(len(members))
    for lo in range(0, len(members), step):
        hi = min(lo + step, len(members))
        gossip[lo:hi] = rng.exponential(gossip_delay_mean, size=hi - lo)
    overlay = {
        committee_index: last + float(g)
        for (committee_index, last), g in zip(zip(members.keys(), last_ready), gossip)
    }
    return fills, members, overlay
