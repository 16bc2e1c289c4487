"""Per-TTI user selection policies behind a common interface.

Policies:

* BCQQ  — buffer occupancy ratio x QoS weight x QoE multiplier x rate
* MLWDF — QoS weight x head-of-line delay x rate / average rate
* PF    — rate / average rate
* RR    — least recently served non-empty UE

The QoS weight is -ln(alpha) / beta_s: stricter loss targets and tighter
delay bounds raise priority. The priority functions take UEs with queued
bits; ``select`` skips empty inputs. Exactly one UE is granted the full slot
per TTI; an idle decision is returned when every buffer is empty.

A ``UeSchedInput`` is a UE's scheduling record. The engine makes one per UE
for the whole run, and it is the one account of the UE's id, buffer size,
QoS weight, served-rate EMA and last grant. It holds the EMA only under PF
and M-LWDF (``READS_AVG_RATE``), whose priorities read it; under BCQQ and RR
``avg_rate_bps`` stays at its initial 1.0. Likewise the engine keeps q only
under BCQQ (``READS_Q``), whose priority reads it, or for the trace; else
``q`` stays at its initial 1.0. On a TTI the UE has queued bits, the engine
refreshes ``buffer_bits``, ``q`` where kept and ``rate_bps`` (and
``hol_delay_s`` under M-LWDF, the one formula that reads it) and hands the
record to ``select``, which writes each candidate's score to ``priority``.

``select`` compares the priorities as floats and builds the tie-break pair
``(last_served_tti, ue_id)`` only when two are equal, keeping the lower: for
finite priorities (every one the engine computes) that is the order of the
key ``(priority, -last_served_tti, -ue_id)``, without a tuple per candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

# The TTI is fixed at 1 ms: beta_ms, frame_interval_ms, duration_tti,
# window_tti and the CLI's --duration-ms all count TTIs, so these constants
# name the TTI length and do not set it.
TTIS_PER_SECOND = 1000
TTI_SECONDS = 1 / TTIS_PER_SECOND
AVG_RATE_TC = 1000       # EMA time constant, in TTIs
AVG_RATE_FLOOR = 1.0     # bps, keeps rate ratios finite
# One TTI of the served-rate EMA: avg' = max(EMA_DECAY * avg +
# EMA_GAIN * served_bits / TTI_SECONDS, AVG_RATE_FLOOR).
EMA_DECAY = 1.0 - 1.0 / AVG_RATE_TC
EMA_GAIN = 1.0 / AVG_RATE_TC


class Policy(str, Enum):
    BCQQ = "BCQQ"
    MLWDF = "MLWDF"
    PF = "PF"
    RR = "RR"


@dataclass(slots=True)
class UeSchedInput:
    """One UE's scheduling record for a run. Its id, buffer size, QoS weight,
    last grant and, under PF and M-LWDF only, served-rate EMA are kept
    current; ``buffer_bits``, ``q`` (under BCQQ or a trace only),
    ``rate_bps`` and ``hol_delay_s`` hold the TTI it was last a candidate,
    and ``priority`` the score ``select`` last gave it."""
    ue_id: int
    buffer_bits: int
    buffersize_bits: int
    qos_weight: float
    q: float
    rate_bps: float
    hol_delay_s: float
    avg_rate_bps: float
    last_served_tti: int
    priority: float = 0.0


def qos_weight(alpha: float, beta_s: float) -> float:
    """-ln(alpha) / beta_s; fixed per flow, since adjustment changes only the load."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if beta_s <= 0.0:
        raise ValueError("beta_s must be positive")
    return -math.log(alpha) / beta_s


def bcqq_priority(u: UeSchedInput) -> float:
    occupancy = u.buffer_bits / u.buffersize_bits
    return occupancy * u.qos_weight * u.q * u.rate_bps


def mlwdf_priority(u: UeSchedInput) -> float:
    return u.qos_weight * u.hol_delay_s * u.rate_bps / u.avg_rate_bps


def pf_priority(u: UeSchedInput) -> float:
    return u.rate_bps / u.avg_rate_bps


def rr_priority(u: UeSchedInput) -> float:
    # Argmax over -last_served picks the least recently served UE.
    return -float(u.last_served_tti)


PRIORITY_FN = {
    Policy.BCQQ: bcqq_priority,
    Policy.MLWDF: mlwdf_priority,
    Policy.PF: pf_priority,
    Policy.RR: rr_priority,
}


# the policies whose priorities read avg_rate_bps, the ones the engine keeps it for
READS_AVG_RATE = frozenset({Policy.MLWDF, Policy.PF})
# the policies whose priorities read q, the ones the engine keeps it for
READS_Q = frozenset({Policy.BCQQ})


class SchedDecision(NamedTuple):
    selected_ue: int | None
    budget_bits: int


def select(inputs: list[UeSchedInput], policy: Policy) -> SchedDecision:
    """Pick the highest-priority UE among those with queued data.

    Ties break deterministically: least recently served first, then lowest
    ue_id. All buffers empty gives an idle decision. Each input with queued
    bits gets its score in ``priority``.
    """
    if not inputs:
        raise ValueError("need at least one UE")
    priority_fn = PRIORITY_FN[policy]
    best = None
    for u in inputs:
        if u.buffer_bits == 0:
            continue
        p = u.priority = priority_fn(u)
        if best is None or p > best_p or (
                p == best_p
                and (u.last_served_tti, u.ue_id) < (best.last_served_tti, best.ue_id)):
            best, best_p = u, p
    if best is None:
        return SchedDecision(None, 0)
    return SchedDecision(best.ue_id, int(best.rate_bps * TTI_SECONDS))
