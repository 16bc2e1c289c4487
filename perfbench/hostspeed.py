"""A fixed piece of interpreter work that measures how fast the host runs now.

On a shared machine the speed a process gets drifts by tens of percent over
seconds to minutes, as other tenants load the cores it shares. The benchmark
times this probe before every set-up and every unit, and scales its host
times by ``REFERENCE_S / median(probe times)``: figures read as host time on
a host where the probe takes ``REFERENCE_S``. The probe resembles the
simulator's own work (small objects, a deque queue, dict and list traffic,
numpy scalar draws) but uses no code of the simulator, so a change to the
simulator cannot change it.
"""
from __future__ import annotations

import time
from collections import deque

import numpy as np

# A round figure near the probe's typical time on the machine the benchmark
# was written on (2 vCPUs, x86_64, Python 3.11, numpy 2.4). It only sets the
# level at which scaled times are reported; the same constant must be used
# on both sides of any comparison.
REFERENCE_S = 0.070


class _Packet:
    __slots__ = ("size", "left", "born")

    def __init__(self, size: int, born: int):
        self.size = size
        self.left = size
        self.born = born


class _Queue:
    def __init__(self):
        self.packets: deque[_Packet] = deque()
        self.bits = 0

    def push(self, pkt: _Packet) -> None:
        self.packets.append(pkt)
        self.bits += pkt.size

    def drain(self, budget: int, now: int) -> list[int]:
        delays = []
        while budget > 0 and self.packets:
            head = self.packets[0]
            take = min(budget, head.left)
            head.left -= take
            budget -= take
            self.bits -= take
            if head.left == 0:
                delays.append(now - head.born)
                self.packets.popleft()
        return delays


def probe() -> float:
    """Host seconds taken by the fixed work."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    rng = np.random.Generator(np.random.Philox(12345))
    queues = [_Queue() for _ in range(20)]
    avg = [1.0] * 20
    served: dict[int, int] = {}
    for tti in range(600):
        for q in queues:
            for _ in range(int(rng.poisson(0.3))):
                q.push(_Packet(int(1000 * rng.random()) + 1, tti))
        best = max(range(20), key=lambda i: (queues[i].bits / (avg[i] + 1.0), -i))
        served[best] = served.get(best, 0) + len(queues[best].drain(800, tti))
        avg = [0.99 * a + (8.0 if i == best else 0.0) for i, a in enumerate(avg)]
    return time.perf_counter() - t0
