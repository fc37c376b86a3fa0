"""Deterministic 64-bit PRNG (splitmix64).

The generator and the exact draw order are part of the simulator's
contract: any reimplementation that follows them reproduces request
streams bit for bit.  Reference first outputs for seed 0:
0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.

The mix lives in one place, the ``splitmix64_outputs`` generator.
``SplitMix64`` draws from it one output per method call;
``simulator.generate_requests`` pulls from it directly, which saves a
Python call per draw.
"""

from __future__ import annotations

from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_outputs(seed: int) -> Iterator[int]:
    """The endless splitmix64 output stream of ``seed`` (taken modulo 2**64)."""
    mask, gamma = _MASK64, _GAMMA  # locals: read on every draw
    state = seed & mask
    while True:
        state = (state + gamma) & mask
        x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        yield x ^ (x >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self._outputs = splitmix64_outputs(seed)

    def next_u64(self) -> int:
        return next(self._outputs)

    def next_double(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        """Next output modulo n (modulo bias is accepted and pinned)."""
        if n <= 0:
            raise ValueError("n must be > 0")
        return self.next_u64() % n
