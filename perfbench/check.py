"""Word-for-word output checking, and the proof that it can fail.

Every op's gathered output is compared as raw float32 words (a
``uint32`` view, so ``-0.0`` vs ``0.0`` and NaN payloads count) with the
run's first output; after the run, off the clock, the first output is
compared the same way with the reference interpreter's.  An op that
raised, or whose words differ, is a failed op.
"""

from __future__ import annotations

import numpy as np


def differing_words(output, expected):
    """Number of float32 words in which ``output`` differs from
    ``expected``; every word when the shapes differ."""
    output = np.ascontiguousarray(output, dtype=np.float32)
    expected = np.ascontiguousarray(expected, dtype=np.float32)
    if output.shape != expected.shape:
        return max(output.size, expected.size, 1)
    return int(np.count_nonzero(output.view(np.uint32) != expected.view(np.uint32)))


class Ledger:
    """Ops attempted and failed over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_output = None
        self.self_test = None

    def record(self, output):
        """Count one op that returned ``output``."""
        self.attempted += 1
        if self.first_output is None:
            self.first_output = np.array(output, dtype=np.float32, copy=True)
        elif differing_words(output, self.first_output):
            self.failed += 1

    def raised(self, exc):
        """Count one op that raised."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")

    def settle(self, reference):
        """Check the first output against the reference.  When it is
        wrong, every op that matched it was wrong too."""
        if self.first_output is None or differing_words(
            self.first_output, reference
        ):
            self.failed = self.attempted

    @property
    def correct(self):
        return self.failed == 0 and self.self_test is True


def flipped_word_caught(reference, rng):
    """True when one flipped output word is counted as a failed op,
    whether it lands in a later op or in the first one."""
    flipped = np.array(reference, dtype=np.float32, copy=True)
    words = flipped.reshape(-1).view(np.uint32)
    words[rng.integers(words.size)] ^= np.uint32(1 << int(rng.integers(31)))

    later = Ledger()
    later.record(reference)
    later.record(flipped)
    later.settle(reference)

    first = Ledger()
    first.record(flipped)
    first.record(flipped)
    first.settle(reference)
    return later.failed == 1 and first.failed == 2
