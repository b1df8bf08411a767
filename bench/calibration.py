"""A fixed pure-Python loop that measures how fast the machine runs now.

The shared machines this benchmark runs on change speed by up to half
for seconds at a time.  The loop does the kind of work hyperq does
(``Fraction`` arithmetic and dict updates) and uses nothing from hyperq,
so a change to hyperq cannot change its time.  Each operation's CPU time
is scaled by ``REFERENCE_S / loop_seconds()``, with the loop run before
and after it: the time the operation would take on a machine where the
loop takes ``REFERENCE_S``.  Operations bound by interpreted Python slow
down as much as the loop does (the slope of the one's log time on the
other's is about 1), so for them the scaling removes the host's swings.
Operations bound by big-integer arithmetic slow down much less (slope
about 0.3 for products of degree-16 rational functions), so while the
host is slow their scaled times read low.
"""

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.002


def loop_seconds() -> float:
    """CPU seconds this process takes to run the loop once.  The cyclic
    collector is off meanwhile: a collection would scan the objects
    hyperq keeps alive, and make the loop's time depend on them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        acc = Fraction(0)
        for i in range(1, 160):
            acc += Fraction(i % 7 + 1, i + 3) * Fraction(3, i % 5 + 2)
        table = {}
        for i in range(1200):
            key = (i % 97, i % 3)
            table[key] = table.get(key, 0) + i
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()
