"""Fixed start-up work in a fresh interpreter, as a yardstick for set-up time.

    python3 bench/fresh_canary.py

Imports numpy and fills a 65536-row integer table from a pure-Python loop
over bitmasks, then prints {"ready": CLOCK_MONOTONIC} as its last line. That
is the kind of work a set-up probe does (interpreter start, imports, memory
first touched by one large lazy table) and uses no pwckit code. run.py
times it from spawn to "ready" around each set-up probe.
"""

import json
import time

import numpy as np

rows = np.zeros((1 << 16, 17), dtype=np.int64)
for mask in range(1, 1 << 16, 2):
    bits = [i for i in range(16) if mask >> i & 1]
    rows[mask, 0] = len(bits)
    for x, y in zip(bits, bits[1:]):
        rows[mask, (x ^ y).bit_length()] += 1
print(json.dumps({"ready": time.monotonic()}))
