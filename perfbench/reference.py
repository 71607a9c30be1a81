"""A fixed job that shows how fast this host runs Python right now.

    python3 perfbench/reference.py

run.py times this program between the genki commands it measures and
reports their times at the speed this program ran at on a quiet host (see
REFERENCE_S in run.py).  Like a genki command it starts an interpreter,
imports numpy and then spends its time in interpreted code (regex
tokenising, dict counting, keyed sorts, the pure-Python JSON encoder) and
in small numpy passes.  It must not change: every measurement is in its
units.
"""

from __future__ import annotations

import json
import re

import numpy as np

ROUNDS = 6


def main() -> None:
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(500)]
    text = " ".join(words[int(i)] for i in rng.integers(0, 500, 40000))
    square = rng.normal(size=(300, 300))
    floats = [float(x) for x in rng.normal(size=20000)]
    for _ in range(ROUNDS):
        counts: dict[str, int] = {}
        for token in re.findall(r"\w+", text):
            counts[token] = counts.get(token, 0) + 1
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        json.loads(json.dumps(floats, indent=1))
        for _ in range(20):
            np.exp(square - square.max(axis=1, keepdims=True)).sum(axis=1)


if __name__ == "__main__":
    main()
