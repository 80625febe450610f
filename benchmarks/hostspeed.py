"""How fast the host runs pure Python right now.

``calibrate()`` times a fixed pure-Python workload that shares no code with
itirel: an arithmetic loop, then splitting tab-separated lines, building
small dicts, NFD-normalising and lower-casing words, sorting and JSON
encoding.  The benchmark times it next to every measured piece of work and
scales that work's time by ``REFERENCE_S / calibration``, so a host that is
running slow for a while slows both and the scaled time stays put.  A change
to itirel does not change the calibration, so it shows in full.

``REFERENCE_S`` is about the calibration's time on the 2-vCPU host the
figures in ``README.md`` come from, in its slow state (over the recorded
runs: median 7.8 ms, quartiles 6.2 and 9.0 ms); scaled times are therefore
seconds on that host running slow.
"""

from __future__ import annotations

import json
import random
import unicodedata
from time import perf_counter

REFERENCE_S = 0.009

_rng = random.Random(7)
_WORDS = ["".join(_rng.choice("abcdéèfghilmnoprstuvz")
                  for _ in range(_rng.randint(2, 9))) for _ in range(300)]
_TEXT = "\n".join(
    "\t".join([str(i % 30 + 1), _rng.choice(_WORDS), _rng.choice(_WORDS),
               _rng.choice(["NOUN", "VERB", "ADP", "DET"]), str(i % 7),
               _rng.choice(["obl", "nsubj", "obj", "case"])])
    for i in range(600))


def _loop() -> int:
    x = 0
    for i in range(60_000):
        x += i * i % 7
    return x


def _text() -> int:
    rows = [tuple(line.split("\t")) for line in _TEXT.split("\n")]
    by_head: dict[str, list] = {}
    for r in rows:
        by_head.setdefault(r[4], []).append({
            "id": int(r[0]), "form": r[1],
            "lemma": unicodedata.normalize("NFD", r[2]).lower(),
            "upos": r[3], "rel": r[5]})
    found = [w for w in _WORDS[:40] for r in rows[:60] if r[2] == w]
    return len(json.dumps(dict(sorted(by_head.items())),
                          ensure_ascii=False)) + len(found)


def calibrate(repeats: int = 3) -> float:
    """Best of ``repeats`` timings of the fixed workload, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        _loop()
        _text()
        best = min(best, perf_counter() - t0)
    return best


if __name__ == "__main__":
    import statistics
    times = [calibrate() for _ in range(200)]
    print(f"median {statistics.median(times):.6f} s, best {min(times):.6f} s")
