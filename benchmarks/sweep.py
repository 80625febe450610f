"""One-off reference figures: set-up time and throughput against gazetteer
size, on the gazetteer workload's sentence shapes.

    python3 benchmarks/sweep.py --sizes 10 1000 20000 200000 --seed 1

For each size it prints the median set-up time (``load_lexicons`` +
``lexicon_fingerprint`` + one probe extraction, three times) and the
sentences per second of one ``parse_conllu`` -> ``build_document`` ->
``to_json`` pass over 32 sentences.  It is not part of the gated benchmark.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from itirel import (build_document, lexicon_fingerprint,  # noqa: E402
                    load_lexicons, parse_conllu, to_json)

import workloads  # noqa: E402


def measure(size: int, seed: int, workdir: Path) -> tuple[float, float]:
    w = workloads.gazetteer_workload(seed, blocks=2, size=size)
    lexdir = workdir / f"lexicons-{size}"
    lexdir.mkdir(parents=True)
    for name, data in w.lexicon_files.items():
        (lexdir / name).write_bytes(data)
    graphs = parse_conllu(w.conllu)
    probe = next(g for g in graphs if g.sent_id == w.probe)
    setups = []
    for _ in range(3):
        t0 = perf_counter()
        lex = load_lexicons(lexdir)
        fp = lexicon_fingerprint(lexdir)
        build_document([probe], lex, fingerprint=fp)
        setups.append(perf_counter() - t0)
    t0 = perf_counter()
    to_json(build_document(parse_conllu(w.conllu), lex, fingerprint=fp))
    return statistics.median(setups), len(graphs) / (perf_counter() - t0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[10, 1000, 20000, 200000])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    workdir = HERE / "out" / "sweep"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        print("| gazetteer entries | setup_s | sentences_per_s |")
        print("|---|---|---|")
        for size in args.sizes:
            setup, rate = measure(size, args.seed, workdir)
            print(f"| {size} | {setup:.4f} | {rate:.2f} |", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
