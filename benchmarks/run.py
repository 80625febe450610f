"""Benchmark of the itirel pipeline on one seeded workload.

    python3 benchmarks/run.py --workload gold-replica --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout: it imports ``src/itirel`` and
``tests/turtle_check.py`` from there and writes only under
``benchmarks/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.
Metric names and units come from ``BENCHMARK.json``.

A run generates its inputs from the seed, checks one full pass, warms up,
then repeats whole rounds for ``--seconds``: it starts no round that would,
at the run's mean round time, end past that.  An untraced round is

* the set-up, one to five times (set per workload): ``load_lexicons`` +
  ``lexicon_fingerprint`` + extraction of one probe sentence;
* one to three sentence passes (set per workload): every sentence of the
  corpus, one at a time, through ``parse_conllu`` -> ``build_document`` ->
  ``to_json``, with the cyclic garbage collector paused (as ``timeit``
  does);
* two ``itirel extract --format both`` child processes, one after the
  other, started through ``itirel.cli.entrypoint``;

with a calibration (``hostspeed.calibrate``) before and after each of these
pieces.

A traced round is the set-up (with a second, warm probe extraction), one
untraced and one traced pass of the whole corpus through ``parse_conllu``
-> ``build_document`` -> ``to_json`` (in alternating order; the traced pass
goes on through ``to_turtle`` and ``from_json``), and one child process that
only starts the CLI and parses its arguments.

The host this was written on switches between a fast and a slow state, for
a second or for tens of seconds at a time, so neither a median nor a best
time over a run repeats from run to run.  Every in-process time is
therefore scaled by ``hostspeed.REFERENCE_S`` over the mean of the
calibrations taken just before and just after it.  Set-up and pass times
are medians over the run; each sentence's extraction time is a trimmed mean
over the passes, and percentiles are taken over the sentences.  The CLI
child's time does not follow the calibrations next to it, so ``cli_wall_s``
is its mean wall time scaled by ``REFERENCE_S`` over the run's mean
calibration.  Trimmed means leave out the lowest and highest tenth.  Peak
RSS is a median over the rounds.

Operations are sentences, probe extractions and CLI runs.  The first full
pass and every CLI output are checked by ``check.py`` against the
generator's facts; the other passes must reproduce the checked output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASE_IRI = "https://example.org/iti"
CLI_MAIN = "from itirel.cli import entrypoint; entrypoint()"
CLI_STARTUP = ("import sys; from itirel.cli import build_parser; "
               "build_parser().parse_args(sys.argv[1:])")
# A child's ru_maxrss starts from its parent's RSS at fork, so the CLI is
# started by this small launcher process instead of by the benchmark, whose
# own memory would otherwise be reported as the CLI's.  The launcher prints
# the CLI's exit code, wall seconds and peak RSS in KiB.
LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable] + sys.argv[1:],
                     os.environ, file_actions=[
                         (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss)
"""
# CLI runs per untraced round: each child runs at its own speed, so the
# CLI needs more samples than the in-process passes.
CLI_RUNS = 2
SETUP_METRICS = ("setup_s", "lexicon.load_s", "serialize.fingerprint_s",
                 "lexicon.first_use_s")


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of the values without the lowest and highest ``cut`` of them.

    The host switches between a fast and a slow state, and a run spends a
    varying share of its time in each: a median then jumps between the two
    states from run to run, while a mean moves with the share, as the
    calibrations' mean does."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def _require_checkout() -> None:
    needed = (SRC / "itirel" / "__init__.py", ROOT / "tests" / "turtle_check.py",
              ROOT / "BENCHMARK.json")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print("run.py: not an itirel source checkout, missing "
              + ", ".join(missing), file=sys.stderr)
        raise SystemExit(2)


_require_checkout()
sys.path.insert(0, str(SRC))

from itirel import depgraph, entities, itinerary, lexicon, serialize  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_S, calibrate  # noqa: E402
from spans import Tracer  # noqa: E402


def _instrument(tracer: Tracer) -> None:
    """Spans where each module looks up the functions it calls."""
    def tokens(c, args, graphs):
        c["depgraph.tokens"] += sum(len(g.tokens) for g in graphs)

    def relations(c, args, found):
        c["nary.relations"] += len(found)

    def itineraries(c, args, found):
        c["itinerary.itineraries"] += found is not None

    def motion(c, args, polarity):
        c["itinerary.motion_relations"] += polarity is not None

    def recognized(kind):
        def count(c, args, found):
            c[f"entities.{kind}_calls"] += 1
            c[f"entities.{kind}_found"] += len(found)
            c["entities.tokens_scanned"] += len(args[1])
        return count

    def size(key):
        def count(c, args, text):
            c[key] += len(text.encode("utf-8"))
        return count

    tracer.span(depgraph, "parse_conllu", "depgraph.parse", tokens)
    tracer.span(serialize, "build_document", "serialize.build")
    tracer.span(serialize, "extract_nary", "nary.extract", relations)
    tracer.span(serialize, "detect_displacement", "itinerary.detect",
                itineraries)
    tracer.span(itinerary, "motion_polarity", "itinerary.motion_polarity",
                motion)
    tracer.span(itinerary, "recognize_spatial", "entities.spatial",
                recognized("spatial"))
    tracer.span(itinerary, "recognize_temporal", "entities.temporal",
                recognized("temporal"))
    tracer.count_calls(entities, "normalize", "entities.normalize_calls")
    tracer.span(serialize, "to_json", "serialize.json",
                size("serialize.json_bytes"))
    tracer.span(serialize, "to_turtle", "serialize.turtle",
                size("serialize.turtle_bytes"))
    tracer.span(serialize, "from_json", "serialize.from_json")


class Run:
    def __init__(self, w: workloads.Workload, workdir: Path, traced: bool):
        self.w = w
        self.workdir = workdir
        self.traced = traced
        self.corpus = workdir / "corpus.conllu"
        self.corpus.write_text(w.conllu, encoding="utf-8")
        if w.lexicon_files is None:
            self.lexdir = lexicon.bundled_lexicon_dir()
            self.lexicon_args: list[str] = []
        else:
            self.lexdir = workdir / "lexicons"
            self.lexdir.mkdir()
            for name, data in w.lexicon_files.items():
                (self.lexdir / name).write_bytes(data)
            self.lexicon_args = ["--lexicons", str(self.lexdir)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.verdicts: dict = {}
        self.failed_ids: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list] = defaultdict(list)
        self.tracer = Tracer()
        self.rounds = 0

        # the reference: one full pass, checked against the expected facts
        self.lex = lexicon.load_lexicons(self.lexdir)
        self.fp = serialize.lexicon_fingerprint(self.lexdir)
        graphs = depgraph.parse_conllu(w.conllu)
        self.ids = [g.sent_id for g in graphs]
        ref = serialize.build_document(graphs, self.lex, fingerprint=self.fp)
        self.reference_json = serialize.to_json(ref)
        self.reference_turtle = serialize.to_turtle(ref, BASE_IRI)
        self.reference_failed = set(self._verdict(self.reference_json,
                                                  self.reference_turtle))
        probe = self.ids.index(w.probe)
        self.probe = graphs[probe]
        self.reference_probe = ref.sentences[probe]
        # what each sentence, passed on its own, must give
        self.blocks = [b + "\n" for b in w.conllu.strip("\n").split("\n\n")]
        self.sentence_json = [
            serialize.to_json(serialize.ExtractionDocument(
                ref.tool_version, self.fp, (s,))) for s in ref.sentences]
        # scaled extraction times of each sentence, one per pass
        self.extract_s: list[list[float]] = [[] for _ in self.ids]
        self.best_corpus_s = {"pass": math.inf, "traced": math.inf}

        # warm-up: the reference pass above has run the pipeline; the first
        # CLI run in a checkout also compiles the package's bytecode
        self.cal = calibrate()
        self.setup(record=False)
        if traced:
            self.cli_startup(record=False)
        else:
            self.cli(record=False)

    def _scale(self) -> float:
        """Calibrate again; the factor that scales the work timed since the
        last calibration to the reference host speed."""
        before, self.cal = self.cal, calibrate()
        self.samples["control_loop_ms"].append(self.cal * 1e3)
        return 2 * REFERENCE_S / (before + self.cal)

    # --- checking ----------------------------------------------------------

    def _verdict(self, text: str, turtle: str) -> list[str]:
        """Failing sent_ids of a JSON output and its Turtle."""
        key = (text, turtle)
        if key not in self.verdicts:
            self.verdicts[key] = check.check_document(
                text, turtle, self.w.expected,
                lambda t: serialize.to_json(serialize.from_json(t)))
        return self.verdicts[key]

    def _count(self, failing, attempted: int) -> None:
        self.attempted += attempted
        self.failed += len(failing)
        self.failed_ids.update(failing)

    def _count_sentences(self, bad: set[int]) -> None:
        """Every sentence is attempted; those in ``bad`` or failing in the
        checked reference fail."""
        self._count([sid for i, sid in enumerate(self.ids)
                     if i in bad or sid in self.reference_failed],
                    len(self.ids))

    # --- operations --------------------------------------------------------

    def setup(self, record: bool = True) -> None:
        times = [self.setup_rep(record) for _ in range(self.w.setup_reps)]
        scale = self._scale()
        if record:
            self.samples["setup_s"] += [t * scale for t in times]
            self.samples["setup_raw_s"] += times

    def setup_rep(self, record: bool) -> float:
        gc.collect()
        t0 = perf_counter()
        lex = lexicon.load_lexicons(self.lexdir)
        t1 = perf_counter()
        fp = serialize.lexicon_fingerprint(self.lexdir)
        t2 = perf_counter()
        first = serialize.build_document([self.probe], lex, fingerprint=fp)
        t3 = perf_counter()
        if self.traced:
            warm = serialize.build_document([self.probe], lex, fingerprint=fp)
            t4 = perf_counter()
        if not record:
            return t3 - t0
        self.samples["lexicon.load_s"].append(t1 - t0)
        self.samples["serialize.fingerprint_s"].append(t2 - t1)
        ok = (fp == self.fp and first.sentences == (self.reference_probe,)
              and self.probe.sent_id not in self.reference_failed)
        if self.traced:
            self.samples["lexicon.first_use_s"].append((t3 - t2) - (t4 - t3))
            ok = ok and warm == first
        self._count([] if ok else [self.probe.sent_id], 1)
        return t3 - t0

    def sentence_pass(self) -> None:
        """The in-process CLI path, one sentence at a time: every sentence
        is timed through the whole path and through extraction alone."""
        bad = set()
        path_s = 0.0
        extract_s = []
        gc.collect()
        gc.disable()
        try:
            for i, block in enumerate(self.blocks):
                t0 = perf_counter()
                graphs = depgraph.parse_conllu(block)
                t1 = perf_counter()
                doc = serialize.build_document(graphs, self.lex,
                                               fingerprint=self.fp)
                t2 = perf_counter()
                out = serialize.to_json(doc)
                t3 = perf_counter()
                if out != self.sentence_json[i]:
                    bad.add(i)
                path_s += t3 - t0
                extract_s.append(t2 - t1)
        finally:
            gc.enable()
        scale = self._scale()
        self.samples["pass_s"].append(path_s * scale)
        self.samples["pass_raw_s"].append(path_s)
        for times, t in zip(self.extract_s, extract_s):
            times.append(t * scale)
        self._count_sentences(bad)

    def corpus_pass(self, key: str = "pass") -> None:
        """The whole corpus through the in-process CLI path at once; traced
        passes go on through ``to_turtle`` and ``from_json``."""
        gc.collect()
        t0 = perf_counter()
        doc = serialize.build_document(depgraph.parse_conllu(self.w.conllu),
                                       self.lex, fingerprint=self.fp)
        out = serialize.to_json(doc)
        elapsed = perf_counter() - t0
        ok = out == self.reference_json
        if key == "traced":
            ok = (ok and serialize.to_turtle(doc, BASE_IRI)
                  == self.reference_turtle and serialize.from_json(out) == doc)
        self.best_corpus_s[key] = min(self.best_corpus_s[key], elapsed)
        self._count_sentences(set() if ok else set(range(len(self.ids))))

    def traced_pass(self) -> None:
        tracer = self.tracer
        start = len(tracer.spans)
        tracer.op = self.rounds
        tracer.counts.clear()
        _instrument(tracer)
        try:
            self.corpus_pass("traced")
        finally:
            tracer.restore()
        total, own = tracer.summary(self.rounds, start)
        c = tracer.counts
        per_pass = {
            "depgraph.parse_s": total.get("depgraph.parse", 0.0),
            "nary.extract_s": total.get("nary.extract", 0.0),
            "entities.spatial_s": total.get("entities.spatial", 0.0),
            "entities.temporal_s": total.get("entities.temporal", 0.0),
            "itinerary.detect_s": total.get("itinerary.detect", 0.0),
            "itinerary.self_s": own.get("itinerary.detect", 0.0),
            "serialize.build_self_s": own.get("serialize.build", 0.0),
            "serialize.json_s": total.get("serialize.json", 0.0),
            "serialize.turtle_s": total.get("serialize.turtle", 0.0),
            "serialize.from_json_s": total.get("serialize.from_json", 0.0),
            "itinerary.yield": (c["itinerary.itineraries"]
                                / c["itinerary.motion_relations"]
                                if c["itinerary.motion_relations"] else 0.0),
        }
        per_pass.update(c)
        for key, value in per_pass.items():
            self.samples[key].append(value)

    def _child(self, code: str) -> tuple[int, float, float]:
        """Run the CLI in a child process: exit code, wall s, peak RSS MB."""
        out_dir = self.workdir / "cli"
        shutil.rmtree(out_dir, ignore_errors=True)
        cli_args = ["-c", code, "extract", str(self.corpus),
                    "--format", "both", "--base-iri", BASE_IRI,
                    "--out-dir", str(out_dir), *self.lexicon_args]
        with open(self.workdir / "cli.stderr", "wb") as err:
            launched = subprocess.run(
                [sys.executable, "-I", "-S", "-c", LAUNCHER, *cli_args],
                env=self.env, cwd=self.workdir, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err, text=True, check=True)
        code, wall, rss_kib = launched.stdout.split()
        return int(code), float(wall), int(rss_kib) / 1024

    def cli(self, record: bool = True) -> None:
        code, wall, rss = self._child(CLI_MAIN)
        # The CLI's time does not follow the calibrations next to it (each
        # child process runs at its own speed), so it is scaled by the run's
        # mean calibration instead, in end_to_end().
        self._scale()
        if not record:
            return
        self.samples["cli_wall_raw_s"].append(wall)
        self.samples["peak_rss_mb"].append(rss)
        out_dir = self.workdir / "cli"
        ok = code == 0 and not self._verdict(
            (out_dir / "extraction.json").read_text(encoding="utf-8"),
            (out_dir / "extraction.ttl").read_text(encoding="utf-8"))
        self._count([] if ok else ["cli"], 1)

    def cli_startup(self, record: bool = True) -> None:
        code, wall, _ = self._child(CLI_STARTUP)
        if record:
            self.samples["cli.startup_s"].append(wall)
            self._count([] if code == 0 else ["cli-startup"], 1)

    def one_round(self) -> None:
        self.setup()
        if self.traced:
            # alternate the order so neither pass always runs warmer
            passes = [self.corpus_pass, self.traced_pass]
            for run_pass in passes[::-1] if self.rounds % 2 else passes:
                run_pass()
            self.cli_startup()
        else:
            for _ in range(self.w.passes):
                self.sentence_pass()
            for _ in range(CLI_RUNS):
                self.cli()
        self.rounds += 1

    # --- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        extract_ms = [trimmed_mean(t) * 1e3 for t in self.extract_s]
        return {
            "setup_s": statistics.median(s["setup_s"]),
            "sentences_per_s": len(self.ids) / statistics.median(s["pass_s"]),
            "sentence_p50_ms": statistics.median(extract_ms),
            "sentence_p90_ms": statistics.quantiles(extract_ms, n=10)[8],
            "cli_wall_s": trimmed_mean(s["cli_wall_raw_s"]) * REFERENCE_S
            / (trimmed_mean(s["control_loop_ms"]) / 1e3),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"]),
        }

    def per_layer(self, names) -> dict[str, float]:
        out = {}
        for name in names:
            if name == "trace.overhead_pct":
                out[name] = 100 * (self.best_corpus_s["traced"]
                                   / self.best_corpus_s["pass"] - 1)
            elif name in SETUP_METRICS:
                out[name] = statistics.median(self.samples[name])
            else:
                out[name] = min(self.samples[name])
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    w = workloads.make(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        run = Run(w, workdir, traced=bool(args.trace))
        # whole rounds; stop before a round that would end past the deadline
        start = perf_counter()
        deadline = start + args.seconds
        while True:
            run.one_round()
            now = perf_counter()
            if now + (now - start) / run.rounds > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = (run.per_layer([m["name"] for m in wanted]) if args.trace
              else run.end_to_end())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "make_up": w.make_up, "sentences": len(run.ids),
              "rounds": run.rounds,
              "attempted": run.attempted, "failed": run.failed,
              "failed_ids": dict(run.failed_ids.most_common(20)),
              "metrics": metrics, "samples": run.samples,
              "corpus_best_s": run.best_corpus_s,
              "extract_s": run.extract_s}
    (results / f"{stem}.json").write_text(json.dumps(record), encoding="utf-8")
    if args.trace:
        run.tracer.write(results / f"{stem}.spans.jsonl.gz")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={run.rounds} sentences={len(run.ids)} "
          "control_loop_ms="
          f"{statistics.median(run.samples['control_loop_ms']):.2f} "
          f"results={(results / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
