"""mea-dag batch benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {graphs,classify,lexicon} --seed N --seconds S --trace {0,1}

Run from the repository root. It generates the workload's inputs from the
seed, then runs batches, each in a fresh process (``batch.py``), until S
seconds have passed. Every batch's outputs are compared with what the
generator planted. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (medians over batches;
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
The line before it carries informational fields, such as the ``src/`` line
count. See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
WORK = ROOT / ".perfbench_work"

NPROC = len(os.sched_getaffinity(0))

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# setup_probes: cold set-up processes per untraced run, whose median is setup_s.
WORKLOADS = {
    "graphs": {
        "kind": "reviews", "copies": 200, "renamed_share": 1.0, "classifier": "replay", "workers": 1,
        "setup_probes": 12,
    },
    "classify": {
        "kind": "reviews", "copies": 100, "renamed_share": 0.5, "classifier": "live", "workers": NPROC,
        "setup_probes": 12,
    },
    "lexicon": {"kind": "lexicon", "setup_probes": 30},
}
FILLER_LEXICON_WORDS = 13_000  # about the size of the lexicon the lexicon workload compiles

BATCH_TIMEOUT_S = 150
RUN_BUDGET_S = 165  # a run must end within 180 s
MIN_BATCHES = 3

def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


# --- checks -------------------------------------------------------------------


def check_reviews(spec: dict, corpus, out: Path, result: dict, cache: Path | None) -> int:
    """Number of failed reviews in one batch; a wrong index, stats or cache fails all."""
    from mea.llm import cache_key

    failed = 0
    for review_id, expected in corpus.graphs.items():
        path = out / f"{review_id}.json"
        try:
            if json.loads(path.read_text(encoding="utf-8")) != expected:
                failed += 1
        except (OSError, ValueError):
            failed += 1

    expected_stats = dict(corpus.stats)
    calls = expected_stats["classifier_calls"]
    transport_calls = result.get("transport_calls", 0)
    expected_stats["classifier_cache_hits"] = calls - transport_calls
    names = {f"{i}.json" for i in corpus.graphs} | {"index.json", "stats.json"}
    try:
        batch_ok = (
            {p.name for p in out.iterdir()} == names
            and json.loads((out / "index.json").read_text(encoding="utf-8")) == corpus.index
            and json.loads((out / "stats.json").read_text(encoding="utf-8")) == expected_stats
            and result["failures"] == 0
        )
        if spec["classifier"] == "live":
            # Every distinct text reaches the endpoint at least once and is cached
            # with its recorded label; two threads missing one key both append.
            lines = cache.read_text(encoding="utf-8").splitlines()
            entries = [json.loads(l) for l in lines]
            batch_ok = batch_ok and (
                result["transport_unique"] == corpus.unique_texts
                and len(entries) == transport_calls
                and {e["input"] for e in entries} == set(corpus.labels)
                and all(
                    e["parsed_label"] == corpus.labels[e["input"]]
                    and e["key"] == cache_key("classify_action", e["input"], e["model"])
                    for e in entries
                )
            )
        else:
            batch_ok = batch_ok and transport_calls == 0
    except (OSError, ValueError, KeyError, TypeError):
        batch_ok = False  # an output that is missing, empty or malformed
    return failed if batch_ok else len(corpus.graphs)


def check_lexicon(expected, out: Path) -> int:
    try:
        ok = (out / "lexicon.tsv").read_text(encoding="utf-8") == expected.expected_tsv
    except OSError:
        ok = False
    return 0 if ok else expected.items


# --- metrics ------------------------------------------------------------------


def end_to_end(result: dict, items: int, out_bytes: int) -> dict:
    return {
        "items_per_s": items / result["wall_s"],
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "out_bytes_per_item": out_bytes / items,
    }


def per_layer(result: dict, items: int) -> dict:
    spans, counts = result["spans"], result["counts"]
    client_calls, client_hits = result["client_stats"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_time(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    us = 1e6 / items
    transport_calls = result.get("transport_calls", 0)
    classify_self = total("llm.classify_action_event") - total("llm.transport")
    return {
        "runner.ingest_reviews_us": total("runner.ingest_reviews") * us,
        "runner.load_parse_dir_us": total("runner.load_parse_dir") * us,
        "runner.run_pipeline_self_us": self_time("runner.run_pipeline") * us,
        "extraction.parse_conllu_us": total("extraction.parse_conllu") * us,
        "extraction.extract_events_us": total("extraction.extract_events") * us,
        "extraction.detect_perception_us": total("extraction.detect_perception") * us,
        "extraction.events_per_item": spans.get("extraction.extract_events", {}).get("n", 0) / items,
        "dag.build_mea_dag_self_us": self_time("dag.build_mea_dag") * us,
        "dag.forward_transmit_us": total("dag.forward_transmit") * us,
        "dag.link_actions_self_us": self_time("dag.link_actions") * us,
        "dag.dumps_dag_us": total("dag.dumps_dag") * us,
        "nature.transmitting_tails_calls_per_item": counts.get("nature.transmitting_tails", 0) / items,
        "nature.graph_setup_ms": total("nature.graph_setup") * 1e3,
        "belief.load_lexicon_ms": total("belief.load_lexicon") * 1e3,
        "belief.lookup_calls_per_item": counts.get("belief.lookup", 0) / items,
        "belief.compile_food_lexicon_s": total("belief.compile_food_lexicon"),
        "belief.parse_sense_file_s": total("belief.parse_sense_file"),
        "belief.compile_feeling_lexicon_s": total("belief.compile_feeling_lexicon"),
        "belief.parse_emotion_file_s": total("belief.parse_emotion_file"),
        "belief.compile_emotion_lexicon_s": total("belief.compile_emotion_lexicon"),
        "belief.lexicon_build_s": total("belief.lexicon_build"),
        "belief.dump_lexicon_s": total("belief.dump_lexicon"),
        "llm.client_init_ms": total("llm.client_init") * 1e3,
        "llm.classify_calls_per_item": calls("llm.classify_action_event") / items,
        "llm.classify_self_us": classify_self * us,
        "llm.client_calls": client_calls,
        "llm.client_cache_hits": client_hits,
        "llm.cache_hit_ratio": client_hits / client_calls if client_calls else 0.0,
        "llm.transport_calls": transport_calls,
        "llm.transport_wait_s": total("llm.transport"),
        "llm.unique_inputs_per_transport_call": (
            result["transport_unique"] / transport_calls if transport_calls else 0.0
        ),
        "llm.filter_candidates_s": total("llm.filter_candidates"),
    }


# --- batches ------------------------------------------------------------------


def output_names(spec: dict, planted) -> list[str]:
    if spec["kind"] == "reviews":
        return [f"{review_id}.json" for review_id in planted.graphs] + ["index.json", "stats.json"]
    return ["lexicon.tsv"]


def empty_outputs(out: Path, outputs: list[Path]) -> None:
    """Truncate every expected output and delete anything else under ``out``.

    Batches write into files that already exist and are empty. On the ext4
    disk the benchmark was tuned on, creating 8,000 small files cost either
    about 0.3 s or about 2.5 s of system time, in stretches lasting tens of
    seconds, while writing the same files when they already existed took
    0.37-0.49 s every time. So new-file creation is kept out of the timed
    region, and a file that a batch fails to write stays empty and fails its
    check.
    """
    keep = set(outputs)
    for path in out.iterdir():
        if path not in keep:
            path.unlink()
    for path in outputs:
        os.truncate(path, 0)


def run_batch(spec: dict, inputs: Path, out: Path, cache: Path | None, flag: str | None, timeout: float) -> dict:
    """One fresh batch process; ``flag`` is ``--trace``, ``--setup-only`` or None."""
    cmd = [sys.executable, str(HERE / "batch.py"), spec["kind"], str(inputs), str(out)]
    if flag:
        cmd.append(flag)
    if spec["kind"] == "reviews":
        cmd += ["--classifier", spec["classifier"], "--workers", str(spec["workers"])]
        if cache is not None:
            cmd += ["--cache", str(cache)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"batch exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (SRC / "mea").is_dir() or not (DATA / "corpus").is_dir():
        print(f"error: run from a checkout of the repository; {SRC / 'mea'} or {DATA} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import batch
    import gen

    spec = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = run_dir / "inputs"
        if spec["kind"] == "reviews":
            planted = gen.write_corpus(
                DATA, inputs, args.seed, spec["copies"], spec["renamed_share"], FILLER_LEXICON_WORDS
            )
            items = len(planted.graphs)
        else:
            planted = gen.write_lexicon_inputs(inputs, args.seed)
            items = planted.items
        out = run_dir / "out"
        cache = run_dir / "cache.jsonl" if spec.get("classifier") == "live" else None
        outputs = [out / name for name in output_names(spec, planted)] + ([cache] if cache else [])
        out.mkdir()
        for path in outputs:
            path.touch()

        untraced: list[dict] = []
        traced: list[dict] = []
        attempted = failed = 0
        batch_s: list[float] = []  # each batch with the set-up probes after it
        setup_s: list[float] = []
        probes = 0 if args.trace else spec["setup_probes"]
        sys_s: list[float] = []  # system CPU share of cpu_s, per untraced batch
        span_threads: dict[str, int] = {}

        def probe_setup() -> None:
            timeout = min(BATCH_TIMEOUT_S, RUN_BUDGET_S - (time.monotonic() - started))
            setup_s.append(run_batch(spec, inputs, out, cache, "--setup-only", timeout)["setup_s"])

        loop_start = time.monotonic()
        deadline = loop_start + args.seconds
        while True:
            now = time.monotonic()
            needed = 2 if args.trace else MIN_BATCHES
            enough = len(untraced) >= needed and (not args.trace or len(traced) >= needed)
            # Stop before a batch that would end past the deadline, once there
            # are enough batches, or when the run's time budget is spent.
            if batch_s and (
                (enough and now + statistics.median(batch_s) > deadline)
                or now - started + 2 * max(batch_s) > RUN_BUDGET_S
            ):
                break
            tracing = bool(args.trace) and len(traced) < len(untraced)
            flag = "--trace" if tracing else None
            result = run_batch(spec, inputs, out, cache, flag, min(BATCH_TIMEOUT_S, RUN_BUDGET_S - (now - started)))
            if spec["kind"] == "reviews":
                failed += check_reviews(spec, planted, out, result, cache)
            else:
                failed += check_lexicon(planted, out)
            attempted += items
            if tracing:
                traced.append(per_layer(result, items) | {"wall_s": result["wall_s"]})
                span_threads = {name: span["threads"] for name, span in sorted(result["spans"].items())}
            else:
                out_bytes = sum(p.stat().st_size for p in out.iterdir())
                untraced.append(end_to_end(result, items, out_bytes))
                sys_s.append(result["sys_s"])
            empty_outputs(out, outputs)
            # Spread the set-up probes over the run, so they see the same
            # machine speed as the batches; they write nothing.
            while len(setup_s) < probes * min(1.0, (time.monotonic() - loop_start) / args.seconds):
                probe_setup()
            batch_s.append(time.monotonic() - now)
        while len(setup_s) < probes:
            probe_setup()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    def median(rows: list[dict], key: str) -> float:
        return statistics.median(r[key] for r in rows)

    if args.trace:
        values = {n: median(traced, n) for n in traced[0]}
        values["trace.overhead_pct"] = (values["wall_s"] / median(untraced, "wall_s") - 1) * 100
    else:
        values = {n: median(untraced, n) for n in untraced[0]} | {"setup_s": statistics.median(setup_s)}
    # BENCHMARK.json names the metrics each mode reports, and their units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "src_lines": src_line_count(),
        "items_per_batch": items,
        "untraced_batches": len(untraced),
        "traced_batches": len(traced),
        "nproc": NPROC,
        "wall_s_batches": [round(r["wall_s"], 4) for r in untraced],
        "setup_s_probes": [round(t, 4) for t in setup_s],
        "sys_s_batches": [round(s, 4) for s in sys_s],
    }
    if args.trace:
        info["span_threads"] = span_threads
    if spec["kind"] == "reviews":
        info |= {
            "workers": spec["workers"],
            "classifier": spec["classifier"],
            "classifier_calls": planted.classified_texts,
            "unique_action_texts": planted.unique_texts,
            "unique_action_text_share": planted.unique_texts / planted.classified_texts,
        }
        if spec["classifier"] == "live":
            info["stub_latency_ms"] = batch.STUB_LATENCY_MS
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
