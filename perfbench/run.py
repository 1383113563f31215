#!/usr/bin/env python3
"""Benchmark runner for the scenario engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the `perfbench` program (a package of its own in this directory,
built against the repository's crates by path), runs the workload in child
processes and prints, as the last stdout line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

* `--trace 0` reports the end-to-end metrics of BENCHMARK.json: the wall of
  the workload's `run_scenario` call divided by the wall of the benchmark's
  reference loop timed around it (median over the calls made), the
  set-up time (median over build + warm-up probes in processes of their
  own) and the peak RSS of the measuring processes (median). Probes and
  measuring processes alternate in four chunks that together take about
  `--seconds`.
* `--trace 1` reports the per-layer metrics: an untraced call and a
  layer-by-layer traced re-run of the same cells (medians over the pairs
  made in `--seconds`), plus the event layer's primitive replays in their
  own process.

Every record is checked against the workload's shape invariants; with the
default seed the record lines must also match `digests.json`. A failed check
counts its cell once in `failed` and makes the exit code 1. The line before
the result records provenance (commit, source digest, nproc, pool threads,
rustc, seed).

The scheduler pool has `RAYON_NUM_THREADS` threads when that is set, else
one: a single measuring thread leaves a core of a small machine to
everything else, so other load does not stretch the calls.
`--write-digests` records `digests.json` for the default seed instead of
measuring.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
DIGESTS = os.path.join(HERE, "digests.json")
BUILD_TIMEOUT_S = 880.0
# The measured run is split into this many chunks, each a set-up probe
# process followed by a measuring process.
CHUNKS = 4
# Seconds of set-up probes per run (at least one repetition per chunk),
# taken out of `--seconds`.
SETUP_SECONDS = 2.4


def fail(message):
    """Exits without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if proc.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def pool_threads():
    """The scheduler pool width: `RAYON_NUM_THREADS` if set, else 1."""
    value = os.environ.get("RAYON_NUM_THREADS", "")
    if value.isdigit() and int(value) > 0:
        return int(value)
    return 1


class Runner:
    def __init__(self, binary, pool, out_dir, deadline):
        self.binary = binary
        self.env = dict(os.environ, RAYON_NUM_THREADS=str(pool))
        self.out_dir = out_dir
        self.deadline = deadline
        self.started = time.monotonic()

    def __call__(self, *args):
        left = self.deadline - (time.monotonic() - self.started)
        if left <= 0:
            fail("out of time before the next step")
        cmd = [self.binary, *map(str, args), "--out", self.out_dir]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=left,
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            fail(f"{args[0]} exceeded the time limit")
        if proc.returncode != 0:
            fail(f"{args[0]} exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            fail(f"{args[0]} printed no result")
        return json.loads(lines[-1])


def line_digests(path):
    with open(path, "rb") as f:
        return [hashlib.sha256(line.rstrip(b"\n")).hexdigest()
                for line in f if line.strip()]


def source_digest():
    """Digest of the code the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def provenance(args, pool):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "pool_threads": pool,
        "rustc": command_output(["rustc", "--version"]),
    }


def cell_digests(e2e):
    """The digest of each recorded cell's line, keyed by cell index."""
    lines = line_digests(e2e["output"])
    cells = [int(c) for c in e2e["record_cells"]]
    if len(lines) != len(cells):
        fail("output file and records disagree")
    return dict(zip(cells, lines))


def check_digests(workload, got, total):
    """Cells whose lines differ from the committed digests (default seed only)."""
    with open(DIGESTS) as f:
        expected = json.load(f)[workload]
    if len(expected) != total:
        return set(range(total)), [f"digests.json holds {len(expected)} lines for {total} cells"]
    bad = {cell for cell, digest in got.items() if digest != expected[cell]}
    errors = [f"{len(bad)} record line(s) differ from digests.json"] if bad else []
    return bad, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    binary = build()
    out_dir = os.path.join(target_dir(), "perfbench-runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    pool = pool_threads()
    # Whole-run limit; every child gets what is left of it. A trace-0 run
    # spends about `--seconds`; a trace-1 run about `--seconds` plus the
    # replays.
    run = Runner(binary, pool, out_dir, deadline=2 * args.seconds + 120)
    common = ["--workload", args.workload]
    try:
        if args.write_digests:
            e2e = run("e2e", *common, "--seed", DEFAULT_SEED, "--seconds", 0)
            if any(e2e["cell_failures"]):
                fail("records fail their checks; digests not written: " + "; ".join(e2e["errors"]))
            digests = {}
            if os.path.exists(DIGESTS):
                with open(DIGESTS) as f:
                    digests = json.load(f)
            digests[args.workload] = line_digests(e2e["output"])
            with open(DIGESTS, "w") as f:
                json.dump(digests, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"wrote {len(digests[args.workload])} digests for {args.workload}")
            return
        print(json.dumps({"provenance": provenance(args, pool)}))
        seed = ["--seed", args.seed]
        if args.trace == 0:
            # Set-up probes and measured calls alternate in chunks, so both
            # medians cover the whole run and the same machine conditions.
            setups, rels, rss = [], [], []
            attempted, failed, errors = 0, 0, []
            reference = None
            for _ in range(CHUNKS):
                setup = run("setup", *common, *seed, "--seconds", SETUP_SECONDS / CHUNKS)
                setups += setup["setup_s"]
                e2e = run("e2e", *common, *seed, "--seconds",
                          max(args.seconds - SETUP_SECONDS, 0) / CHUNKS)
                rels += [w / r for w, r in zip(e2e["walls"], e2e["refs"])]
                rss.append(e2e["peak_rss_mb"])
                attempted += e2e["attempted"]
                errors += e2e["errors"]
                # A cell fails once per repetition, however many checks it
                # fails. The line checks see the output file, which every
                # repetition must reproduce, so they fail it in all of them.
                total, reps = len(e2e["cell_failures"]), len(e2e["walls"])
                lines = cell_digests(e2e)
                line_failed = set()
                if reference is None:
                    reference = lines
                else:
                    differ = {c for c in range(total) if lines.get(c) != reference.get(c)}
                    if differ:
                        line_failed |= differ
                        errors.append(f"{len(differ)} record(s) differ between processes "
                                      "of the same seed")
                if args.seed == DEFAULT_SEED:
                    bad, msgs = check_digests(args.workload, lines, total)
                    line_failed |= bad
                    errors += msgs
                failed += sum(reps if c in line_failed else int(n)
                              for c, n in enumerate(e2e["cell_failures"]))
            values = {
                "wall_rel": statistics.median(rels),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(rss),
            }
            metric_spec = spec["end_to_end"]
        else:
            traced = run("traced", *common, *seed, "--seconds", args.seconds)
            replay = run("replay", *common, *seed, "--events", int(traced["events"]),
                         "--messages", int(traced["messages"]))
            attempted, failed, errors = traced["attempted"], traced["failed"], traced["errors"]
            values = dict(traced["metrics"])
            values.update({k: v for k, v in replay.items() if k != "workload"})
            metric_spec = spec["per_layer"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    metrics = {}
    for m in metric_spec:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted, failed = int(attempted), int(failed)
    print(f"failed_frac {failed / max(attempted, 1)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
