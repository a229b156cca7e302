"""lieforge benchmark: seeded closed-loop workloads with correctness oracles.

    python3 bench/run.py --workload discover --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports lieforge from its
`src/`.  One client, one thread, closed loop: the next job starts when the
previous one has returned.  With `--trace 0` it reports the end-to-end
metrics, with times rescaled to a reference machine speed measured next to
every job (see calibrate); with `--trace 1` it builds one deck, the first
deck of the untraced run of the same seed, and runs it twice,
untraced and then with every layer wrapped, and reports the per-layer
metrics.  Either way the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a readable report with the
wall-clock figures goes to stderr, and the full result (every job, the
environment) to `.bench_out/<workload>-seed<seed>-trace<0|1>.json` in the
checkout.  bench/README.md defines every metric and workload.

Held-out seed: seeds 1-10 are the development seeds.  Seed 20261017 is
held out: use it only to confirm a claim made on the development seeds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7
# A run is a fixed number of decks (see decks_to_run), so every run of a
# workload times the same number of jobs.  On a machine or a commit much slower than
# the reference it stops early: between decks once twice --seconds of wall
# time have passed, and between jobs after HARD_LIMIT_S.
HARD_LIMIT_S = 150.0
# ROADMAP profile shares the traced run is compared against.
EXPECTED_SHARES = {"share.m4_default.prolong_generator": 0.48,
                   "share.m4_default.reducer": 0.30,
                   "share.m4_default.rref": 0.03,
                   "share.verify_numeric.eval_numeric": 0.95}

# Reference speed: calibrate() takes this long on the reference machine
# (shared 2-vCPU Intel Xeon VM, Python 3.11), so reported times are close to
# wall times there.
CAL_REF_S = 0.00066
# A job's speed is the median calibration of the 2 * CAL_WINDOW + 1 jobs
# around it.
CAL_WINDOW = 3

END_TO_END = [("setup_s", "s"), ("job_s.p50", "s"), ("job_s.tail", "s"),
              ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB")]


def import_lieforge() -> None:
    """Import lieforge from this checkout's src/, never from elsewhere."""
    if not (SRC / "lieforge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no lieforge sources under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lieforge
    if Path(lieforge.__file__).resolve().parent != SRC / "lieforge":
        raise SystemExit(f"bench: imported lieforge from {lieforge.__file__}, "
                         f"not from {SRC}")


@dataclass
class Result:
    label: str
    seconds: float
    text: str
    payload: object
    error: str | None
    outcome: str = ""  # ok, failed or known-defect
    digest: str = ""
    deck: int = 0
    counts: dict | None = None
    cal: float = 0.0   # calibration time taken just before the job
    norm: float = 0.0  # seconds at the reference speed


def calibrate(reps: int = 3) -> float:
    """Median time of a fixed slice of pure-Python work of the kind the
    kernel does (Fraction arithmetic, dict and tuple traffic).  It is the
    benchmark's own code and never changes with lieforge, so it measures
    how fast the shared machine runs at that moment."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 200):
            acc += Fraction(i % 7 - 3, i % 11 + 1)
            key = (i % 37, "k")
            table[key] = table.get(key, 0) + i
        times.append(perf_counter() - t0)
    return statistics.median(times)


def normalise(results: list[Result]) -> None:
    """Rescale each job's wall time to the reference speed, using the
    calibrations taken around it."""
    cals = [r.cal for r in results]
    for i, r in enumerate(results):
        speed = statistics.median(cals[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        r.norm = r.seconds * CAL_REF_S / speed


def timed_run(job) -> Result:
    t0 = perf_counter()
    try:
        text, payload = job.run()
        error = None
    except Exception:  # a failing job is counted, the loop goes on
        text, payload, error = "", None, traceback.format_exc()
    return Result(job.label, perf_counter() - t0, text, payload, error)


def judge(job, res: Result) -> Result:
    """Apply the job's oracle; a check failure on a job with a known defect
    is recorded as known-defect, not failed."""
    if res.error is None:
        try:
            bad = job.check(res.payload)
        except Exception:
            bad = "oracle raised: " + traceback.format_exc()
        if bad is None:
            res.outcome = "ok"
        else:
            res.error = bad
            res.outcome = "known-defect" if job.known_defect else "failed"
    else:
        res.outcome = "failed"
    if job.counts is not None and res.payload is not None:
        res.counts = job.counts(res.payload)
    res.digest = hashlib.sha256(res.text.encode()).hexdigest()[:16]
    res.payload = None
    return res


def fresh_run(job) -> Result:
    """Empty the collector, take the machine's speed, run and judge."""
    gc.collect()
    cal = calibrate()
    res = judge(job, timed_run(job))
    res.cal = cal
    return res


def decks_to_run(workload: str, seconds: int) -> int:
    """As many decks as take `seconds` at the reference speed."""
    import jobs
    return max(1, round(seconds / jobs.DECK_SECONDS[workload]))


def timed_loop(decks, seconds: float) -> tuple[list[Result], int]:
    """Run every deck once, in order; returns the results and the number
    of whole decks run."""
    results = []
    t_start = perf_counter()
    for d, deck in enumerate(decks):
        for job in deck:
            res = fresh_run(job)
            res.deck = d
            results.append(res)
            if perf_counter() - t_start > HARD_LIMIT_S:
                return results, d
        if perf_counter() - t_start > 2 * seconds:
            return results, d + 1
    return results, len(decks)


def measure_setup(workload: str, seed: int,
                  seconds: int) -> tuple[list[float], list[float]]:
    """Process start to first job ready, in fresh processes: interpreter
    start, lieforge import, input generation and building.  Returns the
    times at the reference speed (calibrated by the probe process itself,
    which may run on another CPU than this one) and the wall times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--setup-only"]
    times, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            # read the second line through the same buffered stream: the
            # first readline may already hold it, and communicate() reads
            # the pipe underneath that buffer
            cal = proc.stdout.readline()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready" or not cal.strip():
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err}")
        wall.append(t1 - t0)
        times.append(wall[-1] * CAL_REF_S / float(cal))
    return times, wall


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    jobs beyond it; the largest time when there are ten jobs or fewer."""
    srt = sorted(times)
    n = len(srt)
    if n <= 10:
        return srt[-1], 100.0
    return srt[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "lieforge").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "platform": platform.platform(),
            "src_lines": src_lines}


def end_to_end(results: list[Result], whole_decks: int, setup: list[float],
               setup_wall: list[float]) -> tuple[dict, dict]:
    """Times are at the reference speed (see normalise); the wall-clock
    figures go to the report.  jobs_per_s is the median over whole decks of
    a deck's jobs divided by its job time: every deck has the same job mix,
    and the median keeps a deck that ran during a slow spell from moving
    the figure."""
    normalise(results)

    def figures(times, setup_times):
        tail_s, tail_pct = tail(times)
        per_deck = [[t for t, r in zip(times, results) if r.deck == d]
                    for d in range(whole_decks)] or [times]
        return {"setup_s": statistics.median(setup_times),
                "job_s.p50": statistics.median(times),
                "job_s.tail": tail_s,
                "jobs_per_s": statistics.median(len(t) / sum(t) for t in per_deck),
                }, tail_pct

    metrics, tail_pct = figures([r.norm for r in results], setup)
    wall, _ = figures([r.seconds for r in results], setup_wall)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {"setup_s": len(setup), "job_s.p50": len(results),
               "job_s.tail": len(results), "jobs_per_s": whole_decks,
               "peak_rss_mb": 1}
    speed = statistics.median(r.cal for r in results) / CAL_REF_S
    return metrics, {"samples": samples, "tail_percentile": tail_pct,
                     "wall_clock": wall, "machine_slowdown": speed}


def per_layer_spec() -> list[tuple[str, str]]:
    """Names and units of the per-layer metrics, in report order."""
    import jobs
    import spans
    spec = []
    for name in spans.layer_names():
        spec += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    spec += [(name, "count") for name in jobs.COUNT_NAMES]
    spec += [("expr_core.atoms_interned", "count")]
    spec += [(name, "ratio") for name in EXPECTED_SHARES]
    spec += [("share.numeric_jobs.eval_numeric", "ratio"),
             ("trace.jobs_per_s_ratio", "ratio"), ("trace.spans", "count"),
             ("oracle.known_defects", "count")]
    return spec


def intern_size() -> int:
    """Atoms in the kernel's intern table, or -1 if it has none."""
    from lieforge import expr_core
    table = getattr(expr_core, "_INTERN", None)
    return -1 if table is None else len(table)


def job_counts(results: list[Result], intern0: int) -> dict:
    """Exact work counts summed over the jobs, and the growth of the intern
    table since `intern0`."""
    import jobs
    total = dict.fromkeys(jobs.COUNT_NAMES, 0)
    for r in results:
        for k, v in (r.counts or {}).items():
            total[k] += v
    total["expr_core.atoms_interned"] = intern_size() - intern0 if intern0 >= 0 else -1
    return total


def output_digest(results: list[Result]) -> str:
    """Hash over the printed outputs of all jobs, in order."""
    return hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest()[:16]


def traced_deck(deck) -> tuple[list[Result], dict, object]:
    """Run one deck untraced, then traced; return the traced results and the
    per-layer metrics."""
    import spans
    untraced = [fresh_run(job) for job in deck]
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    raw = []
    try:
        for i, job in enumerate(deck):
            gc.collect()
            raw.append(tracer.run_job(i, job.label, lambda job=job: timed_run(job)))
    finally:
        spans.uninstall(patches)
    traced = [judge(job, res) for job, res in zip(deck, raw)]
    for a, b in zip(untraced, traced):
        if a.digest != b.digest and b.outcome == "ok":
            b.outcome = "failed"
            b.error = f"output differs between identical runs: {a.digest} {b.digest}"

    m = {}
    for name in spans.layer_names():
        calls, self_s, _ = tracer.stat(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    m4 = [i for i, job in enumerate(deck) if job.label == "find m4 d2 t2 e1"]
    verify = [i for i, job in enumerate(deck) if job.label.startswith("verify ")]
    det = "symmetry.determining_system"
    m["share.m4_default.prolong_generator"] = tracer.job_share(
        m4, "symmetry.prolong_generator", det)
    m["share.m4_default.reducer"] = tracer.job_share(m4, "systems.Reducer.reduce", det)
    m["share.m4_default.rref"] = tracer.job_share(m4, "linalg.rref")
    m["share.verify_numeric.eval_numeric"] = tracer.job_share(
        verify, "expr_core.eval_numeric", "reduce.verify_solution.numeric")
    m["share.numeric_jobs.eval_numeric"] = tracer.job_share(
        range(len(deck)), "expr_core.eval_numeric")
    m["trace.jobs_per_s_ratio"] = (sum(r.seconds for r in untraced)
                                   / sum(r.seconds for r in traced))
    m["trace.spans"] = len(tracer.spans)
    m["oracle.known_defects"] = sum(r.outcome == "known-defect" for r in traced)
    return traced, m, tracer


def report(workload, seed, trace_on, metrics, units, extra, results, env) -> dict:
    failed = sum(r.outcome == "failed" for r in results)
    known = [r for r in results if r.outcome == "known-defect"]
    err = sys.stderr
    err.write(f"lieforge bench: workload={workload} seed={seed} trace={trace_on} "
              f"jobs={len(results)} failed={failed} known-defects={len(known)}\n")
    err.write(f"  env: {json.dumps(env)}\n")
    for name, value in metrics.items():
        note = ""
        if name == "job_s.tail":
            note = f" (p{extra['tail_percentile']:.1f})"
        if name in extra.get("samples", {}):
            note += f" n={extra['samples'][name]}"
        if name in EXPECTED_SHARES and value:
            note += f" (ROADMAP profile: ~{EXPECTED_SHARES[name]:.2f})"
        err.write(f"  {name:44s} {value:.6g} {units[name]}{note}\n")
    if results:
        err.write(f"  failed_ratio {failed / len(results):.6g} "
                  f"({failed}/{len(results)})\n")
    err.write(f"  output digest {extra['output_digest']}\n")
    if "wall_clock" in extra:
        err.write(f"  wall clock (machine {extra['machine_slowdown']:.3f}x the "
                  f"reference time): " + ", ".join(
                      f"{k} {v:.6g}" for k, v in extra["wall_clock"].items()) + "\n")
    for r in known:
        err.write(f"  known defect: {r.label}: {r.error}\n")
    for r in results:
        if r.outcome == "failed":
            err.write(f"  FAILED {r.label}: {r.error.strip().splitlines()[-1]}\n")
    return {"workload": workload, "seed": seed, "trace": trace_on, "env": env,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            **extra,
            "failed_ratio": failed / len(results) if results else 0.0,
            "jobs": [{"label": r.label, "deck": r.deck, "seconds": r.seconds,
                      "norm": r.norm, "digest": r.digest, "counts": r.counts,
                      "outcome": r.outcome, "error": r.error} for r in results]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("discover", "numeric", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if args.setup_only:
        import_lieforge()
        import jobs
        jobs.build(args.workload, args.seed,
                   decks_to_run(args.workload, args.seconds))
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        # the machine's speed as this process saw it, after the timed part
        sys.stdout.write(f"{calibrate(reps=7)!r}\n")
        return 0

    import_lieforge()
    setup, setup_wall = ([], []) if args.trace else \
        measure_setup(args.workload, args.seed, args.seconds)
    import jobs
    n_decks = 1 if args.trace else decks_to_run(args.workload, args.seconds)
    decks = jobs.build(args.workload, args.seed, n_decks)
    env = environment()
    # set-up objects live for the whole run: keep them out of collections
    gc.freeze()

    intern0 = intern_size()
    if args.trace:
        results, metrics, tracer = traced_deck(decks[0])
        units = dict(per_layer_spec())
        extra = {"deck_jobs": len(decks[0])}
    else:
        results, whole_decks = timed_loop(decks, args.seconds)
        metrics, extra = end_to_end(results, whole_decks, setup, setup_wall)
        units = dict(END_TO_END)
        tracer = None
    counts = job_counts(results, intern0)
    extra["counts"] = counts
    extra["output_digest"] = output_digest(results)
    if args.trace:
        metrics.update(counts)
        metrics = {name: metrics[name] for name in units}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = report(args.workload, args.seed, args.trace, metrics, units, extra,
                 results, env)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}-spans.json")
    failed = sum(r.outcome == "failed" for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
