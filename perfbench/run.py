"""evolsym benchmark: classify, gauge-transform and certify workloads.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  Each workload drives evolsym.cli.main
in-process, closed loop, one caller, on a seeded document stream
(docs.py).  Every report is written with --output, checked (checks.py) and,
where the document belongs to the recorded reference set, compared
byte-for-byte by digest with reference.json.

--trace 0 measures the end-to-end metrics on seconds * RATE documents,
split over SHARES worker processes (worker.py) run one after another, and
times the start-up of STARTS fresh processes.  --trace 1 runs a fixed
prefix of the stream in this process under the layer tracer (layertrace.py)
to give per-layer metrics whose counts repeat, and the same prefix untraced
in a fresh worker to give the tracing overhead; it ignores --seconds.
A human-readable table precedes the last line, a JSON object with correct,
attempted, failed and metrics.  NOTES.md explains the metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# documents generated in set-up: 75 per worker, enough for --seconds up to
# 120; a worker runs fewer if its share of them runs out
STREAM_DOCS = 300
# traced prefix per workload, about ten seconds untraced on a 2-CPU Xeon VM
TRACE_DOCS = {"classify": 12, "gauge-transform": 15, "certify": 36}
# seed-independent documents per stream (docs.anchor_documents)
ANCHORS = {"classify": 21, "gauge-transform": 24, "certify": 20}
# worker processes per timed run; each measures about seconds / SHARES
SHARES = 4
# documents per second at the reference speed (speed.py) at the commit that
# introduced the benchmark.  A timed run measures seconds * RATE documents,
# the same ones for every run of a seed whatever the machine's speed, so the
# cut at a deadline does not change the mix of costs it measures.
RATE = {"classify": 1.0, "gauge-transform": 1.2, "certify": 2.4}
# a worker stops early once its documents have taken OVERRUN times its share
# of the seconds, so a much slower program still ends a run in time
OVERRUN = 2
# fresh processes per timed run whose start-up is timed: the SHARES workers
# and STARTS - SHARES that only start up
STARTS = 8
CHILD_TIMEOUT_S = 60
HASH_SEED = "0"

WORKED_DRIFT = {"order": 3, "form": "reduced", "coefficients": {"A0": "x"}}
WORKED_DRIFT_EXPR = "c0*exp(1/4*t^4 + t*x)"

# functions each workload must reach (calls > 0 in the traced run); names not
# listed for any workload are measured but not reachable from these commands
HITS = {
    "classify": (
        "symmetry.classifying_residuals", "model._slot_coords", "symmetry.solve_symmetries",
        "kernel.differentiate", "kernel.nullspace", "kernel.rref", "model.lie_bracket",
        "model.in_span", "model.algebra_signature", "symmetry.signature_bounds_check",
        "kernel.normalize", "kernel.parse_expr", "kernel.to_str",
    ),
    "gauge-transform": (
        "equivalence.pushforward_equation", "equivalence.expand_special", "kernel.substitute",
        "kernel.integrate", "equivalence.gauge_all", "equivalence.find_particular_solution",
        "kernel.normalize", "kernel.is_zero", "kernel.differentiate", "kernel.parse_expr",
        "kernel.to_str",
    ),
    "certify": (
        "kernel.eval_numeric", "verify.residual_numeric", "scipy.quad",
        "solutions.generate_nonlocal", "solutions.generalized_reduction",
        "solutions.polynomial_t_solutions", "solutions.solve_const_ode",
        "solutions.reduce_P1Iphi", "solutions.certify_symbolic", "verify.residual_symbolic",
        "kernel.parse_expr", "kernel.to_str",
    ),
}
TIMED = (
    "symmetry.classifying_residuals", "model._slot_coords", "symmetry.solve_symmetries",
    "kernel.differentiate", "kernel.nullspace", "kernel.rref", "model.lie_bracket",
    "model.in_span", "model.algebra_signature", "symmetry.signature_bounds_check",
    "symmetry.verify_symmetry", "kernel.normalize", "equivalence.pushforward_equation",
    "equivalence.expand_special", "equivalence.adjoint_general", "kernel.substitute",
    "kernel.integrate", "equivalence.gauge_all", "equivalence.find_particular_solution",
    "kernel.is_zero", "kernel.eval_numeric", "verify.residual_numeric", "scipy.quad",
    "solutions.generate_nonlocal", "solutions.generalized_reduction",
    "solutions.polynomial_t_solutions", "solutions.solve_const_ode",
    "solutions.reduce_P1Iphi", "solutions.certify_symbolic", "verify.residual_symbolic",
    "kernel.parse_expr", "kernel.to_str",
)
COUNTS = (
    "kernel.nullspace.cells", "kernel.is_zero.unknown",
    "verify.residual_numeric.slope_none", "scipy.quad.evals",
)
IMPORTS = ("evolsym", "sympy", "numpy", "scipy")


def main():
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing orders sympy's sets and dicts, and with a random
        # seed the same documents cost up to 15% more or less per process
        os.execve(sys.executable, [sys.executable] + sys.argv, child_env())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("classify", "gauge-transform", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "evolsym" / "cli.py").is_file():
        sys.stderr.write(f"no evolsym sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args, work)
        else:
            result = timed_run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0


# --- one document ---------------------------------------------------------------


def prepare(doc, work):
    """Write a document's input files; return the argv for evolsym.cli.main."""
    paths = {}
    for name, obj in doc["files"].items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths[name] = str(path)
    out = work / "report.json"
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    argv = [paths[a[1:]] if a.startswith("@") else a for a in doc["argv"]]
    return ["--output", str(out)] + argv, out


def run_document(cli, doc, work, clock=time.perf_counter):
    """(exit code, seconds, report text or None, stderr text) of one call."""
    argv, out = prepare(doc, work)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        elapsed = clock() - start
    report = out.read_text(encoding="utf-8") if code == 0 and out.exists() else None
    return code, elapsed, report, err.getvalue()


def digest(code, report, stderr):
    text = report if code == 0 else stderr
    return hashlib.sha256(f"{code}\n{text}".encode("utf-8")).hexdigest()


def load_reference(workload):
    path = HERE / "reference.json"
    return json.loads(path.read_text(encoding="utf-8"))["digests"].get(workload, {})


def run_stream(cli, docs, work, deadline=None, clock=time.perf_counter):
    """Run documents in order until the list or the deadline runs out."""
    done = []
    start = clock()
    for doc in docs:
        if deadline is not None and clock() - start >= deadline:
            break
        done.append((doc,) + run_document(cli, doc, work, clock))
    return done


def verdicts(done, workload):
    """Check every report; returns (errors, mismatches, failed docs)."""
    from checks import Checker
    from docs import doc_key

    checker = Checker()
    reference = load_reference(workload)
    errors = mismatches = failed = 0
    for doc, code, _elapsed, report, stderr in done:
        why = checker.check(doc, code, report, stderr)
        ref = reference.get(doc_key(doc))
        bad_digest = ref is not None and ref != digest(code, report, stderr)
        if why:
            errors += 1
            sys.stderr.write(f"[{doc['cls']}] {' '.join(doc['argv'])}: {why}\n")
        if bad_digest:
            mismatches += 1
            sys.stderr.write(f"[{doc['cls']}] report differs from the reference digest\n")
        failed += bool(why or bad_digest)
    return errors, mismatches, failed


def verdicts_for_record(workload, seed, count, work):
    """Digests of a stream prefix and of every seed-independent document;
    raises if any of them fails its check."""
    import evolsym.cli as cli
    from checks import Checker
    from docs import anchor_documents, doc_key, documents

    docs = {doc_key(d): d for d in documents(workload, seed, count)}
    for d in anchor_documents(workload, ANCHORS[workload]):
        docs.setdefault(doc_key(d), d)
    checker = Checker()
    work.mkdir(parents=True, exist_ok=True)
    out = {}
    try:
        for key, (doc, code, _e, report, stderr) in zip(docs, run_stream(cli, docs.values(), work)):
            why = checker.check(doc, code, report, stderr)
            if why:
                raise RuntimeError(f"[{doc['cls']}] {' '.join(doc['argv'])}: {why}")
            out[key] = digest(code, report, stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


# --- subprocess probes -------------------------------------------------------------


def child_env(hash_seed=HASH_SEED):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    return env


def run_share(args, share, shares, seconds, work, limit=None):
    """Run one share of the documents in a fresh worker process; returns
    (cold-start seconds, set-up seconds, worker result), the seconds without
    the time spent in speed probes.  Share k runs with hash seed k, so a run
    averages over string-hash orders as well as processes."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(share), str(shares), str(seconds), str(work)]
    if limit is not None:
        cmd.append(str(limit))
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(str(share)), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            lines = []
            for _ in range(2):
                lines.append(proc.stdout.readline().strip())
                lines.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S + seconds)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if lines[0::2] != ["cold", "ready"] or proc.returncode != 0:
        raise RuntimeError(f"worker {share} failed with exit {proc.returncode}")
    result = json.loads((work / f"share-{share}.json").read_text(encoding="utf-8"))
    cold = lines[1] - result["spent_cold_s"]
    setup = lines[3] - result["spent_ready_s"] - result["cold_solve_s"]
    return cold, setup, result


def cold_start_ok(result):
    """The worked example of the cold start came out verbatim."""
    if result["cold_code"] != 0:
        return False
    return json.loads(result["cold_report"])["solutions"][0]["expr"] == WORKED_DRIFT_EXPR


def import_times():
    """Cumulative import seconds per package from `python -X importtime`."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import evolsym.cli"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
                          capture_output=True, text=True, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    out = {}
    for package in IMPORTS:
        total = 0.0
        # lines come in post-order: a module's parent is the next shallower line
        for i, (depth, name, cum) in enumerate(rows):
            parent = next((n for d, n, _ in rows[i + 1:] if d < depth), None)
            if name.split(".")[0] == package and (
                parent is None or parent.split(".")[0] != package
            ):
                total += cum
        out[f"import.{package}_s"] = total
    return out


# --- the two kinds of run ---------------------------------------------------------------


def mix_weights(done, docs):
    """Weight per completed document: its class's share of the planned
    documents over the number of completed documents of that class.  When
    every planned document completes, each weighs 1/len(docs); when a worker
    stopped early, statistics taken with these weights still describe the
    planned class mix."""
    share = Counter(doc["cls"] for doc in docs)
    ran = Counter(doc["cls"] for doc, *_ in done)
    total = sum(share[c] for c in ran)
    return [share[doc["cls"]] / total / ran[doc["cls"]] for doc, *_ in done]


def weighted_quantile(values, weights, q):
    """Quantile of a weighted sample: each value sits at the middle of its
    share of the cumulative weight, and the quantile interpolates linearly
    between neighbours, so it moves smoothly as weights shift."""
    pairs = sorted(zip(values, weights))
    total = sum(w for _v, w in pairs)
    acc, points = 0.0, []
    for value, weight in pairs:
        points.append(((acc + weight / 2) / total, value))
        acc += weight
    if q <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return points[-1][1]


def timed_run(args, work):
    from docs import documents
    from speed import REFERENCE_S

    (work / "cold-eq.json").write_text(json.dumps(WORKED_DRIFT), encoding="utf-8")
    # start-only processes alternate with the workers, so that the start-ups
    # sample the whole run
    order = sorted(range(STARTS), key=lambda k: 2 * k if k < SHARES else 2 * (k - SHARES) + 1)
    per_share = max(1, round(args.seconds * RATE[args.workload] / SHARES))
    colds, setups, results = zip(*(
        run_share(args, k, SHARES, OVERRUN * args.seconds / SHARES, work, limit=per_share)
        if k < SHARES else run_share(args, k, SHARES, 0, work)
        for k in order))

    docs = documents(args.workload, args.seed, STREAM_DOCS)
    planned = [docs[i] for res in results for i in res["planned"]]
    # every timing is taken to the reference machine speed with the median
    # probe of the same process and phase (speed.py)
    rows = sorted(((r, REFERENCE_S / res["probe_docs_s"]) for res in results for r in res["done"]),
                  key=lambda row: row[0]["index"])
    done = [(docs[r["index"]], r["code"], r["elapsed"], r["report"], r["stderr"]) for r, _ in rows]
    raw_lat = [r["elapsed"] for r, _ in rows]
    lat = [r["elapsed"] * scale for r, scale in rows]
    start_scale = [REFERENCE_S / res["probe_startup_s"] for res in results]
    errors, mismatches, failed = verdicts(done, args.workload)
    cold_failed = sum(not cold_start_ok(res) for res in results)

    n = len(done)
    weights = mix_weights(done, planned)
    metrics = {
        "setup_s": (statistics.median(t * k for t, k in zip(setups, start_scale)), "s"),
        "docs_per_s": (1 / sum(w * e for w, e in zip(weights, lat)), "1/s"),
        "peak_rss_mb": (max(res["peak_rss_mb"] for res in results), "MB"),
        "cold_start_s": (statistics.median(t * k for t, k in zip(colds, start_scale)), "s"),
    }
    table = dict(metrics)
    # printed, not bounded: over seeds the median's spread stays above a
    # third of the largest bound a metric may have (NOTES.md).  The tail is
    # the highest quantile with ten documents beyond it.
    table["latency_p50_s"] = (weighted_quantile(lat, weights, 0.5), "s")
    tail_q = 1 - 10 / n
    if tail_q > 0.5:
        table["latency_tail_s"] = (weighted_quantile(lat, weights, tail_q), "s")
        table["latency_tail_q"] = (tail_q, "quantile")
    table["error_rate"] = (errors / n, "share")
    table["report_mismatches"] = (mismatches, "count")
    table["machine.slowness"] = (statistics.median(
        res["probe_docs_s"] for res in results if res["done"]) / REFERENCE_S, "ratio")
    table["unscaled.setup_s"] = (statistics.median(setups), "s")
    table["unscaled.docs_per_s"] = (1 / sum(w * e for w, e in zip(weights, raw_lat)), "1/s")
    table["unscaled.cold_start_s"] = (statistics.median(colds), "s")
    print(f"workload {args.workload} seed {args.seed}: {n} of {len(planned)} documents in"
          f" {sum(lat):.2f} s at the reference speed over {SHARES} worker processes,"
          f" start-up timed in {STARTS}")
    print_classes(done)
    print_table(table)
    return {
        "correct": failed == 0 and cold_failed == 0,
        "attempted": n + STARTS,
        "failed": failed + cold_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(args, work):
    imports = import_times()

    import evolsym.cli as cli
    from docs import documents
    from layertrace import Tracer
    from speed import Sampler

    count = TRACE_DOCS[args.workload]
    # the untraced prefix runs in a fresh worker, so that neither pass finds
    # the other's caches warm; this process, like the worker, first solves
    # the cold-start example untraced
    cold_eq = work / "cold-eq.json"
    cold_eq.write_text(json.dumps(WORKED_DRIFT), encoding="utf-8")
    _cold, _setup, plain = run_share(args, 0, 1, CHILD_TIMEOUT_S, work, limit=count)
    # both passes are sampled for machine speed, and spans leave out the
    # probes' time
    speed = Sampler()
    speed.start()
    cli.main(["--output", str(work / "cold-report.json"), "solve", str(cold_eq),
              "--method", "P1I", "--phi0", "0"])
    docs = documents(args.workload, args.seed, count)
    tracer = Tracer(clock=speed.work_clock)
    tracer.install()
    tracer.active = True
    start = time.perf_counter()
    traced = run_stream(cli, docs, work, clock=speed.work_clock)
    traced_probe = speed.median_between(start, time.perf_counter())
    tracer.active = False
    speed.stop()
    errors, mismatches, failed = verdicts(traced, args.workload)

    n = len(traced)
    # over the documents both passes completed, each pass at the reference
    # speed, so that a change of machine speed between them cancels
    plain_lat = [row["elapsed"] for row in plain["done"]]
    traced_s = sum(e for _d, _c, e, _r, _s in traced[: len(plain_lat)])
    plain_s = sum(plain_lat)
    overhead = traced_s / traced_probe / (plain_s / plain["probe_docs_s"])
    calls, self_s = tracer.calls, tracer.self_s
    metrics = {}
    for name in TIMED:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    solves = calls["symmetry.solve_symmetries"]
    metrics["symmetry.classifying_residuals.per_solve"] = (
        calls["symmetry.classifying_residuals"] / solves if solves else 0.0, "ratio")
    for layer in ("cli", "symmetry", "model", "equivalence", "solutions", "verify", "kernel", "scipy"):
        metrics[f"{layer}.self_s"] = (tracer.layer_self_s[layer], "s")
    for name, value in imports.items():
        metrics[name] = (value, "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["error_rate"] = (errors / n, "share")
    metrics["report_mismatches"] = (mismatches, "count")

    missing = [name for name in HITS[args.workload] if calls[name] == 0]
    for name in missing:
        sys.stderr.write(f"{name} recorded no calls on {args.workload}\n")
    print(f"workload {args.workload} seed {args.seed}: {n} documents traced in "
          f"{traced_s:.2f} s, {plain_s:.2f} s untraced, both unscaled")
    print_table(metrics)
    return {
        "correct": failed == 0 and not missing,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_classes(done):
    by_class = {}
    for doc, _code, elapsed, _report, _stderr in done:
        by_class.setdefault(doc["cls"], []).append(elapsed)
    for cls, lat in sorted(by_class.items()):
        print(f"  {cls:24s} {len(lat):4d} documents, median {statistics.median(lat):.3f} s")


def print_table(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
