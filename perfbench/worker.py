"""One measured share of a benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <share> <shares> <seconds> <dir> [<limit>]

Starts like the command line does (import evolsym.cli, solve the P1I worked
example from <dir>/cold-eq.json) and prints "cold"; then generates the
document stream and prints "ready"; then runs every shares-th rotation cycle
of the stream, starting at cycle <share> and at its own point of the
rotation, through evolsym.cli.main until <seconds> have been measured or
<limit> documents run.  Exit codes, latencies, reports, peak resident memory
and the machine speed probes (speed.py) go to <dir>/share-<share>.json.
run.py times "cold" and "ready" from process start.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from speed import Sampler  # noqa: E402


def main():
    # sampling starts before evolsym is imported, so start-up is sampled too
    speed = Sampler()
    speed.start()
    import evolsym.cli as cli

    workload, seed, share, shares, seconds, work = sys.argv[1:7]
    share, shares, work = int(share), int(shares), Path(work)
    limit = int(sys.argv[7]) if len(sys.argv) > 7 else None
    cold_out = work / f"cold-{share}.json"
    start = speed.work_clock()
    cold_code = cli.main(["--output", str(cold_out), "solve", str(work / "cold-eq.json"),
                          "--method", "P1I", "--phi0", "0"])
    cold_solve_s = speed.work_clock() - start
    spent_cold = speed.spent
    print("cold", flush=True)

    import json
    import resource

    from docs import CYCLE, documents
    from run import STREAM_DOCS, run_stream

    # whole rotation cycles go to each share, and each share starts at its
    # own point of the rotation, so together the shares reach every class
    # even when one share completes less than a cycle
    docs = documents(workload, int(seed), STREAM_DOCS)
    mine = [i for i in range(len(docs)) if (i // CYCLE[workload]) % shares == share]
    offset = share * CYCLE[workload] // shares
    mine = mine[offset:] + mine[:offset]
    spent_ready = speed.spent
    ready = time.perf_counter()
    print("ready", flush=True)
    scratch = work / f"share-{share}"
    scratch.mkdir(exist_ok=True)
    done = run_stream(cli, [docs[i] for i in mine[:limit]], scratch, deadline=float(seconds),
                      clock=speed.work_clock)
    speed.stop()
    result = {
        "cold_code": cold_code,
        "cold_report": cold_out.read_text(encoding="utf-8") if cold_code == 0 else None,
        "cold_solve_s": cold_solve_s,
        "spent_cold_s": spent_cold,
        "spent_ready_s": spent_ready,
        "probe_startup_s": speed.median_between(0.0, ready),
        "probe_docs_s": speed.median_between(ready, time.perf_counter()),
        "planned": mine[:limit],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "done": [
            {"index": mine[i], "code": code, "elapsed": elapsed, "report": report,
             "stderr": stderr}
            for i, (_doc, code, elapsed, report, stderr) in enumerate(done)
        ],
    }
    (work / f"share-{share}.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
