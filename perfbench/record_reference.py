"""Record the reference report digests of the benchmark streams.

    python3 perfbench/record_reference.py

Runs the first documents of each workload's stream for REFERENCE_SEED, plus
the seed-independent documents every stream contains, through
evolsym.cli.main; refuses to write if any document fails its check.
Afterwards run.py counts every report whose digest differs as a mismatch.
Re-record only when a change is meant to alter reports.
"""

import json
import sys

from run import HERE, SRC, WORK, verdicts_for_record

REFERENCE_SEED = 0
# more documents than a run of this commit reaches in its measured window
REFERENCE_DOCS = {"classify": 50, "gauge-transform": 50, "certify": 140}


def main():
    sys.path[:0] = [str(SRC), str(HERE)]
    digests = {}
    for workload, count in REFERENCE_DOCS.items():
        digests[workload] = verdicts_for_record(workload, REFERENCE_SEED, count, WORK / "record")
        print(f"{workload}: {len(digests[workload])} digests", flush=True)
    out = {"seed": REFERENCE_SEED, "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
