"""One sha256 over the characterize reports of the benchmark workloads.

    python3 tests/report_digest.py

Run from the root of a source tree; diagvf is imported from ./src and the
op generator from perfbench/workloads.py, which is only read.  Every
characterize op of cycles 0-2 of seeds 1-3 of each workload is run as the
benchmark runs it (parse_config, run_characterize, emit_report), and its
report bytes, or the class and message of what it raised, go into the
digest in order.  Two trees that print the same digest print the same
reports.  The last line of stdout is the digest; the line before it counts
the reports.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from diagvf import pipeline  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
CYCLES = 3


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for index in range(CYCLES):
                for op in workloads.cycle(workload, seed, index):
                    if op["kind"] != "characterize":
                        continue
                    try:
                        text = pipeline.emit_report(
                            pipeline.run_characterize(pipeline.parse_config(op["config"])))
                    except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                        text = f"{type(exc).__name__}: {exc}"
                    digest.update(text.encode() + b"\0")
                    count += 1
    print(f"{count} characterize reports")
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
