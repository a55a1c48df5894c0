"""Set-up probe: one fresh interpreter imports diagvf and runs one op.

    python3 perfbench/probe.py T0 < op.json

T0 is time.monotonic() in the parent just before it started this process.
Prints the seconds from T0 to the end of the op (interpreter start, the
import of diagvf and everything the first op builds), then the mean of two
host readings (hostspeed.py), one taken before the import and one after
the op.  run.py starts several probes and reports the median of their
times at the reference host speed as setup_s.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main():
    t0 = float(sys.argv[1])
    import hostspeed
    before = hostspeed.host_reading()
    op = json.loads(sys.stdin.read())
    sys.path.insert(0, SRC)
    import ops  # imports diagvf
    call = ops.prepare(op)
    try:
        call()
    except Exception:  # the measured run counts and checks failures
        pass
    elapsed = time.monotonic() - t0
    print(elapsed, (before + hostspeed.host_reading()) / 2)


if __name__ == "__main__":
    main()
