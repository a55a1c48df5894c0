"""diagvf benchmark: seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; diagvf is imported from ./src.  One
client runs ops back to back in this process (a closed loop, no threads).
Ops come in cycles of fixed composition (see workloads.py); the run keeps
starting cycles until --seconds have passed and always finishes the one it
is in.

--trace 0 prints the end-to-end metrics, from op latencies scaled to a
fixed reference host speed (see hostspeed.py), each cycle position weighted
equally:
  ops_per_s    ops of a cycle per second of op time (checks, input
               generation and host readings are not counted)
  op_ms_p50    median op latency
  op_ms_tail   90th-percentile op latency (a 30 s run has more than 300
               ops, so more than 10 lie beyond it)
  setup_s      median over fresh interpreters of the time from process start
               through `import diagvf` to the end of the workload's first op,
               scaled by a host reading the interpreter takes after the op
  peak_rss_mb  peak resident memory of this process
--trace 1 runs every cycle twice, once plain and once with spans recorded
at the module boundaries (tracer.py), and prints the per-layer metrics and
trace.overhead_frac = 1 - traced ops_per_s / plain ops_per_s.

Every op's output is checked (ops.py).  `attempted` and `failed` in the
result count every op; failed / attempted is the error rate, and `correct`
is false when an op failed.  The timed workloads hold only inputs the
program gets right.  Inputs that hit its known defects form a separate
census (workloads.DEFECT_GROUPS), run once per run, untimed and outside
`attempted`; the share of each census group that fails is printed, and
with --trace 1 it is a per-layer metric, defects.<group>.failed_share.
The last line of stdout is the result object; the lines before it describe
the run and the measured share of each input property.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import hostspeed
import tracer as tracer_mod
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

TAIL_PERCENTILE = 90
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

ops = None  # the op runner; load_program() imports it once ./src is on the path


def load_program():
    """Import diagvf from ./src and the op runner, or exit non-zero."""
    global ops
    if not os.path.isfile(os.path.join(SRC, "diagvf", "__init__.py")):
        sys.exit(f"run.py: no diagvf package under {SRC}; "
                 "run from the root of a diagvf source tree")
    sys.path.insert(0, SRC)
    import diagvf
    if os.path.dirname(os.path.dirname(os.path.abspath(diagvf.__file__))) != SRC:
        sys.exit(f"run.py: imported diagvf from {diagvf.__file__}, not {SRC}")
    import ops as runner
    ops = runner


def metric_units(kind):
    """{metric name: unit} for "end_to_end" or "per_layer" in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Tally:
    """Latencies, failures and input properties of the ops run."""

    def __init__(self):
        self.samples = []        # (position in the cycle, seconds, host reading)
        self.attempted = 0
        self.failures = Counter()
        self.examples = {}
        self.props = defaultdict(Counter)

    def add(self, op, position, seconds, host, failure):
        self.samples.append((position, seconds, host))
        self.attempted += 1
        for key, value in op["props"].items():
            self.props[key][str(value)] += 1
        if failure is not None:
            cls, message = failure
            self.failures[cls] += 1
            self.examples.setdefault(cls, message)

    def shares(self):
        return {key: {v: n / self.attempted for v, n in sorted(counts.items())}
                for key, counts in sorted(self.props.items())}


def run_op(op, position, tally, host_before, tracer=None, op_id=-1):
    """Run, time and check one op; returns the host reading taken after it."""
    call = ops.prepare(op)
    if tracer is not None:
        tracer.op_id = op_id
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a raising op is counted, never fatal
        seconds = time.perf_counter() - t0
        failure = (ops.classify_exception(op, exc), f"{type(exc).__name__}: {exc}")
    else:
        seconds = time.perf_counter() - t0
        failure = None
    if tracer is not None:
        tracer.enabled = False
    host_after = hostspeed.host_reading()
    if failure is None:
        failure = ops.check(op, result)
    tally.add(op, position, seconds, (host_before + host_after) / 2, failure)
    return host_after


def run_pass(cycle, tally, tracer=None):
    host = hostspeed.host_reading()
    for position, op in enumerate(cycle):
        op_id = tally.attempted
        host = run_op(op, position, tally, host, tracer, op_id)


def run_cycles(workload, seed, seconds, trace):
    """Run whole cycles until `seconds` have passed."""
    plain = Tally()
    traced = Tally() if trace else None
    tracer = tracer_mod.Tracer() if trace else None
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        cycle = workloads.cycle(workload, seed, index)
        gc.collect()
        if not trace:
            run_pass(cycle, plain)
        else:
            # alternate which pass goes first, so drift favours neither
            passes = [False, True] if index % 2 == 0 else [True, False]
            for with_trace in passes:
                if with_trace:
                    tracer.install()
                    run_pass(cycle, traced, tracer)
                    tracer.uninstall()
                else:
                    run_pass(cycle, plain)
                gc.collect()
        index += 1
    return plain, traced, tracer, index


def run_census(seed):
    """{census group: {outcome: count}}, outcome "ok" or a failure class."""
    outcomes = defaultdict(Counter)
    for group, op in workloads.defect_census(seed):
        try:
            result = ops.prepare(op)()
        except Exception as exc:  # the census measures how often this happens
            outcome = ops.classify_exception(op, exc)
        else:
            failure = ops.check(op, result)
            outcome = "ok" if failure is None else failure[0]
        outcomes[group][outcome] += 1
    return outcomes


def census_metrics(outcomes):
    return {f"defects.{group}.failed_share": 1.0 - counts["ok"] / sum(counts.values())
            for group, counts in outcomes.items()}


def setup_probe_times(workload, seed):
    """Seconds from process start to the end of the first op, per fresh
    interpreter, at the reference host speed."""
    first = json.dumps(workloads.cycle(workload, seed, 0)[0])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), repr(t0)],
            input=first, capture_output=True, text=True, cwd=ROOT,
            timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"run.py: set-up probe failed:\n{proc.stderr}")
        seconds, reading = map(float, proc.stdout.split()[-2:])
        times.append(hostspeed.at_reference_speed(seconds, reading))
    return times


def at_reference_speed(samples):
    """{cycle position: op latencies at the reference host speed}, each op
    scaled by the mean of the host readings just before and after it."""
    by_position = defaultdict(list)
    for position, seconds, host in samples:
        by_position[position].append(hostspeed.at_reference_speed(seconds, host))
    return by_position


def ops_per_second(by_position):
    """Ops of one cycle over the cycle's time, each op at the median latency
    of its cycle position, so a one-time cost (the first build of a lattice
    table) does not move it; setup_s holds the bound-50 one."""
    return len(by_position) / sum(statistics.median(v) for v in by_position.values())


def percentile(by_position, pct):
    """Latency percentile with each cycle position weighted equally."""
    weighted = sorted((s, 1.0 / len(v)) for v in by_position.values() for s in v)
    target = len(by_position) * pct / 100.0
    acc = 0.0
    for seconds, weight in weighted:
        acc += weight
        if acc >= target:
            return seconds
    return weighted[-1][0]


def end_to_end(tally, setup_times):
    by_position = at_reference_speed(tally.samples)
    values = {
        "ops_per_s": ops_per_second(by_position),
        "op_ms_p50": percentile(by_position, 50) * 1e3,
        "op_ms_tail": percentile(by_position, TAIL_PERCENTILE) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _with_units(values, "end_to_end")


def per_layer(plain, traced, tracer, census):
    values = tracer_mod.layer_metrics(tracer, traced.attempted)
    values.update(census_metrics(census))
    values["trace.overhead_frac"] = 1.0 - (
        ops_per_second(at_reference_speed(traced.samples))
        / ops_per_second(at_reference_speed(plain.samples)))
    return _with_units(values, "per_layer")


def _with_units(values, kind):
    units = metric_units(kind)
    if set(values) != set(units):
        sys.exit(f"run.py: metrics {sorted(set(values) ^ set(units))} do not "
                 f"match the {kind} list of BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()

    setup_times = [] if args.trace else setup_probe_times(args.workload, args.seed)
    plain, traced, tracer, cycles = run_cycles(args.workload, args.seed,
                                               args.seconds, args.trace)
    tallies = [plain] + ([traced] if traced else [])
    attempted = sum(t.attempted for t in tallies)
    failures = sum((t.failures for t in tallies), Counter())
    failed = sum(failures.values())
    examples = {cls: msg for t in reversed(tallies) for cls, msg in t.examples.items()}

    if args.trace:
        census = run_census(args.seed)
        metrics = per_layer(plain, traced, tracer, census)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv"))
    else:
        metrics = end_to_end(plain, setup_times)  # reads peak RSS before the census
        census = run_census(args.seed)

    print(f"# workload {args.workload} seed {args.seed}: {cycles} cycles, "
          f"{attempted} ops, error_rate {failed / attempted} (fraction)")
    print("# failures " + json.dumps({"by_class": failures, "example": examples},
                                     sort_keys=True))
    readings = sorted(host for _, _, host in plain.samples)
    print(f"# host reading: 5th percentile {readings[len(readings) // 20] * 1e3} ms, "
          f"median {statistics.median(readings) * 1e3} ms, reference "
          f"{hostspeed.REFERENCE_READING_S * 1e3} ms")
    print("# inputs " + json.dumps(plain.shares(), sort_keys=True))
    print("# defect census (untimed, not in attempted) "
          + json.dumps(census, sort_keys=True))
    if setup_times:
        print("# setup_s probes " + json.dumps(setup_times))
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
