"""Benchmark of ncgauge: one workload per process, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify|descent|lattice_spectral \
        [--seed 0] [--seconds 30] [--trace 0|1]

The run builds its inputs from ``--seed``, then repeats whole rounds of the
workload's fixed operations until ``--seconds`` have passed, checking every
output.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones: the median time of one operation of
each group at reference speed (see ``SpeedProbe``), set-up time and
peak resident memory.  With ``--trace 1`` rounds alternate between untraced
and traced; the metrics are the per-layer calls and self times of one traced
round, and the spans are written to ``.bench_out/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread, fixed before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: set-ups per run; ``setup_s`` adds their median to the one-time import
SETUP_REPS = 5
#: reference speed: the machine speed at which ``SpeedProbe.kernel`` takes this long
PROBE_NOMINAL_S = 0.0019
PROBE_INTERVAL_S = 0.1
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("small_s", "s"), ("medium_s", "s"), ("large_s", "s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify", "descent", "lattice_spectral"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import ``ncgauge`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "ncgauge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ncgauge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncgauge

    if Path(ncgauge.__file__).resolve().parent != SRC / "ncgauge":
        raise SystemExit(f"bench: imported ncgauge from {ncgauge.__file__}, not from {SRC}")


class SpeedProbe:
    """Machine speed during an operation, from a fixed numpy kernel that
    shares no code with ncgauge (commutators of 4x4 complex matrices in a
    Python loop and a small contraction).

    The machine this benchmark was built on is shared, and its speed swings
    by up to 2x over seconds.  The kernel is timed right before each
    operation and, from a ``SIGALRM`` interval timer, every
    ``PROBE_INTERVAL_S`` while the operation runs (no thread is started).  An
    operation's time at reference speed is its wall time, less the time spent
    in probes, times ``PROBE_NOMINAL_S`` over the median probe time
    (README, "Steadiness")."""

    def __init__(self, np) -> None:
        rng = np.random.default_rng(20240601)
        self.np = np
        self.small = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
        self.g = 2.0 * np.eye(8)
        self.f = rng.standard_normal((8, 8, 4, 4)) + 1j * rng.standard_normal((8, 8, 4, 4))

    def kernel(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        x = self.small[0]
        for k in range(120):
            y = self.small[k % 8]
            x = x @ y - y @ x + y
            x = x / np.abs(x).max()
        np.einsum("ka,lb,abij->klij", self.g, self.g, self.f)
        return time.perf_counter() - t0

    def run(self, fn):
        """``(fn(), wall time less probes, median probe time)``."""
        before = self.kernel()
        probes = []  # (start, duration) of the probes taken while fn runs

        def probe(signum, frame):
            probes.append((time.perf_counter(), self.kernel()))

        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        inside = [d for start, d in probes if start < t1]
        return out, t1 - t0 - sum(inside), statistics.median([before] + inside)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np
    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    probe = SpeedProbe(np)
    import_ref = probe.kernel()

    def set_up():
        ops = workloads.build(args.workload, args.seed)
        ops[0].check(ops[0].run())  # warm-up, part of the set-up
        return ops

    setups = [probe.run(set_up) for _ in range(SETUP_REPS)]
    ops = setups[-1][0]
    setup_s = PROBE_NOMINAL_S * (import_s / import_ref + statistics.median(dt / ref for _, dt, ref in setups))

    tracer = spans.Tracer() if args.trace else None
    samples = {op.metric: [] for op in ops}  # (wall time, median probe time)
    walls = {False: [], True: []}
    layer_rounds = []
    attempted = failed = 0
    unexpected = []
    rounds = 0
    min_rounds = 2 if tracer else 1
    t_measure = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - t_measure < args.seconds:
        traced = tracer is not None and rounds % 2 == 1
        wall = 0.0
        if traced:
            first = len(tracer.spans)
            tracer.install()
        try:
            for op in ops:
                for _ in range(op.reps):
                    if tracer is None:
                        out, dt, ref = probe.run(op.run)
                    else:
                        with tracer.span(f"bench.{op.metric}") if traced else contextlib.nullcontext():
                            t0 = time.perf_counter()
                            out = op.run()
                            dt = time.perf_counter() - t0
                        ref = float("nan")
                    wall += dt
                    samples[op.metric].append((dt, ref))
                    for label, ok, known_fault in op.check(out):
                        attempted += 1
                        if not ok:
                            failed += 1
                            if not known_fault:
                                unexpected.append(label)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rounds.append(tracer.summarize(first, len(tracer.spans)))
        walls[traced].append(wall)
        rounds += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, {attempted} operations, {failed} failed")
    for label in unexpected[:20]:
        print(f"FAILED {label}", file=sys.stderr)

    metrics = {}
    if tracer is None:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        for metric, xs in samples.items():
            values[metric] = PROBE_NOMINAL_S * statistics.median(dt / ref for dt, ref in xs)
            q1, q2, q3 = quartiles([dt for dt, _ in xs])
            print(f"  {metric:9s} {values[metric]:.6f} s at reference speed; wall median {q2:.6f} s, "
                  f"quartiles {q1:.6f} {q3:.6f} ({len(xs)} operations)")
        refs = [ref for xs in samples.values() for _, ref in xs]
        print(f"  speed probe median {statistics.median(refs):.6f} s (nominal {PROBE_NOMINAL_S})")
        print(f"  setup_s   {setup_s:.6f} s at reference speed; wall: import {import_s:.6f} s, set-ups {[round(dt, 6) for _, dt, _ in setups]}")
        print(f"  peak_rss  {peak_rss_mb:.1f} MB")
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        for name, unit in spans.per_layer_names():
            if name == "trace.overhead_s":
                value = statistics.median(walls[True]) - statistics.median(walls[False])
            elif name.endswith(".self_s"):
                value = statistics.median(r[name] for r in layer_rounds)
            else:
                value = layer_rounds[0][name]
                if any(r[name] != value for r in layer_rounds):
                    print(f"bench: {name} differs between traced rounds", file=sys.stderr)
            metrics[name] = {"value": value, "unit": unit}
        print(f"  round wall: untraced {walls[False]}  traced {walls[True]}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, samples=samples)) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
