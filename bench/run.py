"""circorbits benchmark: seeded CLI workloads through circorbits.cli.main.

    python3 bench/run.py --workload count-large --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src. One client sends the requests of a workload in a closed loop:
each argv list goes to circorbits.cli.main in this process only after the
previous call has returned, and stdout is captured in memory. The list
is sent in whole passes, at least MIN_PASSES of them, until about
--seconds of request time has been measured.

Every reported time is a wall time scaled to a reference host speed by
hostspeed.py, which times a fixed kernel between requests; the unscaled
figures are printed too. Latency statistics are taken over the
per-request medians across passes.

Every output of the first pass is checked, outside the timed region,
against reference.py, which does not import circorbits; later passes
must reproduce the first pass byte for byte. A request fails when it
exits non-zero or its output disagrees. It is also wrong, and makes
`correct` false, unless it is a refusal the reference expects: exit 2 on
an answer past CPython's int/str digit limit. The end-to-end ok_ratio is
1 - fail_ratio, so that it is never 0; fail_ratio is printed with its
base.

--trace 0 reports the end-to-end metrics. --trace 1 follows the first
pass with alternating traced and untraced passes and reports the
per-layer metrics of tracer.py, per pass, with the traced/untraced time
ratio. The spans of the first traced pass are written to bench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Without src/circorbits in the checkout
the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import reference
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# p90 is reported only with at least ten samples beyond it.
MIN_REQUESTS = 100
MIN_PASSES = 3
SETUP_REPEATS = 21
# Longest stretch of request time between two host-speed probes.
PROBE_EVERY_S = 0.05
# Stop starting passes past this much wall time, to exit within 180 s.
WALL_CAP_S = 120.0

# A fresh interpreter times its own import of circorbits.cli and
# generation of the request list between two host-speed probes, and
# prints the scaled seconds. Interpreter start-up is left out: its
# fork/exec and site-import noise is not the program's.
SETUP_PROBE = (
    "import sys, time, hostspeed; scale = hostspeed.Scale('interpreter'); "
    "probe = scale.probe(); start = time.perf_counter(); "
    "import circorbits.cli, workloads; workloads.generate(sys.argv[1], int(sys.argv[2])); "
    "seconds = time.perf_counter() - start; scale.probe(); "
    "print(seconds * scale.factor(probe))"
)


def load_cli():
    """circorbits.cli from this checkout's src/, never from elsewhere on the path."""
    if not (SRC / "circorbits" / "__init__.py").is_file():
        sys.exit(f"error: no circorbits package under {SRC}")
    sys.path.insert(0, str(SRC))
    from circorbits import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"error: circorbits imported from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    if rc == -1:
        print(f"crash in {' '.join(argv)}:\n{err.getvalue()}", file=sys.stderr)
    return rc, out.getvalue(), seconds


class Run:
    """Outcomes and timings of the passes of one run."""

    def __init__(self, specs: list[dict], probe: str) -> None:
        self.specs = specs
        self.argvs = [workloads.argv(s) for s in specs]
        # Per request, from the first pass: (exit code, sha256 of stdout, error).
        self.first: list = [None] * len(specs)
        self.stdout_hash = hashlib.sha256()
        self.attempted = self.failed = self.wrong = 0
        self.refused_first_pass = 0
        self.out_bytes = self.out_digits_max = 0
        # Per request, untraced wall times scaled to the reference host speed.
        self.latencies: list[list[float]] = [[] for _ in specs]
        self.raw_latencies: list[list[float]] = [[] for _ in specs]
        self.scale = hostspeed.Scale(probe)
        # Scaled request time of each pass, keyed by whether it was traced.
        self.pass_seconds = {False: [], True: []}
        self.pass_factors: list[float] = []
        self.layers: list[dict] = []
        self.spans: list | None = None

    def record(self, i: int, rc: int, out: str) -> None:
        digest = hashlib.sha256(out.encode()).digest()
        if self.first[i] is None:
            if rc == 0:
                error = reference.check(self.specs[i], out)
            elif rc == 2 and reference.refusal_expected(self.specs[i]):
                error = None
            else:
                error = f"exit code {rc}"
            self.first[i] = (rc, digest, error)
            self.stdout_hash.update(out.encode())
            self.out_bytes += len(out.encode())
            self.out_digits_max = max([self.out_digits_max]
                                      + [len(m) for m in re.findall(r"\d+", out)])
            self.refused_first_pass += rc != 0
            if error:
                print(f"wrong output for {' '.join(self.argvs[i])}: {error}", file=sys.stderr)
        else:
            first_rc, first_digest, error = self.first[i]
            if (rc, digest) != (first_rc, first_digest) and not error:
                error = f"exit code {rc} or output differs from the first pass"
                self.first[i] = (first_rc, first_digest, error)
                print(f"wrong output for {' '.join(self.argvs[i])}: {error}", file=sys.stderr)
        error = self.first[i][2]
        self.attempted += 1
        self.failed += rc != 0 or error is not None
        self.wrong += error is not None

    def one_pass(self, cli, trace: tracer.Tracer | None) -> float:
        timed = []
        since_probe = PROBE_EVERY_S
        for i, argv in enumerate(self.argvs):
            if since_probe >= PROBE_EVERY_S:
                probe, since_probe = self.scale.probe(), 0.0
            if trace is not None:
                trace.request = i
            rc, out, seconds = call(cli, argv)
            self.record(i, rc, out)
            timed.append((i, seconds, probe))
            since_probe += seconds
        self.scale.probe()
        raw = scaled = 0.0
        for i, seconds, probe in timed:
            raw += seconds
            scaled += seconds * self.scale.factor(probe)
            if trace is None:
                self.raw_latencies[i].append(seconds)
                self.latencies[i].append(seconds * self.scale.factor(probe))
        self.pass_seconds[trace is not None].append(scaled)
        self.pass_factors.append(scaled / raw)
        return raw

    def measure(self, cli, seconds: float, traced: bool) -> None:
        """Whole passes until about `seconds` of unscaled request time.

        After the first pass, whose outputs are checked, traced runs
        alternate traced and untraced passes and stop after an untraced one.
        """
        started = time.monotonic()
        passes: list[float] = []
        while True:
            if traced and len(passes) % 2:
                trace = tracer.Tracer()
                with trace:
                    passes.append(self.one_pass(cli, trace))
                spans, counts = trace.take()
                layers = tracer.layer_metrics(spans, counts)
                for key, (value, unit) in layers.items():
                    if unit == "s":
                        layers[key] = (value * self.pass_factors[-1], unit)
                self.layers.append(layers)
                if self.spans is None:
                    self.spans = spans
            else:
                passes.append(self.one_pass(cli, None))
            if traced:
                step = passes[-2] + passes[-1] if len(passes) % 2 and len(passes) > 1 else None
            else:
                step = passes[-1] if len(passes) >= MIN_PASSES else None
            # Stop where the run comes closest to `seconds` of request time.
            if (step is not None and sum(passes) + step / 2 >= seconds) or \
                    time.monotonic() - started > WALL_CAP_S:
                return


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the scaled time to import circorbits.cli and generate."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def latency_stats(per_request: list[list[float]]) -> tuple[float, float, float]:
    """(requests per second, p50 s, p90 s) over the per-request medians."""
    if len(per_request) < MIN_REQUESTS:
        raise ValueError(f"p90 needs {MIN_REQUESTS} requests per pass, got {len(per_request)}")
    latencies = [statistics.median(samples) for samples in per_request]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return len(latencies) / sum(latencies), deciles[4], deciles[8]


def end_to_end(run: Run, setup_s: float, peak_rss_kb: int) -> dict:
    rate, p50, p90 = latency_stats(run.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "req_per_s": (rate, "1/s"),
        "req_p50_ms": (p50 * 1e3, "ms"),
        "req_p90_ms": (p90 * 1e3, "ms"),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer(run: Run) -> dict:
    """Per-pass layer metrics: counts from the first traced pass, times as medians."""
    out = dict(run.layers[0])
    for key, (_, unit) in out.items():
        if unit == "s":
            out[key] = (statistics.median(layer[key][0] for layer in run.layers), unit)
    out["cli.out_bytes"] = (run.out_bytes, "B")
    out["cli.out_digits_max"] = (run.out_digits_max, "digit")
    # The first pass also ran the output checks between requests, so it is left out.
    untraced = run.pass_seconds[False][1:]
    ratio = statistics.median(run.pass_seconds[True]) / statistics.median(untraced)
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out


def write_spans(run: Run, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as f:
        f.write(json.dumps({"fields": ["request", "parent", "name", "start_ns", "end_ns"],
                            "names": list(tracer.TARGETS)}) + "\n")
        for span in run.spans:
            f.write(json.dumps(span) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    specs = workloads.generate(args.workload, args.seed)
    run = Run(specs, workloads.WORKLOADS[args.workload].probe)
    run.measure(cli, args.seconds, traced=bool(args.trace))
    if args.trace:
        metrics = per_layer(run)
        print(f"spans of the first traced pass: {write_spans(run, args.workload, args.seed)}")
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_s = setup_seconds(args.workload, args.seed)
        metrics = end_to_end(run, setup_s, peak_rss_kb)

    passes = len(run.pass_seconds[False]) + len(run.pass_seconds[True])
    print(f"{args.workload} seed {args.seed}: {passes} passes of {len(specs)} requests, "
          f"{len(run.pass_seconds[False])} untraced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<44} {run.failed / run.attempted:>14.6g} ratio "
          f"({run.failed} failed of {run.attempted} attempted; "
          f"{run.refused_first_pass} of {len(specs)} exit non-zero in the first pass)")
    print(f"  {'stdout_sha256':<44} {run.stdout_hash.hexdigest()}")
    factors = statistics.median(run.pass_factors)
    print(f"  times are scaled to the reference host speed; median scale {factors:.4g}")
    if not args.trace:
        rate, p50, p90 = latency_stats(run.raw_latencies)
        print(f"  unscaled wall clock: {rate:.6g} req/s, p50 {p50 * 1e3:.6g} ms, "
              f"p90 {p90 * 1e3:.6g} ms")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
