"""sugra11 benchmark: manifest in, verdicts out, through the real CLI.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every request is one ``python -m sugra11 --manifest ...``
child process, sent by a closed loop with one client (one request in
flight).  Requests go in rounds (one round is the workload's request set
for that seed).  A run sends whole rounds, at least one, and starts
another only while one more round as long as the last would end within
``--seconds`` of request time.  Each output is checked against a known
answer (see workloads.py).

With ``--trace 1`` the same first round runs in this process through
``sugra11.cli.main``, untraced and traced (tracer.py) in turn, by the same
rule.  It reports per-layer self times and counts per
round, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFESTS = ROOT / "manifests"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 50
perf = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_round(reqs, work: Path, round_no: int):
    """Manifest path per request: the shipped file, or a generated one."""
    paths = []
    for i, req in enumerate(reqs):
        if req.doc is None:
            paths.append(req.shipped)
        else:
            path = work / f"r{round_no}-{i}-{req.label.replace('@', '-')}.json"
            path.write_text(json.dumps(req.doc))
            paths.append(path)
    return paths


def cli_args(req, path: Path):
    return ["--manifest", str(path), *req.args]


# ---------------------------------------------------------------------------
# end to end: one child process per request
# ---------------------------------------------------------------------------

def run_child(cmd, env, stderr_path: Path):
    """(exit code, stdout, wall seconds, peak RSS in MiB) of one child process."""
    with open(stderr_path, "wb") as err:
        t0 = perf()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss / 1024.0


def setup_times(env, work: Path, count: int):
    """Wall times of fresh interpreters that import sugra11.cli and exit."""
    cmd = [sys.executable, "-c", "import sugra11.cli"]
    times = []
    for _ in range(count):
        code, _, wall, _ = run_child(cmd, env, work / "setup.err")
        if code != 0:
            raise RuntimeError("importing sugra11.cli failed: " + (work / "setup.err").read_text())
        times.append(wall)
    return times


def tail(samples):
    """(value, percentile, count): the highest percentile with ten samples beyond it.

    With 20 samples or fewer that percentile is not above the median, so the
    maximum is reported instead and the percentile reads 100.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 20:
        return s[-1], 100.0, n
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n


def end_to_end(name: str, seed: int, seconds: float, work: Path):
    env = child_env()
    setup_times(env, work, 1)  # the first interpreter may write bytecode caches: not counted
    setup = []
    rng = random.Random(f"{name}:{seed}")
    times, rss, problems = [], [], []
    attempted = failed = backgrounds = rounds = 0
    elapsed = last = 0.0
    while rounds == 0 or elapsed + last <= seconds:
        reqs = workloads.ROUNDS[name](MANIFESTS, rng)
        paths = write_round(reqs, work, rounds)
        t_round = perf()
        probing = 0.0
        for req, path in zip(reqs, paths):
            cmd = [sys.executable, "-m", "sugra11", *cli_args(req, path)]
            code, out, wall, peak = run_child(cmd, env, work / "request.err")
            attempted += 1
            times.append(wall)
            rss.append(peak)
            diff = workloads.mismatches(req, code, out)
            if diff:
                failed += 1
                problems.append(f"{req.label}: {diff[0]}")
            else:
                backgrounds += req.backgrounds
            # set-up probes are spread over the run in proportion to request time,
            # so their median sees the same machine speed as the requests
            done = elapsed + perf() - t_round - probing
            due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * done / seconds))
            t_probe = perf()
            setup += setup_times(env, work, due - len(setup))
            probing += perf() - t_probe
        last = perf() - t_round - probing
        elapsed += last
        rounds += 1
    setup += setup_times(env, work, SETUP_PROBES - len(setup))
    value, pct, n = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verify_s_p50": (statistics.median(times), "s"),
        "verify_s_tail": (value, "s"),
        "backgrounds_per_s": (backgrounds / elapsed, "1/s"),
        "peak_rss_mb": (max(rss), "MiB"),
    }
    print(f"workload {name}  seed {seed}  rounds {rounds}  requests {attempted}  "
          f"request time {elapsed:.2f} s  (closed loop, 1 client)")
    for key, (v, unit) in metrics.items():
        print(f"  {key:<20} {v:>12.6f} {unit}")
    print(f"  {'verify_s_tail is':<20} p{pct:.1f} of {n} samples")
    print(f"  {'failed_ratio':<20} {failed / attempted:>12.6f} ({failed} of {attempted})")
    for p in problems[:10]:
        print(f"  MISMATCH {p}")
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# per layer: the same requests in this process, traced
# ---------------------------------------------------------------------------

def run_in_process(cli, req, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(cli_args(req, path))
    return code, out.getvalue()


def counters(totals) -> dict:
    calls = totals["calls"]
    return {
        "metric.poly_det_calls": calls["metric.poly_det"],
        "metric.poly_det_distinct": totals["minors_distinct"],
        "metric.hodge_star_calls": calls["metric.hodge_star"],
        "metric.inner_product_calls": calls["metric.inner_product"],
        "polyring.mul_calls": totals["poly_calls"]["mul"],
        "polyring.add_calls": totals["poly_calls"]["add"],
        "polyring.mul_terms_out": totals["mul_terms"],
        "curvature.ricci_calls": calls["curvature.ricci"],
        "exterior.wedge_calls": calls["exterior.wedge"],
        "fieldeqs.einstein_matrix_calls": calls["fieldeqs.einstein_matrix"],
        "report.residual_terms": totals["residual_terms"],
    }


def self_times(totals) -> dict:
    t = totals["self"]
    return {
        "metric.poly_det_s": t["metric.poly_det"],
        "metric.hodge_star_s": t["metric.hodge_star"],
        "metric.inner_product_s": t["metric.inner_product"],
        "metric.make_metric_s": t["metric.make_metric"],
        "polyring.self_s": totals["poly_s"],
        "curvature.ricci_s": t["curvature.ricci"],
        "curvature.hess_lap_s": t["curvature.hess_lap"],
        "exterior.self_s": t["exterior.wedge"] + t["exterior.other"],
        "product.build_s": t["product.build"],
        "manifest.parse_s": t["manifest.parse"],
        "fieldeqs.closedness_s": t["fieldeqs.closedness"],
        "fieldeqs.maxwell_s": t["fieldeqs.maxwell"],
        "fieldeqs.einstein_s": t["fieldeqs.einstein"] + t["fieldeqs.einstein_matrix"],
        "fieldeqs.split_s": t["fieldeqs.split"],
        "fieldeqs.audit_s": t["fieldeqs.audit"],
        "cases.case_s": t["cases.case"],
        "cli.render_s": t["cli.render"],
        "cli.eval_s": t["cli.eval"],
    }


def traced(name: str, seed: int, seconds: float, work: Path):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sugra11.cli as cli
    from tracer import Tracer

    rng = random.Random(f"{name}:{seed}")
    reqs = workloads.ROUNDS[name](MANIFESTS, rng)
    paths = write_round(reqs, work, 0)
    attempted = failed = 0
    problems = []

    def send_round(tracer=None):
        nonlocal attempted, failed
        t0 = perf()
        for i, (req, path) in enumerate(zip(reqs, paths)):
            if tracer:
                tracer.begin_request(i, req.label)
            code, out = run_in_process(cli, req, path)
            if tracer:
                tracer.end_request()
            attempted += 1
            diff = workloads.mismatches(req, code, out)
            if diff:
                failed += 1
                problems.append(f"{req.label}: {diff[0]}")
        return perf() - t0

    # untraced and traced rounds alternate, so both see the same machine speed
    tracer = Tracer()
    rounds, untraced_s, traced_s, last, first = 0, 0.0, 0.0, 0.0, None
    while rounds == 0 or untraced_s + traced_s + last <= seconds:
        before = untraced_s + traced_s
        untraced_s += send_round()
        tracer.install()
        try:
            traced_s += send_round(tracer)
        finally:
            tracer.uninstall()
        last = untraced_s + traced_s - before
        rounds += 1
        if first is None:
            first = counters(tracer.totals())
    totals = tracer.totals()
    counts = counters(totals)
    repeat = all(counts[k] == first[k] * rounds for k in counts)
    values = {k: (v / rounds, "s") for k, v in self_times(totals).items()}
    values.update({k: (v, "count") for k, v in first.items()})
    requested = first["metric.poly_det_calls"]
    values["metric.minor_reuse_ratio"] = (
        first["metric.poly_det_distinct"] / requested if requested else 1.0, "ratio")
    values["trace.round_s"] = (traced_s / rounds, "s")
    overhead = 100.0 * (traced_s / untraced_s - 1.0)
    tracer.write_spans(work / "spans.jsonl")

    print(f"workload {name}  seed {seed}  traced rounds {rounds}  requests per round {len(reqs)}")
    print(f"  untraced round {untraced_s / rounds:.3f} s, traced round {traced_s / rounds:.3f} s "
          f"(tracing overhead {overhead:.1f} %)")
    print(f"  counters identical in every round: {'yes' if repeat else 'NO'}")
    layers = {k: v for k, (v, unit) in values.items()
              if unit == "s" and k not in ("polyring.self_s", "trace.round_s")}
    print("  layer self CPU time per round (disjoint buckets):")
    for key, v in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {key:<28} {v:>10.4f} s")
    print(f"  cross-cutting, inside the buckets above: polyring.self_s "
          f"{values['polyring.self_s'][0]:.4f} s (see tracer.py)")
    print("  per-layer counts per round:")
    for key, (v, unit) in values.items():
        if unit != "s":
            print(f"    {key:<28} {v:>10g} {unit}")
    print("  inclusive CPU seconds per request (Ricci runs inside einstein; '/poly_det' is the"
          " determinant time inside that check):")
    for label, cols in tracer.check_profile().items():
        print(f"    {label}: " + ", ".join(f"{k} {v / rounds:.3f}" for k, v in cols.items()))
    print(f"  spans written to {work / 'spans.jsonl'}")
    for p in problems[:10]:
        print(f"  MISMATCH {p}")
    return attempted, failed, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = [p for p in (SRC / "sugra11" / "cli.py", MANIFESTS / "solution1.json") if not p.is_file()]
    if missing:
        print(f"error: the sugra11 sources are not here ({missing[0]} is missing)", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = traced if args.trace else end_to_end
    attempted, failed, metrics = run(args.workload, args.seed, args.seconds, work)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
