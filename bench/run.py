"""Benchmark of repmoduli verification batches.

    python3 bench/run.py --workload sz-exact --seed 0 --seconds 36 --trace 0

Each batch runs `repmoduli.cli.main` once in a fresh interpreter (see
bench/child.py), single-threaded and one batch at a time: a closed loop with
one client.  Like a real CLI run, every batch pays its table builds and group
enumerations again.  A run repeats the batch for about `--seconds`, checks
every report against the pinned reference in bench/reference/, and prints as
its last line one JSON object with the keys correct, attempted, failed and
metrics.  `--workload` takes a comma-separated list; with more than one name
the metric names in that line are prefixed by the workload.

--trace 0 reports the end-to-end metrics, as medians over the run's samples:
  setup_s      interpreter start plus `import repmoduli.cli`
  verify_s     the `cli.main(argv)` call, from config parsing to report written
  peak_rss_mb  peak resident set of the batch process
--trace 1 runs each batch untraced and then traced (bench/spans.py) and
reports per-layer self times and exact counters instead, with
trace.overhead_s, the traced minus the untraced verify_s.

The lines before the last give a summary: every metric with its unit and
sample count, records_failed (records missing, failing or differing from the
reference, over records expected), and the environment of the run.

A batch gets a share of the time left before the run's limit; one that runs
past it is stopped, its records count as failed and the time it reached is
its sample, so that a large slowdown still gives a figure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = {
    "sz-exact": ["--family", "sz", "--q", "8,32,128"],
    "psl2-enum": ["--family", "psl2", "--q", "4,8,11,19", "--k", "0"],
    "dihedral-sweep": ["--family", "dihedral",
                       "--q", ",".join(str(n) for n in range(3, 100, 2)),
                       "--checks", "tables,centralizers"],
}
END_TO_END_UNITS = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5           # import-only processes per run, besides batches
BLAS_THREADS = "1"
RUN_LIMIT_S = 170           # a run, set-up included, ends within this
MARGIN_S = 5                # per batch, for interpreter start and result


class BenchError(RuntimeError):
    pass


def now():
    """System-wide monotonic clock, comparable with the child's READY."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPMODULI_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(work, deadline, mode, argv=(), share=1.0):
    """One fresh interpreter; returns its result with setup_s and report.

    The batch may use `share` of the time left before `deadline`."""
    result_path = os.path.join(work, "result.json")
    report_path = os.path.join(work, "report.json")
    for path in (result_path, report_path):
        if os.path.exists(path):
            os.remove(path)
    spawned = now()
    budget = max(0.0, share * (deadline - spawned - MARGIN_S))
    cmd = [sys.executable, CHILD, result_path, mode, f"{budget:.3f}", *argv]
    if mode != "setup":
        cmd += ["--out", report_path]
    try:
        subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - spawned), check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} batch did not finish in time") from e
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"{mode} batch wrote no result") from e
    result["setup_s"] = result["ready"] - spawned
    result["report"] = None
    if os.path.exists(report_path):
        with open(report_path) as fh:
            result["report"] = json.load(fh)
    return result


def load_reference(workload):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise BenchError(f"no pinned reference {path}") from e


def failed_records(report, reference, rc):
    """Reference records missing, failing or with another `computed` value,
    plus records the reference lacks; every record if the exit code is not 0."""
    if rc != 0 or report is None:
        return len(reference)
    got = {r["name"]: r for r in report["records"]}
    bad = sum(1 for name, computed in reference.items()
              if name not in got or got[name]["pass"] is not True
              or got[name]["computed"] != computed)
    bad += sum(1 for name in got if name not in reference)
    return min(bad, len(reference))


def _git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None             # an exported checkout carries no history
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         capture_output=True, check=False)
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _steal_s():
    """Seconds of CPU stolen by the hypervisor so far, over all CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _version(dist):
    from importlib import metadata
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment():
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


def measure(workload, seed, seconds, trace):
    """Run the workload's batches for about `seconds`; returns the summary."""
    reference = load_reference(workload)
    argv = WORKLOADS[workload] + ["--seed", str(seed), "--jobs", "1"]
    env = environment()
    steal0 = _steal_s()
    start = now()
    deadline = start + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work:
        run_child(work, deadline, "setup")      # warm the bytecode cache
        setups = [run_child(work, deadline, "setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        batches, t0 = [], now()
        while True:
            if trace:       # the untraced batch leaves the traced one half
                batches.append({
                    "verify": run_child(work, deadline, "verify", argv, 0.5),
                    "trace": run_child(work, deadline, "trace", argv)})
            else:
                batches.append({"verify": run_child(work, deadline, "verify",
                                                    argv)})
            elapsed = now() - t0
            if elapsed * (len(batches) + 1) / len(batches) > seconds:
                break
    if steal0 is not None:
        env["steal_s"] = _steal_s() - steal0
    env["loadavg_end"] = os.getloadavg()

    results = [b[m] for b in batches for m in b]
    failed = sum(failed_records(r["report"], reference, r["rc"])
                 for r in results)
    attempted = len(reference) * len(results)
    untraced = [b["verify"] for b in batches]
    setups += [r["setup_s"] for r in results]
    samples = {
        "setup_s": setups,
        "verify_s": [r["verify_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    metrics = {name: {"value": statistics.median(values),
                      "unit": END_TO_END_UNITS[name]}
               for name, values in samples.items()}
    summary = {
        "workload": workload, "seed": seed, "batches": len(batches),
        "samples": samples,
        "verify_cpu_s": [r["cpu_s"] for r in untraced],
        "records_failed": failed / attempted,
        "records": {"attempted": attempted, "failed": failed},
        "timed_out": sum(r["timed_out"] for r in results),
        "environment": env,
    }
    if trace:
        metrics = layer_metrics(batches)
        summary["absent"] = {name: "no call into this layer on this workload"
                             for name, m in metrics.items() if m["value"] == 0}
    summary["metrics"] = metrics
    return summary, {"correct": failed == 0, "attempted": attempted,
                     "failed": failed, "metrics": metrics}


def layer_metrics(batches):
    """Medians of the traced batches' per-layer metrics, with units."""
    traced = [b["trace"]["layers"] for b in batches]
    out = {}
    for name in traced[0]:
        unit = ("1/s" if name.endswith("_per_s") else
                "s" if name.endswith("_s") else "count")
        out[name] = {"value": statistics.median(t[name] for t in traced),
                     "unit": unit}
    overhead = [b["trace"]["verify_s"] - b["verify"]["verify_s"]
                for b in batches]
    out["trace.overhead_s"] = {"value": statistics.median(overhead),
                               "unit": "s"}
    return out


def print_summary(summary):
    s = summary
    print(f"workload {s['workload']} seed {s['seed']}: {s['batches']} "
          f"batch(es), records_failed {s['records_failed']:.6g} "
          f"({s['records']['failed']} of {s['records']['attempted']}), "
          f"{s['timed_out']} timed out")
    for name, m in s["metrics"].items():
        n = len(s["samples"].get(name, [])) or s["batches"]
        note = s.get("absent", {}).get(name, "")
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:6s} "
              f"median of {n} {note}")
    print(json.dumps({"summary": s}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="comma-separated subset of " + ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workloads = args.workload.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            p.error(f"unknown workload {w!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "repmoduli", "cli.py")):
        print("bench: no repmoduli sources under src/", file=sys.stderr)
        return 2
    try:
        results = []
        for w in workloads:
            summary, line = measure(w, args.seed, args.seconds, args.trace)
            print_summary(summary)
            results.append((w, line))
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{w}/{k}": v for w, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
