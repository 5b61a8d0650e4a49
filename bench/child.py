"""One verification batch in a fresh interpreter: the unit the benchmark times.

    python3 bench/child.py RESULT_JSON MODE BUDGET_S [REPMODULI CLI ARGS...]

MODE is `setup` (import only), `verify` (one `cli.main` call) or `trace`
(the same call with per-layer spans).  Set-up ends once `repmoduli.cli` is
imported; the child writes that instant, on the system-wide monotonic clock,
to RESULT_JSON together with the batch's timings and peak resident set.
A batch still running BUDGET_S seconds after set-up is stopped and written
as timed out, with exit code 1 and the time and spans it reached.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import repmoduli.cli as cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402


class BatchTimeout(BaseException):
    """Raised by the budget alarm; a BaseException, so that the CLI's
    per-check `except Exception` does not turn it into one failing record."""


def _timeout(signum, frame):
    raise BatchTimeout


def main(result_path, mode, budget_s, argv):
    result = {"ready": READY, "mode": mode, "timed_out": False}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        signal.signal(signal.SIGALRM, _timeout)
        signal.setitimer(signal.ITIMER_REAL, max(budget_s, 0.001))
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:             # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
        except BatchTimeout:
            rc, result["timed_out"] = 1, True
        except Exception:                   # noqa: BLE001 - any crash fails
            rc = 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        verify_s = time.perf_counter() - t0
        result.update(rc=rc, verify_s=verify_s,
                      cpu_s=time.process_time() - cpu0)
        if tracer is not None:
            result["layers"] = tracer.metrics(verify_s)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = peak_kb / 1024
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4:])
