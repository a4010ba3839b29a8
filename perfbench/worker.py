"""Timed worker: one fresh interpreter that runs a workload's CLI calls in-process.

    python3 perfbench/worker.py PLAN.json RESULT.json

PLAN.json (written by run.py) names the calls, the warm-up calls, the time
budget and whether to trace.  The worker times its own set-up (imports, config
load, warm-up calls that build lazy state), then repeats passes over the calls
until the budget is spent, timing each call from outside.  After every pass
(outside the timed region) it compares each output file with the first pass
and records the rows whose bytes changed.  In traced mode the first half of the
budget runs untraced and the second half traced (see layers.py).
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.abspath("src"))

import beltrami.cli as cli  # noqa: E402

CAL_EVERY = 0.25    # seconds of CLI calls between calibration samples in a pass
LONG_CALL = 1.0     # a call running longer is sampled from inside, once a second
SETUP_CAL_SAMPLES = 5  # calibration samples right after set-up; their median scales it


def run_cli(argv: list[str]) -> tuple[object, str]:
    """(exit code or "raise", captured stdout) of one in-process CLI call."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a traceback: recorded and gated as failed rows
        return "raise", traceback.format_exc()
    return code, buf.getvalue()


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


class Calibration:
    """A fixed loop that mixes interpreter work, numpy ufuncs, BLAS and streaming
    over an 8 MB array (larger than L2), timed as a yardstick of machine speed.

    The machine's speed drifts by tens of percent over minutes (other tenants on
    the host), and the drift slows this loop and the CLI alike, so each pass is
    also reported as a ratio to this loop timed during that pass.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.a = np.linspace(0.0, 1.0, 4096)
        self.m = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)
        self.big = np.ones(1 << 19, dtype=complex)

    def __call__(self) -> float:
        np, a, m, big = self.np, self.a, self.m, self.big
        c0 = time.perf_counter()
        acc = 0.0
        for i in range(150):
            acc += float(np.sin(a * (i + 1)).sum()) + (i % 7) * 0.5
            acc += float((m @ m[:, i % 96]).sum())
        for _ in range(8):
            big *= 0.5
            big += 0.5
        return time.perf_counter() - c0


class Sampler:
    """Takes calibration samples inside a CLI call that runs longer than LONG_CALL.

    SIGALRM runs the handler in the main thread between bytecodes; `spent` is
    the time the handler took, which the caller subtracts from the call it
    interrupted.  Shorter calls are not interrupted; the samples taken between
    calls cover them.
    """

    def __init__(self, calibrate: Calibration):
        self.calibrate = calibrate
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.calibrate())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, LONG_CALL, LONG_CALL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def changed_rows(a: bytes, b: bytes) -> list[int]:
    """Indices of the lines that differ between two outputs (0 is the header)."""
    la, lb = a.split(b"\n"), b.split(b"\n")
    n = max(len(la), len(lb))
    la += [None] * (n - len(la))
    lb += [None] * (n - len(lb))
    return [i for i, (x, y) in enumerate(zip(la, lb)) if x != y]


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    for cmd in plan["commands"]:       # config load
        with open(cmd["argv"][-1], encoding="utf-8") as fh:
            json.load(fh)
    for argv in plan["warmup"]:
        code, text = run_cli(argv)
        if code != 0:
            sys.stderr.write(f"warm-up {argv} failed: {code}\n{text}")
            return 3
    setup_s = time.perf_counter() - T_START
    calibrate = Calibration()
    cal = sorted(calibrate() for _ in range(SETUP_CAL_SAMPLES))[SETUP_CAL_SAMPLES // 2]
    result = {"setup_s": setup_s, "setup_cal": cal}
    if plan["setup_only"]:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    commands = plan["commands"]
    first_out: dict[str, bytes] = {}
    changed: dict[str, set] = {c["name"]: set() for c in commands}
    status: dict[str, object] = {}

    sampler = Sampler(calibrate)

    def run_pass(sampling: bool = True) -> dict:
        sampler.samples = [calibrate()]
        times = {}
        t_cal = time.perf_counter()
        for cmd in commands:
            c0, spent0 = time.perf_counter(), sampler.spent
            with sampler if sampling else contextlib.nullcontext():
                code, text = run_cli(cmd["argv"])
            times[cmd["name"]] = time.perf_counter() - c0 - (sampler.spent - spent0)
            if code != 0 and cmd["name"] not in status:
                status[cmd["name"]] = {"code": code, "text": text[-4000:]}
            if sampling and time.perf_counter() - t_cal >= CAL_EVERY:
                sampler.samples.append(calibrate())
                t_cal = time.perf_counter()
        sampler.samples.append(calibrate())
        wall = sum(times.values())
        cal = sum(sampler.samples) / len(sampler.samples)
        rows = 0
        for cmd in commands:
            data = _read(cmd["output"])
            if cmd["output"].endswith(".json"):     # a check report
                rows += len(json.loads(data)["checks"]) if data else 0
            else:
                rows += max(0, data.count(b"\n") - 1)
            if cmd["name"] not in first_out:
                first_out[cmd["name"]] = data
            elif data != first_out[cmd["name"]]:
                changed[cmd["name"]].update(changed_rows(first_out[cmd["name"]], data))
        return {"wall": wall, "cal": cal, "times": times, "rows": rows}

    def repeat(until: float, out: list[dict], sampling: bool = True) -> list[dict]:
        """Passes appended to out until `until` seconds from t_begin, at least one."""
        while not out or time.perf_counter() - t_begin < until:
            out.append(run_pass(sampling))
        return out

    budget = float(plan["seconds"])
    t_begin = time.perf_counter()
    # The first full-size pass also grows the heap and faults in pages; it is a
    # warm-up, dropped when at least four passes fit in the budget.
    warm = run_pass()
    passes = repeat(budget / 2 if plan["trace"] else budget,
                    [] if warm["wall"] < budget / 4 else [warm])
    tracer = None
    if plan["trace"]:
        from layers import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
        traced = repeat(budget, [], sampling=False)   # keep samples out of the spans

    result.update({
        "passes": passes,
        "status": status,
        "changed_rows": {k: sorted(v) for k, v in changed.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        from layers import layer_metrics
        result["traced_passes"] = traced
        result["layers"] = layer_metrics(tracer, len(traced))
        tracer.dump(plan["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
