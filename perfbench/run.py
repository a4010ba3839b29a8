"""Benchmark of the beltrami CLI: seeded workloads, a correctness gate, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from src/).
Workloads and metrics are listed in BENCHMARK.json; perfbench/README.md says
what each measures.  One run:

1. builds the workload's CLI configs from the seed (under .perfbench_out/);
2. untimed: computes every row's independent reference, makes the
   single-input probe calls, and compares `field sample` / `twistor eval`
   bytes under BELTRAMI_THREADS=1 and 2;
3. times set-up in fresh interpreters and the passes in one worker process
   (perfbench/worker.py), BELTRAMI_THREADS and BLAS/OpenMP threads pinned to 1,
   each against a calibration loop timed in the same process;
4. gates every output row and prints the metrics; the last stdout line is the
   result JSON.  With --trace 1 the metrics are the per-layer ones.
"""

import os

PINNED_THREADS = {"BELTRAMI_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5          # fresh interpreters per run; setup_s is their median
# Calibration-loop time on a 2-core Xeon VM (Python 3.11, numpy 2.4, OpenBLAS
# 0.3.31) when its host was quiet.  setup_s is reported at that speed:
# raw set-up time x CAL_NOMINAL_S / calibration time in the same process.
CAL_NOMINAL_S = 0.014
RUN_LIMIT_S = 175.0     # a worker still running this long after start is killed
T_START = time.monotonic()
LIMITS = ("Only this process tree's wall time, CPU time and peak RSS are measured: "
          "no system-wide profiler or hardware counters are available, so there is "
          "no roofline. harmonics.synth_macs is computed from argument shapes as "
          "points x (L+1)(2L+2) x ncomp complex multiply-adds, not measured.")


def _fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def machine() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": PINNED_THREADS, "limits": LIMITS}


def spawn_worker(plan: dict, outdir: str, tag: str) -> dict:
    plan_path = os.path.join(outdir, f"plan-{tag}.json")
    result_path = os.path.join(outdir, f"worker-{tag}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    left = RUN_LIMIT_S - (time.monotonic() - T_START)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path,
                               result_path], env=dict(os.environ, PYTHONPATH="src"),
                              timeout=max(left, 1.0), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {tag} still running {RUN_LIMIT_S:g} s after start")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def probe_outcome(p, code, text, gate) -> tuple:
    """(outcome, cause, name) of one probe call."""
    if code == 2:
        return ("refused", None, p.name)
    if code == "raise":
        error = text.strip().splitlines()[-1].split(":")[0]
        if p.known and p.known.raises and error.endswith(p.known.raises):
            return ("failed", p.known.cause, p.name)
        return ("failed", f"{p.name}: traceback {error}", p.name)
    if code != 0:
        return ("failed", f"{p.name}: exit {code}", p.name)
    if p.reference is None:
        return ("failed", f"{p.name}: printed a value where the transform diverges", p.name)
    with open(p.output, "rb") as fh:
        rows = gate.gate_csv(p.name, fh.read(), p.inputs, p.reference(), p.tol, p.known)
    bad = [r for r in rows if not r.ok]
    return ("failed", bad[0].cause, p.name) if bad else ("ok", None, p.name)


def untimed_checks(wl, outdir, run_cli, gate) -> dict:
    """Probe calls, thread-count byte comparisons and check-suite reruns."""
    probes = [probe_outcome(p, *run_cli(p.argv), gate) for p in wl.probes]

    threads = {}
    for c in wl.commands:
        if not c.threads_probe:
            continue
        outs = []
        for n in ("1", "2"):
            path = os.path.join(outdir, "out", f"{c.name}.threads{n}")
            os.environ["BELTRAMI_THREADS"] = n
            try:
                run_cli(c.argv + ["--set", f"output={path}"])
            finally:
                os.environ["BELTRAMI_THREADS"] = "1"
            with open(path, "rb") as fh:
                outs.append(fh.read())
        threads[c.name] = outs

    suites = {}
    for c in wl.commands:
        for suite in c.check_suites:
            path = os.path.join(outdir, "out", f"check-{suite}.json")
            run_cli(["check", suite, c.argv[-1], "--set", f"output={path}"])
            suites.update(gate.gate_check_report(path)[1])
    return {"probes": probes, "threads": threads, "suites": suites}


def gate_workload(wl, refs, known_refs, untimed, res, gate, changed_rows) -> dict:
    """Rows of each timed command, each a gate.Row."""
    rows = {}
    for c in wl.commands:
        st = res["status"].get(c.name)
        if c.argv[0] == "check":
            if st is None:
                crows, by_name = gate.gate_check_report(c.output)
            else:
                crows, by_name = [gate.Row(False, None, f"check exited {st['code']}")], {}
            for name, entry in untimed["suites"].items():
                if name in by_name and by_name[name] != entry:
                    i = list(by_name).index(name)
                    crows[i] = gate.Row(False, crows[i].rel, "bytes changed between runs")
            rows[c.name] = crows
            continue
        with open(c.output, "rb") as fh:
            data = fh.read()
        if st is not None:
            crows = [gate.Row(False, None, f"command ended with {st['code']}")
                     for _ in c.inputs]
        else:
            crows = gate.gate_csv(c.name, data, c.inputs, refs[c.name], c.tol, c.known,
                                  known_refs.get(c.name))
        marks = {i: "bytes changed between runs" for i in res["changed_rows"][c.name]}
        if c.name in untimed["threads"]:
            one, two = untimed["threads"][c.name]
            for i in changed_rows(one, two):
                marks[i] = c.threads_known or "bytes depend on BELTRAMI_THREADS"
            for i in changed_rows(one, data):   # another process, same thread count
                marks[i] = "bytes changed between runs"
        for i, cause in marks.items():
            if not 1 <= i <= len(crows):        # line 0 is the header
                continue
            row = crows[i - 1]
            if row.ok or (c.known and row.cause == c.known.cause):  # else keep its cause
                crows[i - 1] = gate.Row(False, row.rel, cause)
        rows[c.name] = crows
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "beltrami", "cli.py")):
        return _fail("src/beltrami not found: run from the root of a beltrami checkout")
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        return _fail(f"cannot read BENCHMARK.json: {e}")
    sys.path[:0] = [os.path.abspath("src"), HERE]
    import gate
    import workloads
    from layers import LAYERS
    from worker import changed_rows, run_cli

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    outdir = os.path.join(".perfbench_out", args.workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)

    wl = workloads.build(args.workload, args.seed, outdir)
    refs = {c.name: c.reference() for c in wl.commands if c.reference is not None}
    known_refs = {c.name: c.known.reference() for c in wl.commands
                  if c.known is not None and c.known.reference is not None}
    untimed = untimed_checks(wl, outdir, run_cli, gate)

    plan = {"commands": [{"name": c.name, "argv": c.argv, "output": c.output}
                         for c in wl.commands],
            "warmup": wl.warmup, "seconds": args.seconds, "trace": bool(args.trace),
            "setup_only": True, "spans_path": os.path.join(outdir, "spans.txt")}
    try:
        setups = [spawn_worker(plan, outdir, f"setup{i}") for i in range(SETUP_RUNS - 1)]
        res = spawn_worker(dict(plan, setup_only=False), outdir, "timed")
    except RuntimeError as e:
        return _fail(str(e))
    setups.append(res)
    setup_raw = [r["setup_s"] for r in setups]
    setup_scaled = [r["setup_s"] * CAL_NOMINAL_S / r["setup_cal"] for r in setups]

    by_cmd = gate_workload(wl, refs, known_refs, untimed, res, gate, changed_rows)
    rows = [r for crows in by_cmd.values() for r in crows]
    worst_rel = {name: max((r.rel for r in crows if r.rel is not None), default=None)
                 for name, crows in by_cmd.items()}
    probes = untimed["probes"]
    causes: dict = {}
    for r in rows:
        if not r.ok:
            causes[r.cause] = causes.get(r.cause, 0) + 1
    for outcome, cause, _ in probes:
        if outcome == "failed":
            causes[cause] = causes.get(cause, 0) + 1
    attempted = len(rows) + len(probes)
    failed = sum(causes.values())
    refused = sum(1 for o, _, _ in probes if o == "refused")
    unexplained = {k: v for k, v in causes.items() if k not in workloads.KNOWN}
    correct = not unexplained

    walls = [p["wall"] for p in res["passes"]]
    metric_times = {}
    for c in wl.commands:
        metric_times.setdefault(c.metric, []).append(c.name)
    per_cmd = {m: statistics.median(sum(p["times"][n] for n in names) for p in res["passes"])
               for m, names in metric_times.items()}
    digit_vals = [r.digits for r in rows if r.digits is not None]
    values = {
        "wall_cal": statistics.median(p["wall"] / p["cal"] for p in res["passes"]),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": res["peak_rss_mb"],
        "digits_median": statistics.median(digit_vals) if digit_vals else 0.0,
    }
    if args.trace:
        traced = res["traced_passes"]
        layers = dict(res["layers"])
        t_wall = statistics.fmean(p["wall"] for p in traced)
        self_sum = sum(layers[f"{name}_s"] for name in LAYERS)
        layers.update({
            "cli.rows": statistics.fmean(p["rows"] for p in traced),
            "trace.wall_s": t_wall,
            "trace.untraced_wall_s": statistics.median(walls),
            "trace.overhead_s": t_wall - statistics.median(walls),
            "trace.unaccounted_s": t_wall - self_sum,
        })
        values = dict({m: per_cmd.get(m, 0.0) for m in workloads.COMMAND_METRICS}, **layers)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine(), "passes": len(walls), "setup_raw_s": setup_raw,
              "cal_s": statistics.median(p["cal"] for p in res["passes"]),
              "per_command_s": per_cmd, "worst_rel_error": worst_rel,
              "attempted": attempted, "failed": failed,
              "refused": refused, "failed_frac": failed / attempted,
              "failed_by_cause": causes, "known_causes": workloads.KNOWN,
              "tolerances": workloads.TOL, "metrics": metrics}
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"machine: {json.dumps(report['machine'])}")
    print(f"{args.workload} seed={args.seed}: {len(walls)} passes, median pass "
          f"{statistics.median(walls):.4f} s, raw set-up {statistics.median(setup_raw):.4f} s, "
          f"rows={attempted} "
          f"failed={failed} refused={refused} failed_frac={failed / attempted:.4f}")
    for cause, n in sorted(causes.items(), key=lambda kv: -kv[1]):
        print(f"  failed {n:5d}  {cause}: {workloads.KNOWN.get(cause, 'UNEXPLAINED')}")
    for m, t in sorted(per_cmd.items()):
        print(f"  {m:28s} {t:.6f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
