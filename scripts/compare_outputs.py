"""Compare what the CLI of two source trees prints and writes, byte for byte.

    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC --seeds 1 2 3

PARENT_SRC and CHANGE_SRC are source trees: a directory holding the `beltrami`
package, or a checkout holding `src/beltrami`.  For each seed, every command and
probe of the closed_form, helical_rays and helical_tomography benchmark workloads
is built with perfbench/workloads.py (read only), and `check all` is run at the
seed CI runs it at (1234) and at every other seed of `--seeds`, so that a change
to a suite shows where it moves that suite's draws.  Each call goes through
`beltrami.cli.main` in both trees, one process per tree, with the BLAS and
OpenMP threads pinned to 1 as the benchmark pins them.  Every difference in
exit code, stdout, stderr or output file is printed, for stdout, stderr and a
file as its first differing line and that line's number; for an output CSV,
with the number of rows whose bytes moved and the largest relative difference
of a row's value columns (the correctness gate's row norm) and that row's line;
for a `check` JSON report, with one line per check whose residual moved,
`name: old -> new`, and a flag where its verdict flips (PASS -> FAIL).
The summary line ends with the largest relative row move over all CSVs,
`largest row move R relative (workload/seed/command, line N)`, where a row
moved.  The exit code is 1 if there is any difference and 0 otherwise.
`--workloads` runs a subset.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
WORKLOADS = ("closed_form", "helical_rays", "helical_tomography", "check_all")
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def source_dir(path: str) -> str:
    """The directory that holds the `beltrami` package of a tree."""
    for cand in (path, os.path.join(path, "src")):
        if os.path.isfile(os.path.join(cand, "beltrami", "cli.py")):
            return os.path.abspath(cand)
    raise SystemExit(f"compare_outputs: no beltrami package under {path}")


def run_tree(src: str, outdir: str, workloads, seeds) -> None:
    """Child process: build the workloads under outdir, run every call with the
    beltrami of src, and write outdir/manifest.json."""
    sys.path[:0] = [src, PERFBENCH]
    import workloads as wls
    from beltrami import cli

    calls = {}
    for name in workloads:
        for seed in seeds if name != "check_all" else seeds[:1]:
            tag = name if name == "check_all" else f"{name}/{seed}"
            wl = wls.build(name, seed, os.path.join(outdir, tag))
            for c in wl.commands + wl.probes:
                calls[f"{tag}/{c.name}"] = (c.argv, c.output)
    if "check_all" in workloads:    # the workload's `check all` runs at CHECK_SEED
        for seed in (s for s in seeds if s != wls.CHECK_SEED):
            w = wls._Writer(os.path.join(outdir, f"check_all/{seed}"))
            cfg, out = w.cfg("check-all", {"seed": seed}, ext="json")
            calls[f"check_all/{seed}/check-all"] = (["check", "all", cfg], out)
    manifest = {}
    for key, (argv, output) in calls.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:
                code = "raise"
                err.write("".join(traceback.format_exception_only(type(e), e)))
        manifest[key] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                         "output": os.path.relpath(output, outdir)}
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def _read(path: str):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _first_difference(a: bytes | None, b: bytes | None) -> str:
    if a is None or b is None:
        return "missing in " + ("both" if a is b else "parent" if a is None else "change")
    la, lb = a.split(b"\n"), b.split(b"\n")
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x[:200]!r} -> {y[:200]!r}"
    return f"{len(la)} -> {len(lb)} lines"


def _row_moves(a: bytes, b: bytes):
    """How many rows moved (differ in their bytes) of how many, and the largest
    relative difference ||b - a|| / ||a|| of a row's value columns (re_*, im_* pairs
    as complex numbers: the row norm of perfbench/gate.py) between two CSVs with one
    header and row count, with that row's line: (moved, rows, largest, line), or
    None for other files."""
    la, lb = a.decode().splitlines(), b.decode().splitlines()
    if len(la) < 2 or la[0] != lb[0] or len(la) != len(lb):
        return None
    cols = [i for i, name in enumerate(la[0].split(",")) if name[:3] in ("re_", "im_")]
    if not cols:
        return None
    try:
        va, vb = (np.array([r.split(",") for r in rows[1:]], dtype=float)[:, cols]
                  for rows in (la, lb))
    except (ValueError, IndexError):
        return None
    za, zb = (v[:, 0::2] + 1j * v[:, 1::2] for v in (va, vb))
    rel = np.linalg.norm(zb - za, axis=1) / np.maximum(np.linalg.norm(za, axis=1), 1e-300)
    i = int(np.argmax(rel))
    return sum(x != y for x, y in zip(la[1:], lb[1:])), len(la) - 1, float(rel[i]), i + 2


def _largest_row_difference(moves) -> str:
    """The _row_moves of a differing CSV as the suffix of its line; "" for None."""
    if moves is None:
        return ""
    moved, rows, largest, line = moves
    return (f"; {moved} of {rows} rows moved, "
            f"largest row difference {largest:.3g} relative, line {line}")


def _moved_checks(a: bytes, b: bytes) -> list[str]:
    """One line per check of both `check` JSON reports whose residual or verdict differs,
    `name: old -> new`, flagged `(PASS -> FAIL)` or `(FAIL -> PASS)` where the verdict
    flips; [] for other files."""
    try:
        old, new = ({c["name"]: c for c in json.loads(x)["checks"]} for x in (a, b))
    except (ValueError, KeyError, TypeError):
        return []
    verdict = lambda c: "PASS" if c["pass"] else "FAIL"
    lines = []
    for name in (n for n in old if n in new):
        o, n = old[name], new[name]
        if o["residual"] != n["residual"] or o["pass"] != n["pass"]:
            flip = f" ({verdict(o)} -> {verdict(n)})" if o["pass"] != n["pass"] else ""
            lines.append(f"{name}: {o['residual']} -> {n['residual']}{flip}")
    return lines


def compare(dirs, srcs) -> tuple[list[str], int, tuple | None]:
    """The differences between the two trees' manifests and output files, the
    number of calls, and the largest relative row move over all CSVs as
    (move, call, line), None where no CSV row moved."""
    manifests = []
    for d in dirs:
        with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
            manifests.append(json.load(fh))
    diffs, worst = [], None
    for key in sorted(set(manifests[0]) | set(manifests[1])):
        if key not in manifests[0] or key not in manifests[1]:
            diffs.append(f"{key}: run in one tree only")
            continue
        runs = [m[key] for m in manifests]
        for field in ("code", "stdout", "stderr"):
            # paths differ between the trees by their roots only
            vals = [str(r[field]).replace(d, "<out>").replace(s, "<src>")
                    for r, d, s in zip(runs, dirs, srcs)]
            if vals[0] != vals[1]:
                what = (f"{vals[0]!r} -> {vals[1]!r}" if field == "code"
                        else _first_difference(*(v.encode() for v in vals)))
                diffs.append(f"{key}: {field} {what}")
        files = [_read(os.path.join(d, r["output"])) for r, d in zip(runs, dirs)]
        if files[0] != files[1]:
            both = None not in files
            moves = _row_moves(*files) if both else None
            checks = _moved_checks(*files) if both else []
            if moves and moves[0] and (worst is None or moves[2] > worst[0]):
                worst = (moves[2], key, moves[3])
            diffs.append("\n".join([f"{key}: output {runs[0]['output']} "
                                    f"{_first_difference(*files)}"
                                    f"{_largest_row_difference(moves)}"] +
                                   [f"{key}: check {line}" for line in checks]))
    return diffs, len(manifests[0]), worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--run", help=argparse.SUPPRESS)      # child: the output directory
    args = ap.parse_args(argv)
    if args.run:
        run_tree(source_dir(args.parent_src), args.run, args.workloads, args.seeds)
        return 0
    srcs = [source_dir(p) for p in (args.parent_src, args.change_src)]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        dirs = [os.path.join(tmp, side) for side in ("parent", "change")]
        env = dict(os.environ, **THREADS)
        procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), src, src,
                                   "--seeds", *map(str, args.seeds), "--workloads",
                                   *args.workloads, "--run", d], env=env, cwd=tmp)
                 for src, d in zip(srcs, dirs)]
        if any([p.wait() != 0 for p in procs]):
            sys.stderr.write("compare_outputs: a tree's run failed\n")
            return 2
        diffs, calls, worst = compare(dirs, srcs)
    for line in diffs:
        print(line)
    largest = (f"; largest row move {worst[0]:.3g} relative ({worst[1]}, line {worst[2]})"
               if worst else "")
    print(f"{calls} calls, {len(diffs)} differences "
          f"({', '.join(args.workloads)}; seeds {' '.join(map(str, args.seeds))}){largest}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
