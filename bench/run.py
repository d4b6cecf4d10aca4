#!/usr/bin/env python3
"""Benchmark of the `sepdim` command line on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One run:

1. sets up SETUP_REPEATS times, each in a fresh process that imports
   `sepdim` and writes the workload's inputs (`setup_s` is the median);
2. runs one untimed warm-up op, then a fixed number of whole passes over
   the op list (`sepdim.cli.main(argv)` in this process, stdout captured,
   files in a scratch directory): about S seconds of op time, at least
   MIN_PASSES passes.  A fixed calibration kernel runs between every two
   ops, and each op's wall time is scaled to the machine speed the kernel
   saw just before and just after it (`normalized`); an op's time is the
   median of its scaled times over the passes;
3. checks in a separate process every op's output against `reference`,
   and checks that every repeat of an op gives byte-identical output;
4. prints one JSON object as its last line: the end-to-end metrics with
   `--trace 0`, the per-layer metrics with `--trace 1`.

With `--trace 1` a whole untimed pass warms up, then untraced and traced
passes alternate; the traced ones report per-layer self times and counts
per op, their outputs must equal the untraced ones, and the throughput
difference is the tracing overhead.  Per-run details go to `.bench_out/`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Nominal seconds of one pass over each workload's op list: its op time at
# the reference speed (README).  A run makes
# round(seconds / PASS_SECONDS) passes, so every run with the same
# --seconds does the same work.
PASS_SECONDS = {"starcover": 4.0, "verify": 4.0, "subdivision": 2.8, "exact": 1.1}
WORKLOADS = tuple(PASS_SECONDS)
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_OPS = 40
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150
# About the seconds the calibration kernel takes on the reference machine
# when it runs fast (README).  Scaled times are wall times at that speed.
CAL_REF_S = 0.003


class Calibration:
    """A fixed kernel, independent of `sepdim`, that measures the machine's
    speed right now.

    The host's speed moves by up to 2x within seconds (README, "Noise").
    `normalized(wall, before, after)` scales a wall time by CAL_REF_S over
    the mean of the kernel times measured just before and just after it.  The kernel mixes the same
    kinds of work as the ops: dict and integer work in the interpreter,
    numpy sorting and a broadcast comparison.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._perm = np.random.default_rng(0).permutation(4000)
        self()  # warm-up

    def __call__(self) -> float:
        np, perm = self._np, self._perm
        start = time.perf_counter()
        table, acc = {}, 0
        for i in range(6000):
            key = i & 511
            table[key] = table.get(key, 0) + i
            acc ^= (i * 2654435761) & 0xFFFF
        for _ in range(4):
            acc += int(np.argsort(perm)[::97].sum())
            acc += int((perm[:, None] < perm[None, :64]).sum())
        return time.perf_counter() - start


def normalized(wall: float, before: float, after: float) -> float:
    return wall * CAL_REF_S * 2 / (before + after)


def _child(args: list[str]) -> dict:
    res = subprocess.run([sys.executable, str(Path(__file__)), *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"bench child {args[:2]} failed:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _import_cli():
    sys.path.insert(0, str(SRC))
    import sepdim.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "sepdim":
        raise RuntimeError(f"sepdim imported from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# Child phases
# ---------------------------------------------------------------------------


def phase_setup(workload: str, seed: int, workdir: str) -> dict:
    """Import sepdim and write the inputs; time both."""
    start = time.perf_counter()
    _import_cli()
    import workloads

    ops = workloads.build(workload, seed, workdir)
    setup_s = time.perf_counter() - start
    digest = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        digest.update(name.encode() + b"\0" + (Path(workdir) / name).read_bytes())
    return {"setup_s": setup_s, "inputs_digest": digest.hexdigest(), "ops": ops}


def phase_check(manifest_path: str) -> dict:
    """Reference checks of the first output of every op."""
    import checks

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    for entry in manifest:
        try:
            found = checks.check_op(entry["op"], entry["rc"], entry["report"])
        except Exception:  # a malformed output is a failed check, not a crash
            found = [traceback.format_exc(limit=2)]
        problems += [f"{entry['op']['name']}: {p}" for p in found]
    return {"correct": not problems, "problems": problems}


# ---------------------------------------------------------------------------
# The measured run
# ---------------------------------------------------------------------------


def _invoke(cli, argv):
    """Run one command; returns (exit code or None on a crash, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else None
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def _digest(rc, report, files) -> str:
    h = hashlib.sha256(f"{rc}\0{report}".encode())
    for path in files:
        h.update(b"\0" + Path(path).read_bytes())
    return h.hexdigest()


def tail(times: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND ops above it (nearest rank)."""
    n = len(times)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return pct, sorted(times)[math.ceil(pct * n / 100) - 1]


def phase_run(workload: str, seed: int, seconds: float, traced_run: bool) -> dict:
    import checks

    rundir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, traced_run, rundir, checks)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _measure(workload, seed, seconds, traced_run, rundir, checks) -> dict:
    cal = Calibration()
    setups, setups_wall, digests = [], [], set()
    for i in range(SETUP_REPEATS):
        workdir = rundir / f"inputs{i}"
        before = cal()
        res = _child(["--phase", "setup", "--workload", workload, "--seed", str(seed),
                      "--workdir", str(workdir)])
        setups.append(normalized(res["setup_s"], before, cal()))
        setups_wall.append(res["setup_s"])
        digests.add(res["inputs_digest"])
        ops = res["ops"]
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(workdir)
    problems = [] if len(digests) == 1 else ["set-up wrote different inputs for one seed"]

    cli = _import_cli()
    tracer = None
    if traced_run:
        from layers import Tracer

        tracer = Tracer()
    if len(ops) < MIN_OPS:
        raise RuntimeError(f"{workload} has {len(ops)} ops in a pass, fewer than {MIN_OPS}")
    # Untimed warm-up.  The first run of each op can be slower (on `verify`
    # the first pass is about 25 % slower).  The median over four or more
    # passes drops it; the traced run compares medians of half its passes,
    # so it warms up with a whole pass.
    for op in ops if traced_run else ops[:1]:
        _invoke(cli, op["argv"])

    passes = max(round(seconds / PASS_SECONDS[workload]), MIN_PASSES)
    if traced_run:
        passes += passes % 2  # as many traced passes as untraced ones
    first: dict[int, tuple] = {}
    records = []  # (pass, op index, traced, wall seconds, scaled seconds, exit code)
    failures = []
    before = cal()
    for pass_no in range(passes):
        traced = traced_run and pass_no % 2 == 1
        if traced:
            tracer.install()
        for idx, op in enumerate(ops):
            gc.collect()
            if traced:
                tracer.begin_op(op["name"])
            start = time.perf_counter()
            rc, report, err = _invoke(cli, op["argv"])
            elapsed = time.perf_counter() - start
            if traced:
                tracer.end_op(elapsed)
            after = cal()
            records.append((pass_no, idx, traced, elapsed, normalized(elapsed, before, after), rc))
            before = after
            if rc not in (0, 1):
                failures.append(f"{op['name']}: exit {rc}: {err.strip()[-300:]}")
                continue
            digest = _digest(rc, report, checks.output_files(op))
            if idx not in first:
                first[idx] = (rc, report, digest)
            elif first[idx][2] != digest:
                kind = "traced" if traced else "repeated"
                problems.append(f"{op['name']}: {kind} output differs from the first run of the op")
            if traced:
                classes = json.loads(report).get("color_classes")
                for vertices, edges, coloring in tracer.colorings:
                    problems += [f"{op['name']}: {p}"
                                 for p in checks.check_coloring(vertices, edges, coloring, classes)]
        if traced:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    manifest = rundir / "manifest.json"
    manifest.write_text(json.dumps(
        [{"op": ops[i], "rc": rc, "report": report} for i, (rc, report, _) in sorted(first.items())]))
    check_start = time.perf_counter()
    verdict = _child(["--phase", "check", "--manifest", str(manifest)])
    check_s = time.perf_counter() - check_start
    problems += verdict["problems"]

    def op_times(traced: bool, column: int) -> list[float]:
        """Per op, the median over its passes of the wall (3) or scaled (4) time."""
        return [statistics.median(r[column] for r in records if r[1] == idx and r[2] == traced)
                for idx in range(len(ops))]

    members = [checks.family_members(ops[i], json.loads(report))
               for i, (_, report, _) in sorted(first.items())]
    times = op_times(False, 4)
    wall = op_times(False, 3)
    result = {"correct": not problems, "attempted": len(records), "failed": len(failures)}
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "passes": passes,
              "ops_per_pass": len(ops), "cal_ref_s": CAL_REF_S,
              "setup_samples_s": setups, "setup_wall_s": setups_wall, "check_s": check_s,
              "wall_ops_per_s": len(wall) / sum(wall),
              "problems": problems,
              "failures": failures,
              "op_times": [[ops[r[1]]["name"], r[0], r[2], r[3], r[4]] for r in records]}
    if traced_run:
        untraced_rate = len(ops) / sum(times)
        traced_rate = len(ops) / sum(op_times(True, 4))
        metrics = tracer.per_layer()
        metrics["trace.overhead_pct"] = {"value": 100 * (untraced_rate / traced_rate - 1), "unit": "%"}
        detail["spans"] = tracer.spans
        detail["traced_ops"] = tracer.ops
    else:
        pct, tail_s = tail(times)
        print(f"op_tail_s is p{pct} of {len(times)} op times, each the median of {passes} passes "
              f"({TAIL_BEYOND}+ ops beyond it); unscaled wall ops_per_s "
              f"{detail['wall_ops_per_s']:.4g}")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "family_members": {"value": statistics.fmean(members), "unit": "count"},
        }
        detail["tail_percentile"] = pct
    result["metrics"] = metrics
    detail.update(result)
    with open(OUT / f"{workload}-seed{seed}-trace{int(traced_run)}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh)
    for p in (problems + failures)[:20]:
        print(f"problem: {p}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("run", "setup", "check"), default="run")
    parser.add_argument("--workdir")
    parser.add_argument("--manifest")
    args = parser.parse_args(argv)
    if not (SRC / "sepdim" / "__init__.py").is_file():
        print(f"no sepdim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.phase == "check":
        result = phase_check(args.manifest)
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.phase == "setup":
        result = phase_setup(args.workload, args.seed, args.workdir)
    else:
        result = phase_run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
