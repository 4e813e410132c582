"""Benchmark of bvfourier: ``bvf verify`` campaigns and single CLI calls.

    python3 bvfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and every program call is its own ``python3`` process.  With
``--trace 0`` the workload is repeated in whole rounds for S seconds and
the end-to-end metrics are printed; with ``--trace 1`` one untraced and
one traced round run, and the per-module metrics are printed.  The last
line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PY = sys.executable
WORKLOADS = ("verify-default", "verify-strict", "cli-calls")
PROFILE = {"verify-default": "default", "verify-strict": "strict"}
THREADS = {"verify-default": "1", "verify-strict": "2", "cli-calls": "1"}  # BVF_THREADS
SETUP_REPEATS = 5
PROCESS_TIMEOUT = 60.0
IMPORT_PROBES = 3


@dataclass
class Op:
    """One program process and the check of its output."""

    args: list[str]
    check: Callable[[int], tuple[int, list[str]]]  # exit code -> (operations delivered, problems)
    attempted: int = 1
    outputs: tuple = ()


@dataclass
class Round:
    wall: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def program_env(threads: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["BVF_THREADS"] = threads
    return env


def run_process(argv: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run one process to its end; return (exit code, wall s, peak RSS in MB of 10^6 bytes).

    A process still running after PROCESS_TIMEOUT seconds is killed, so a
    hung call fails its operation instead of stalling the benchmark.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def verify_ops(profile: str, work: Path) -> list[Op]:
    report = work / f"report-{profile}.txt"

    def check(rc):
        return checks.check_verify(report, rc, profile)

    return [
        Op(
            ["verify", "--suite", "all", "--profile", profile, "--out", str(report)],
            check,
            attempted=len(checks.GATED),
            outputs=(report, report.with_suffix(".csv")),
        )
    ]


def cli_ops(seed: int, work: Path) -> list[Op]:
    inp = inputs.make_inputs(seed)
    ops = []

    def op(args, out, checker):
        def check(rc):
            if rc != 0 or not out.is_file():
                return 0, [f"{' '.join(args[:3])} exited {rc}"]
            return 1, checker()

        ops.append(Op([*args, "--out", str(out)], check, outputs=(out,)))

    for n in sorted(inputs.LINE_SIZES, reverse=True):  # the largest call first: it is the warm-up
        gauss, mix = work / f"gauss-{n}.csv", work / f"mix-{n}.csv"
        inputs.write_line_csv(gauss, inp.gauss, n)
        inputs.write_line_csv(mix, inp.mix, n)
        out = work / f"transform-{n}.csv"
        op(["transform", "--csv", str(gauss)], out,
           lambda out=out, n=n: checks.check_transform(out, inp.gauss, n))
        for method in ("pv", "multiplier"):
            out = work / f"hilbert-{method}-{n}.csv"
            op(["hilbert", "--csv", str(mix), "--method", method], out,
               lambda out=out, n=n, method=method: checks.check_hilbert(out, inp.mix, n, method))
    radii = ",".join(repr(float(r)) for r in inp.radii)
    for profile in (inp.bump, *inp.balls):
        src, out = work / f"profile-dim{profile.dim}.csv", work / f"radial-dim{profile.dim}.csv"
        inputs.write_radial_csv(src, *profile.samples())
        exact = profile.transform(inp.radii)
        op(["radial", "--csv", str(src), "--dim", str(profile.dim), "--radii", radii], out,
           lambda out=out, profile=profile, exact=exact: checks.check_radial(out, profile, inp.radii, exact))
    return ops


def run_round(ops: list[Op], env: dict, work: Path, traced: bool) -> Round:
    rnd = Round()
    for k, op in enumerate(ops):
        for path in op.outputs:
            path.unlink(missing_ok=True)
        spans_path = work / f"spans-{k}.json"
        if traced:
            argv = [PY, str(HERE / "tracer.py"), str(spans_path), *op.args]
        else:
            argv = [PY, "-m", "bvfourier.cli", *op.args]
        rc, wall, rss = run_process(argv, env, work / f"op-{k}.log")
        rnd.wall += wall
        rnd.peak_rss_mb = max(rnd.peak_rss_mb, rss)
        delivered, problems = op.check(rc)
        rnd.attempted += op.attempted
        rnd.failed += op.attempted - delivered
        rnd.problems += problems
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text())
            for s in spans:  # ids are per process; make them unique in the round
                s["process"] = k
                s["id"] = f"{k}:{s['id']}"
                s["parent"] = None if s["parent"] is None else f"{k}:{s['parent']}"
            rnd.spans += spans
    return rnd


def import_seconds(env: dict, work: Path) -> float:
    code = "import time; t = time.perf_counter(); import bvfourier.cli; print(time.perf_counter() - t)"
    log = work / "import.log"
    rc, _, _ = run_process([PY, "-c", code], env, log)
    if rc != 0:
        raise RuntimeError(f"importing bvfourier.cli failed:\n{log.read_text()}")
    return float(log.read_text().split()[-1])


def import_profile(env: dict, work: Path) -> dict[str, float]:
    """Cumulative import seconds of the package and two modules, and the module count."""
    log = work / "importtime.log"
    rc, _, _ = run_process([PY, "-X", "importtime", "-c", "import bvfourier.cli"], env, log)
    if rc != 0:
        raise RuntimeError(f"importing bvfourier.cli failed:\n{log.read_text()}")
    cumulative, modules = {}, 0
    for line in log.read_text().splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
        cumulative[name] = int(cum) * 1e-6
        modules += 1
    return {
        "import.bvfourier_s": cumulative["bvfourier"],
        # a module the package no longer imports at start-up costs nothing there
        "import.bvfourier.hilbert_s": cumulative.get("bvfourier.hilbert", 0.0),
        "import.bvfourier.radial_s": cumulative.get("bvfourier.radial", 0.0),
        "import.modules": modules,
    }


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    own = tracer.self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum((s["end"] - s["start"] for s in by_name.get(name, [])), 0.0)

    def self_s(name):
        return sum((own[s["id"]] for s in by_name.get(name, [])), 0.0)

    def calls(name):
        return len(by_name.get(name, []))

    m = {
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
    for name in ("read_samples_csv", "sample", "derivative", "total_variation"):
        m[f"grids.{name}.s"] = (total(f"grids.{name}"), "s")
    m["radial.read_radial_csv.s"] = (total("radial.read_radial_csv"), "s")
    m["radial.fractional_integral.calls"] = (calls("radial.fractional_integral"), "count")
    for name in ("fractional_integral", "radial_ft_leray", "radial_ft_ibp", "radial_ft_oracle", "leray_condition"):
        m[f"radial.{name}.self_s"] = (self_s(f"radial.{name}"), "s")
    m["fourier.transform_values.calls"] = (calls("fourier.transform_values"), "count")
    m["fourier.transform_values.freqs"] = (
        sum(s.get("work", 0) for s in by_name.get("fourier.transform_values", [])), "count")
    for name in ("transform_values", "fourier_transform", "l1_norm_ft", "h1_report", "hardy_check"):
        m[f"fourier.{name}.self_s"] = (self_s(f"fourier.{name}"), "s")
    m["fourier.fourier_coefficients.calls"] = (calls("fourier.fourier_coefficients"), "count")
    for name in ("fourier_coefficients", "conjugate_coefficient_check"):
        m[f"fourier.{name}.self_s"] = (self_s(f"fourier.{name}"), "s")
    for name in ("hilbert_pv", "hilbert_multiplier"):
        m[f"hilbert.{name}.calls"] = (calls(f"hilbert.{name}"), "count")
        m[f"hilbert.{name}.self_s"] = (self_s(f"hilbert.{name}"), "s")
    for name in ("modified_hilbert", "periodic_conjugate", "kernel_difference"):
        m[f"hilbert.{name}.self_s"] = (self_s(f"hilbert.{name}"), "s")
    for name in ("conjugate_derivative_defect", "ibp_consistency", "classify_l1_growth"):
        m[f"verification.{name}.self_s"] = (self_s(f"verification.{name}"), "s")
    for suite in tracer.SUITES:
        m[f"suites.{suite}.s"] = (total(f"suites.{suite}"), "s")
    m["suites.self_s"] = (sum(self_s(f"suites.{suite}") for suite in tracer.SUITES), "s")
    return m


def import_profile_median(env: dict, work: Path) -> dict[str, tuple[float, str]]:
    probes = [import_profile(env, work) for _ in range(IMPORT_PROBES)]
    return {
        name: (statistics.median(p[name] for p in probes), "count" if name == "import.modules" else "s")
        for name in probes[0]
    }


def write_trace(args: argparse.Namespace, spans: list[dict]) -> None:
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": spans}))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bvfourier" / "cli.py").is_file():
        print(f"error: no bvfourier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = program_env(THREADS[args.workload])
        if args.workload in PROFILE:
            ops = verify_ops(PROFILE[args.workload], work)
        else:
            ops = cli_ops(args.seed, work)
        if len(ops) > 1:
            # The first large allocations of a run are slower than later ones.
            # A verify run repeats its one-process round and takes the median,
            # which drops a slow first round; cli-calls runs one long round, so
            # its first call is made once, untimed.
            run_round(ops[:1], env, work, traced=False)
        if args.trace:
            metrics = dict(import_profile_median(env, work))
            plain = run_round(ops, env, work, traced=False)
            traced = run_round(ops, env, work, traced=True)
            rounds = [plain, traced]
            metrics.update(layer_metrics(traced.spans))
            metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
            write_trace(args, traced.spans)
        else:
            # the median drops the first import, which may also write bytecode
            setup = statistics.median(import_seconds(env, work) for _ in range(SETUP_REPEATS))
            rounds = []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                rounds.append(run_round(ops, env, work, traced=False))
            metrics = {
                "wall_s": (statistics.median(r.wall for r in rounds), "s"),
                "setup_s": (setup, "s"),
                "peak_rss_mb": (max(r.peak_rss_mb for r in rounds), "MB"),
            }
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [p for r in rounds for p in r.problems]
    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"rounds={len(rounds)} round_walls={[r.wall for r in rounds]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
