"""Benchmark of the griesmer certifier, run through its command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one CLI child at a time (a closed loop with one client)
and repeats passes over the workload's instances for S seconds; the seed
only shuffles the instance order of each pass.  Every child's output is
checked by bench/checker.py.  With --trace 0 the last line reports the
end-to-end metrics of the untraced runs; with --trace 1 the CLI runs
in-process under bench/spans.py's wrappers and the last line reports the
per-layer metrics.  See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from checker import Tally, check_run
from spans import PER_LAYER_UNITS, Tracer, layer_metrics
from workloads import NODE_LIMIT, WORKLOADS, Instance, check_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
# fresh-interpreter imports timed before each pass, so set-up samples span the run
SETUP_REPS_PER_PASS = 3
# every child is killed once the run reaches this age, so a hang still ends the run
RUN_DEADLINE_S = 165.0
END_TO_END_UNITS = {"wall_s": "s", "nodes": "count", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    pass


@dataclass
class Child:
    """One finished child: its exit, output, wall time and peak RSS."""

    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


class Launcher:
    """The helper interpreter (bench/launcher.py) that starts every measured child."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(ROOT / "bench" / "launcher.py")],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args: list[str], timeout: float) -> Child:
        out_path, err_path = OUT / "child.out", OUT / "child.err"
        fields = [f"{max(1.0, timeout):.3f}", str(out_path), str(err_path), sys.executable, *args]
        self.proc.stdin.write("\t".join(fields) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 3:
            raise SetupError("the launcher exited without a reply")
        return Child(int(reply[0]), out_path.read_text(errors="replace"),
                     err_path.read_text(errors="replace"), float(reply[1]), int(reply[2]) / 1024)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def check_import(launcher: Launcher, deadline: float) -> None:
    """Fail unless a fresh interpreter imports griesmer.cli from this checkout's src/."""
    child = launcher.run(["-c", "import griesmer.cli; print(griesmer.cli.__file__)"],
                         deadline - time.perf_counter())
    if child.exit_code != 0:
        raise SetupError(f"cannot import griesmer.cli from {SRC}: {child.stderr.strip()[-300:]}")
    if not Path(child.stdout.strip()).resolve().is_relative_to(SRC):
        raise SetupError(f"griesmer.cli was imported from {child.stdout.strip()}, not {SRC}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_untraced(launcher: Launcher, instances: tuple[Instance, ...], rng: random.Random,
                 seconds: int, deadline: float, tally: Tally) -> tuple[dict, dict]:
    check_import(launcher, deadline)  # also leaves the bytecode cache warm
    setup: list[float] = []
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for _ in range(SETUP_REPS_PER_PASS):
            setup.append(launcher.run(["-c", "import griesmer.cli"], deadline - time.perf_counter()).wall_s)
        wall = rss = 0.0
        nodes = 0
        by_instance = {}
        for inst in rng.sample(instances, len(instances)):
            child = launcher.run(["-m", "griesmer.cli", *inst.argv], deadline - time.perf_counter())
            problems, n = check_run(inst, child.exit_code, child.stdout)
            if child.exit_code != 0 and child.stderr.strip():
                problems.append(child.stderr.strip().splitlines()[-1])
            tally.add(inst, problems)
            wall += child.wall_s
            by_instance[inst.name] = child.wall_s
            nodes += n
            rss = max(rss, child.maxrss_mb)
        passes.append({"wall_s": wall, "nodes": nodes, "peak_rss_mb": rss, "instance_wall_s": by_instance})
    walls = [p["wall_s"] for p in passes]
    q1, med, q3 = quartiles(walls)
    values = {
        "wall_s": med,
        "nodes": statistics.median(p["nodes"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    detail = {"passes": passes, "setup_s": setup,
              "wall_s": {"median": med, "q1": q1, "q3": q3, "n": len(walls)}}
    print(f"wall_s quartiles: q1 {q1:.4f} s, median {med:.4f} s, q3 {q3:.4f} s, n = {len(walls)} passes")
    return metrics, detail


def _load_package() -> dict:
    sys.path.insert(0, str(SRC))
    try:
        import griesmer.cli
        import griesmer.search
        import griesmer.theorems
    except ImportError as exc:
        raise SetupError(f"cannot import griesmer from {SRC}: {exc}") from None
    if not Path(griesmer.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"griesmer.cli was imported from {griesmer.cli.__file__}, not {SRC}")
    return {m.__name__: m for m in (griesmer.cli, griesmer.search, griesmer.theorems)}


def run_traced(instances: tuple[Instance, ...], rng: random.Random, seconds: int,
               tally: Tally) -> tuple[dict, dict]:
    """Alternate untraced and traced in-process passes; per-layer metrics from the traced ones."""
    modules = _load_package()
    main = modules["griesmer.cli"].main
    tracer = Tracer(modules)
    walls: dict[bool, list[float]] = {False: [], True: []}  # untraced, traced
    per_pass: list[dict[str, float]] = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        # alternate which side goes first, so drift does not favour either
        for traced in (False, True) if len(per_pass) % 2 == 0 else (True, False):
            if traced:
                tracer.pass_id += 1
            wall = 0.0
            out_bytes = 0
            with tracer.installed() if traced else nullcontext():
                for inst in rng.sample(instances, len(instances)):
                    out, err = io.StringIO(), io.StringIO()
                    t0 = time.perf_counter()
                    try:
                        with redirect_stdout(out), redirect_stderr(err):
                            with tracer.span("cli.main") if traced else nullcontext():
                                code = main(list(inst.argv))
                    except Exception:
                        code, err = -1, io.StringIO(traceback.format_exc())
                    wall += time.perf_counter() - t0
                    problems, _ = check_run(inst, code, out.getvalue())
                    if code != 0 and err.getvalue().strip():
                        problems.append(err.getvalue().strip().splitlines()[-1])
                    tally.add(inst, problems)
                    out_bytes += len(out.getvalue().encode())
            walls[traced].append(wall)
            if traced:
                per_pass.append(layer_metrics(tracer.spans, tracer.pass_id, out_bytes))
    plain = statistics.median(walls[False])
    metrics = {name: (statistics.median(p[name] for p in per_pass), PER_LAYER_UNITS[name])
               for name in per_pass[0]}
    metrics["trace.overhead"] = ((statistics.median(walls[True]) - plain) / plain, "ratio")
    spans = [{"name": s.name, "pass": s.pass_id, "parent": s.parent, "start": s.start,
              "end": s.end, **s.attrs} for s in tracer.spans]
    return metrics, {"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
                     "per_pass": per_pass, "spans": spans}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    rng = random.Random(args.seed)
    instances = WORKLOADS[args.workload]
    tally = Tally()
    try:
        check_table()
        if not (SRC / "griesmer" / "cli.py").is_file():
            raise SetupError(f"no griesmer sources under {SRC}")
        OUT.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, detail = run_traced(instances, rng, args.seconds, tally)
        else:
            launcher = Launcher()
            try:
                metrics, detail = run_untraced(launcher, instances, rng, args.seconds, deadline, tally)
            finally:
                launcher.close()
    except (SetupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "node_limit": NODE_LIMIT,
        "instances": [" ".join(inst.argv) for inst in instances],
    }
    failed_ratio = tally.failed / tally.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:.6g} {unit}")
    print(f"{'failed_ratio':<28} {failed_ratio:.6g} fraction ({tally.failed}/{tally.attempted})")
    for line in tally.failures:
        print(f"FAILED {line}")
    print("provenance " + json.dumps(provenance))
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "provenance": provenance, "metrics": metrics, "failed_ratio": failed_ratio,
        "failures": tally.failures, "detail": detail,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
