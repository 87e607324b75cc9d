"""ligas benchmark: seeded pipeline workloads through the CLI entry point.

    python3 perfbench/run.py --workload ig-sweep --seed 1 --seconds 30 --trace 0

One process runs ``ligas.cli.main`` in a closed loop, one command at a
time, with the default single thread. Set-up builds the workload's inputs
from ``--seed`` (at least three times and for at least three seconds).
Then rounds of the workload's commands repeat until ``--seconds`` have
passed (at least two rounds). Each timing is the upper quartile over
set-ups or rounds (see ``upper_quartile``). Every command's output
is checked after the round, outside the timing, and every artifact's
sha256 must repeat exactly across set-ups and rounds.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` does the same
untraced rounds, then one more round with every layer traced
(``spans.py``), and prints the per-layer metrics; that round's artifacts
must match the untraced ones byte for byte. The last line of standard
output is the result object; the line before it carries the input
properties and machine info. Work files go to ``.perfbench_work/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl  # perfbench/ is on sys.path as the script's directory
from spans import Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3    # at least; set-up repeats until SETUP_SECONDS have passed
SETUP_SECONDS = 3.0
MIN_ROUNDS = 2


class Run:
    """Attempt/failure accounting and command execution for one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def command(self, argv: list[str]) -> float:
        """Run one CLI command in-process; returns its wall time."""
        from ligas.cli import main

        gc.collect()  # the previous command's garbage is not collected inside this timing
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # a crash is a failed command, not a benchmark error
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failures.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return elapsed

    def check(self, fn, *args) -> None:
        """Run one output check; it returns None or the reason it failed."""
        self.attempted += 1
        try:
            reason = fn(*args)
        except Exception as exc:  # an unreadable output fails the check
            reason = f"{fn.__name__}: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(reason)

    def check_same(self, what: str, want: dict, got: dict) -> None:
        diff = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        self.check(lambda: f"{what}: bytes differ in {diff}" if diff else None)


def upper_quartile(values: list[float]) -> float:
    """The timing statistic: this host's speed flips between two states that
    last seconds, so the median of a run's rounds jumps between them while
    the upper quartile stays in the slower, common state."""
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def import_ligas():
    if not os.path.isfile(os.path.join(SRC, "ligas", "cli.py")):
        sys.exit(f"perfbench: no ligas sources at {SRC}")
    sys.path.insert(0, SRC)
    import ligas.cli  # noqa: F401  (loads every ligas module the tracer wraps)

    if not os.path.abspath(ligas.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported ligas from {ligas.cli.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(), "git_commit": commit}


def one_round(run: Run, w, seed: int, inputs, out: str, gap_ok: list[float]):
    """Run and check one round; returns (per-command seconds, round seconds, digests)."""
    times = {key: run.command(argv) for key, argv in wl.round_steps(w, seed, inputs, out)}
    run.check(wl.check_gen, w, out)
    run.check(wl.check_train, w, out)
    for m in wl.STEPS:
        run.check(wl.check_attribute, inputs, out, m, gap_ok)
    run.check(wl.check_analyze, inputs, out)
    run.check(wl.check_render, inputs, out)
    return times, sum(times.values()), wl.digests(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_ligas()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    os.environ.pop("LIGAS_THREADS", None)  # every command runs with the default one thread
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, f"{w.name}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    run = Run()
    setup_s, setup_digests, inputs = [], [], None
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        out = os.path.join(work, f"setup{len(setup_s)}")
        start = time.perf_counter()
        got = wl.setup(w, args.seed, out, run.command)
        setup_s.append(time.perf_counter() - start)
        setup_digests.append(wl.digests(out))
        inputs = inputs or got
    for k in range(1, len(setup_digests)):
        run.check_same(f"set-up {k}", setup_digests[0], setup_digests[k])
    properties = wl.input_properties(w, inputs)

    times: dict[str, list[float]] = {}
    round_s, gap_ok, first = [], [], None
    start = time.perf_counter()
    k = 0
    while k < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        out = os.path.join(work, f"round{k}")
        step_times, total, got = one_round(run, w, args.seed, inputs, out, gap_ok)
        for key, value in step_times.items():
            times.setdefault(key, []).append(value)
        round_s.append(total)
        if first is None:
            first = got
        else:
            run.check_same(f"round {k}", first, got)
        shutil.rmtree(out, ignore_errors=True)
        k += 1

    typical = {key: upper_quartile(values) for key, values in times.items()}
    if args.trace:
        tracer = Tracer()
        out = os.path.join(work, "traced")
        tracer.install()
        try:
            traced_wall = sum(run.command(argv)
                              for _, argv in wl.round_steps(w, args.seed, inputs, out))
        finally:
            tracer.uninstall()
        run.check_same("traced round", first, wl.digests(out))
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_s"] = traced_wall - upper_quartile(round_s)
        tracer.write_spans(os.path.join(work_root, f"spans-{w.name}-seed{args.seed}.csv"))
    else:
        n_attr = len(inputs.attr_ids)
        metrics = {
            "setup_s": upper_quartile(setup_s),
            "wall_s": upper_quartile(round_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(run.failures) / run.attempted,
            **{f"attr_sent_per_s.m{m}": n_attr / typical[f"attribute.m{m}"] for m in wl.STEPS},
            "gap_ok_frac": min(gap_ok) if gap_ok else 0.0,
            "train_sent_per_s": inputs.n_train * w.train_epochs / typical["train"],
            "gen_s": typical["gen"],
            "analyze_s": typical["analyze"],
            "render_s": typical["render"],
        }
    shutil.rmtree(work, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in _declared(args.trace)}
    info = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "rounds": len(round_s),
        "setup_s_all": setup_s, "command_s_all": times,
        "inputs": properties, "machine": machine_info(),
        "failures": run.failures[:20],
    }
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    os.makedirs(work_root, exist_ok=True)
    with open(os.path.join(work_root, f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _declared(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
