"""Benchmark of the ordersum CLI: end-to-end figures, or per-layer figures traced.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 40 --trace 0

`--workload all` runs the three workloads one after another.  With --trace 0
every command of a round runs as its own process (`python -m ordersum.cli ...`
with PYTHONPATH=src), one at a time; rounds repeat until --seconds have
passed.  The bounded timings are ratios to a reference process timed between
the commands.  With --trace 1 the same rounds run in-process through
`ordersum.cli.main(argv)`, alternately untraced and traced.
Every output is checked against the oracles in `oracles.py`.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles as o
from workloads import WORKLOADS, CheckError, Context, catalog_file, walk_catalogs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# The reference process: start Python, import numpy, loop in pure Python and
# fill a 32 MB array, the kinds of work ordersum's commands do.  It runs
# between the commands, once per REFERENCE_EVERY_S of command time.
REFERENCE_CODE = """
import numpy
total = 0
for i in range(300_000):
    total += i * i
numpy.ones(4_000_000).sum()
"""
REFERENCE_EVERY_S = 2.0


class SetupError(Exception):
    """The program could not be prepared for a run."""


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_process(argv: list[str]) -> tuple[int, str, str, float, float]:
    """(exit code, stdout, stderr, seconds, peak RSS in MB) of one CLI process."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ordersum.cli", *argv], cwd=ROOT,
                                env=cli_env(), stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            out = proc.stdout.read()
            # wait4 reaps the child and returns its own peak resident set.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        seconds = time.perf_counter() - start
    return proc.returncode, out, err_path.read_text(), seconds, usage.ru_maxrss / 1024


def reference_seconds() -> float:
    """Seconds of one run of the reference process; it does not use ordersum."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_CODE], cwd=BENCH_DIR, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_in_process(cli, argv: list[str]) -> tuple[int, str, str, float, float]:
    """The same, through `cli.main(argv)` in this process; RSS is not measured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught exception ends a real process with 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start, 0.0


def write_faulty_caches(ctx: Context) -> None:
    """Two copies of the warm order-8 catalog: one class's psi set to 999, and no classes."""
    data = json.loads(catalog_file(ctx.warm, 8).read_text())
    tampered = json.loads(json.dumps(data))
    victim = next(c for c in tampered["classes"] if max(o.table_orders(c["table"])) < 8)
    victim["psi"] = 999
    del data["classes"]
    for cache, doc in ((ctx.tampered, tampered), (ctx.missing, data)):
        path = catalog_file(cache, 8)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def setup(ctx: Context) -> None:
    """A warm-up call, the n <= 12 catalog cache and the faulty cache files."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for argv, expected in ((["psi", "C2"], "3\n"),
                           (["--cache-dir", str(ctx.warm), "verify", "max_cyclic",
                             "--nmax", "12"], None)):
        code, out, err, _, _ = run_process(argv)
        if code != 0 or (expected is not None and out != expected):
            raise SetupError(f"ordersum {' '.join(argv)} exited {code}: {err.strip()}")
    write_faulty_caches(ctx)


def fresh_import_seconds() -> float:
    """Median time to import ordersum.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import ordersum.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=cli_env(), cwd=ROOT,
                                  capture_output=True, text=True, check=True).stdout)
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def rounds_within(seconds: float):
    """Yield for each whole round that should fit in `seconds`; always at least one."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


class Tally:
    """Operations attempted, failed and answered wrongly, with their timings."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.seconds: dict[tuple[str, ...], list[float]] = {}  # per command, over rounds
        self.peak_rss_mb = 0.0

    def command_medians(self) -> list[float]:
        """Each command's median latency over the rounds."""
        return [statistics.median(times) for times in self.seconds.values()]

    def round(self, workload: str, ctx: Context, rng: random.Random, runner) -> float:
        """Run one round; return the seconds spent inside the commands."""
        shutil.rmtree(ctx.fresh, ignore_errors=True)
        write_faulty_caches(ctx)
        ctx.round_spectra = None
        first, rest = WORKLOADS[workload](ctx)
        rng.shuffle(rest)
        wall = 0.0
        for op in first + rest:
            code, out, err, seconds, rss = runner(op.argv)
            self.attempted += 1
            wall += seconds
            self.seconds.setdefault(tuple(op.argv), []).append(seconds)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if code != 0:
                self.failed += 1
                continue
            try:
                op.check(out)
            except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
                self.wrong += 1
                print(f"wrong output of ordersum {' '.join(op.argv)}: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return wall


def measure(workload: str, seed: int, seconds: float, ctx: Context) -> tuple[Tally, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup(ctx)
        setups.append(time.perf_counter() - start)
    ctx.warm_spectra = walk_catalogs(ctx.warm, 12)

    # The host's speed drifts by up to a half within minutes, and every kind
    # of work drifts with it.  The bounded timings are therefore ratios: each
    # command's time over the latest run of the reference process before it.
    reference = [reference_seconds()]
    owed = 0.0  # command seconds since the last reference run
    ratios: dict[tuple[str, ...], list[float]] = {}  # per command, over rounds

    def runner(argv):
        nonlocal owed
        while owed >= REFERENCE_EVERY_S:
            reference.append(reference_seconds())
            owed -= REFERENCE_EVERY_S
        result = run_process(argv)
        owed += result[3]
        ratios.setdefault(tuple(argv), []).append(result[3] / reference[-1])
        return result

    rng = random.Random(seed)
    tally = Tally()
    rounds = 0
    for _ in rounds_within(seconds):
        tally.round(workload, ctx, rng, runner)
        rounds += 1
    # Per-command medians over the rounds: a slow spell of the machine that
    # hits one command in one round moves neither figure.
    medians = tally.command_medians()
    ratio_medians = [statistics.median(r) for r in ratios.values()]
    per = f"each command's median over {rounds} rounds, {len(medians)} commands"
    raw = (f"{len(reference)} reference runs, median {statistics.median(reference):.4f} s; "
           f"in seconds")
    return tally, {
        "wall_ref": (sum(ratio_medians), "x_ref",
                     f"the sum of {per}; {raw} wall_s {sum(medians):.4f} s"),
        "cmd_p50_ref": (statistics.median(ratio_medians), "x_ref",
                        f"the median of {per}; {raw} cmd_p50_s "
                        f"{statistics.median(medians):.4f} s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB", "highest peak RSS of any command process"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
    }


def measure_traced(workload: str, seed: int, seconds: float,
                   ctx: Context) -> tuple[Tally, dict]:
    sys.path.insert(0, str(SRC))
    from ordersum import cli
    from tracing import LAYERS, Tracer

    setup(ctx)
    ctx.warm_spectra = walk_catalogs(ctx.warm, 12)
    rng = random.Random(seed)
    in_process = functools.partial(run_in_process, cli)
    # The first in-process round runs slower (the heap grows), so it is not counted.
    Tally().round(workload, ctx, random.Random(seed), in_process)
    tally = Tally()
    rounds = []
    for _ in rounds_within(seconds):
        untraced = tally.round(workload, ctx, rng, in_process)
        tracer = Tracer()
        tracer.install()
        try:
            traced = tally.round(workload, ctx, rng, in_process)
        finally:
            tracer.remove()
        m = tracer.metrics(traced)
        m["trace.overhead_s"] = traced - untraced
        accounted = m["trace.outside_s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS)
        if abs(accounted - traced) > 1e-6 * max(1.0, traced):
            tally.wrong += 1
            print(f"self times add up to {accounted} s, not {traced} s", file=sys.stderr)
        rounds.append(m)
    metrics = {name: (statistics.median(r[name] for r in rounds), unit_of(name),
                      f"median of {len(rounds)} traced rounds") for name in rounds[0]}
    metrics["cli.import_s"] = (fresh_import_seconds(), "s",
                               f"median of {IMPORT_REPEATS} fresh interpreters")
    return tally, metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "computed_bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that `finally` blocks
    # kill the running CLI process and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "ordersum" / "cli.py").is_file():
        print(f"error: no ordersum sources under {SRC}", file=sys.stderr)
        return 2
    for workload in sorted(WORKLOADS) if args.workload == "all" else [args.workload]:
        try:
            tally, metrics = (measure_traced if args.trace else measure)(
                workload, args.seed, args.seconds, Context(WORK))
        except (SetupError, CheckError, OSError, subprocess.CalledProcessError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        for name, (value, unit, note) in metrics.items():
            print(f"{workload}  {name} = {value:.6g} {unit}  ({note})")
        print(f"{workload}  operations attempted = {tally.attempted}, failed = {tally.failed}, "
              f"wrong outputs = {tally.wrong}")
        print(json.dumps({
            "correct": tally.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
