#!/usr/bin/env python3
"""The charcond benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It drives the load from this process with
one child process (``child.py``, a fresh interpreter) at a time, checks
every output, and prints a summary followed, as the last line, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from children that install ``tracer.py``, next
to untraced iterations that give ``trace.overhead_ratio``.  Times are
seconds at reference speed (``speed.py``).  README.md in this directory
says why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

from checks import cyclo_item_errors, float_eval, load_golden
from speed import load_timeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RUNS = HERE / ".runs"
TRACES = HERE / ".traces"

SETUP_REPS = 5          # least fresh-interpreter set-ups timed per run
HARD_LIMIT_S = 165      # children still running then are killed
TAIL_BEYOND = 10        # samples the tail percentile must have beyond it

CLI_COMMANDS = {
    "validate": ["validate"],
    "conductors": ["conductors"],
    "blocks": ["blocks"],
    "gendec": ["gendec"],
    "verify": ["verify"],
    "restrict-check": ["restrict-check"],
    "isometry-search": ["isometry-search", "A5:5:B0", "D10:5:B0", "--json"],
}

# cyclo-arith: one expression pair for each ordered pair of these orders
# (the corpus ambient orders are 4..30), so that, as in the Tier-1 property
# test, the second operand's order is independent of the first's.  Each
# expression's powers of E(n) and the sizes of their coefficients are drawn
# once, the same for every seed, and seeds draw the signs, so that seeds
# change values but not the amount of work.
CYCLO_ORDERS = (4, 5, 8, 12, 15, 20, 24, 30, 40, 60)
CYCLO_SHAPE_SEED = 0


class Iteration:
    """One pass of a workload: its wall time, per-item times and outputs."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.raw_wall = 0.0     # as the clock read, not at reference speed
        self.cpu_wall = 0.0     # the children's CPU time
        self.items: dict[str, float] = {}
        self.outputs: dict = {}
        self.traces: list[tuple[Path, float]] = []   # (file, child's speed)


class Runner:
    """Spawns children one at a time, inside a per-run scratch directory,
    through launch.py, which stays small enough not to inflate their RSS."""

    def __init__(self, rundir: Path, hard_end: float):
        self.rundir = rundir
        self.hard_end = hard_end
        self.count = 0
        self.timed_out = False
        self.peak_kb = 0
        self.speed = 1.0        # last child's seconds per clock second
        self.cpu = 0.0          # last child's CPU seconds
        self.timeline = None    # last child's speed.Timeline
        self._buf = b""
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._launcher.stdin.close()
        self._launcher.wait()

    def child(self, args: list[str]) -> tuple[float, int | None, bytes]:
        """Run child.py; returns (its seconds at reference speed, exit code
        or None, stdout).  `timeline` scales spans inside it."""
        self.count += 1
        out_path = self.rundir / f"child{self.count}.out"
        probes = self.rundir / f"child{self.count}.probes"
        argv = [str(out_path), sys.executable, str(CHILD), str(probes), *args]
        self._launcher.stdin.write(("\t".join(argv) + "\n").encode())
        pid = int(self._reply(None).split()[1])
        reply = self._reply(self.hard_end)
        timed_out = reply is None
        if timed_out:
            os.kill(pid, signal.SIGKILL)
            reply = self._reply(None)
            self.timed_out = True
        _, code, start, end, cpu, peak = reply.split()
        start, end, self.cpu = float(start), float(end), float(cpu)
        self.peak_kb = int(peak)
        self.timeline = load_timeline(probes)
        secs = end - start
        if self.timeline is not None:   # else the child failed: keep clock
            secs = self.timeline.seconds(start, end)
        self.speed = secs / (end - start)
        return secs, None if timed_out else int(code), out_path.read_bytes()

    def _reply(self, deadline: float | None) -> str | None:
        """The launcher's next line; None if `deadline` passes first."""
        fd = self._launcher.stdout.fileno()
        while b"\n" not in self._buf:
            wait = None if deadline is None \
                else max(0.0, deadline - perf_counter())
            if not select.select([fd], [], [], wait)[0]:
                return None
            data = os.read(fd, 4096)
            if not data:
                raise RuntimeError("the launcher exited early")
            self._buf += data
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its name."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} (fewer than {TAIL_BEYOND + 1} items)"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.1f} of {n} items"


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    uses_corpus = True

    def __init__(self, seed: int, runner: Runner):
        self.seed = seed
        self.runner = runner

    def iterate(self, index: int, traced: bool) -> Iteration:
        raise NotImplementedError

    def check(self, it: Iteration) -> tuple[int, list[str]]:
        """(items attempted, one message per failed item)."""
        raise NotImplementedError

    def check_all(self, its: list[Iteration]) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        for it in its:
            n, fails = self.check(it)
            attempted += n
            failures += fails
        return attempted, failures

    def certificates(self, it: Iteration) -> int:
        return 0

    def run_id(self, index: int, item: str = "") -> str:
        return f"{self.name}:{self.seed}:{index}" + (f":{item}" if item else "")

    def _child(self, it: Iteration, mode: str, run_id: str, rest: list[str]):
        """One workload child, traced when the iteration is; returns
        (seconds at reference speed, exit code, stdout)."""
        trace = self.runner.rundir / f"trace-{run_id}.json"
        secs, code, out = self.runner.child(
            [mode, str(trace) if it.traced else "-", run_id, *rest])
        it.raw_wall += secs / self.runner.speed
        it.cpu_wall += self.runner.cpu
        if it.traced:
            it.traces.append((trace, self.runner.speed))
        return secs, code, out


class CliCorpus(Workload):
    """Every CLI subcommand once, each in a fresh interpreter."""

    name = "cli-corpus"

    def __init__(self, seed, runner):
        super().__init__(seed, runner)
        rng = random.Random(seed)
        independent = list(CLI_COMMANDS)
        rng.shuffle(independent)      # the search must precede the check
        self.order = independent + ["isometry-check"]
        self.golden = load_golden("cli-corpus")
        self.cert_index = seed % len(self.golden["isometry-check"])

    def iterate(self, index, traced):
        it = Iteration(traced)
        for cmd in self.order:
            if cmd == "isometry-check":
                path = self.runner.rundir / f"cert{index}.json"
                path.write_text(json.dumps(self._certificate(it)))
                argv = ["isometry-check", str(path)]
            else:
                argv = CLI_COMMANDS[cmd]
            secs, code, out = self._child(
                it, "cli", self.run_id(index, cmd), ["--", *argv])
            it.items[cmd] = secs
            it.wall += secs
            it.outputs[cmd] = (code, out)
            if self.runner.timed_out:
                break
        return it

    def _certificate(self, it):
        """One certificate of this iteration's own search (the golden one
        when the search output is unusable; the search then fails its check)."""
        try:
            return json.loads(it.outputs["isometry-search"][1])[self.cert_index]
        except (KeyError, ValueError, IndexError, TypeError):
            return self.golden["certificates"][self.cert_index]

    def check(self, it):
        failures = []
        for cmd in self.order:
            if cmd == "isometry-check":
                want = self.golden["isometry-check"][self.cert_index]
            else:
                want = self.golden["commands"][cmd]
            got = it.outputs.get(cmd)
            if got is None:
                failures.append(f"{cmd}: not run")
            elif got[0] != 0:
                failures.append(f"{cmd}: exit code {got[0]}")
            elif got[1] != want.encode():
                failures.append(f"{cmd}: output differs from the golden")
        return len(self.order), failures

    def certificates(self, it):
        try:
            return len(json.loads(it.outputs["isometry-search"][1]))
        except (KeyError, ValueError, TypeError):
            return 0


class VerifySamples(Workload):
    """One `verify --samples 200 --seed <seed>`."""

    name = "verify-samples"

    def iterate(self, index, traced):
        it = Iteration(traced)
        argv = ["verify", "--samples", "200", "--seed", str(self.seed)]
        secs, code, out = self._child(
            it, "cli", self.run_id(index), ["--", *argv])
        it.wall = it.items["verify"] = secs
        it.outputs["verify"] = (code, out)
        return it

    def check(self, it):
        code, out = it.outputs["verify"]
        if code != 0:
            return 1, [f"verify: exit code {code}"]
        rows = [row.split() for row in out.decode(errors="replace")
                .splitlines()[1:]]
        if any(len(f) < 4 or f[3] not in ("PASS", "n/a") for f in rows):
            return 1, ["verify: a row neither PASS nor n/a"]
        if out != load_golden("verify-samples")["stdout"].encode():
            return 1, ["verify: output differs from the golden"]
        return 1, []


class InProcessWorkload(Workload):
    """A child that reads generated inputs and writes verdicts plus per-item
    times; the wall time includes its interpreter start and imports."""

    mode = ""

    def inputs(self) -> list:
        raise NotImplementedError

    def iterate(self, index, traced):
        it = Iteration(traced)
        in_path = self.runner.rundir / f"{self.mode}-in.json"
        if not in_path.exists():
            in_path.write_text(json.dumps(self.inputs()))
        out_path = self.runner.rundir / f"{self.mode}-out{index}.json"
        it.wall, code, _ = self._child(
            it, self.mode, self.run_id(index), [str(in_path), str(out_path)])
        it.outputs = {"code": code}
        if code == 0:
            with open(out_path) as fh:
                results = json.load(fh)
            timeline = self.runner.timeline
            it.items = {str(i): timeline.seconds(*r.pop("t"))
                        for i, r in enumerate(results)}
            it.outputs["results"] = results
        return it

    def _results(self, it):
        if it.outputs["code"] != 0:
            return None
        return it.outputs["results"]


class IsometrySweep(InProcessWorkload):
    """After one corpus load, every ordered pair of equal-size blocks with
    nonzero defect and at most 6 characters, in a seeded order."""

    name = "isometry-sweep"
    mode = "sweep"

    def __init__(self, seed, runner):
        super().__init__(seed, runner)
        self.golden = load_golden("isometry-sweep")["pairs"]
        self.order = list(range(len(self.golden)))
        random.Random(seed).shuffle(self.order)

    def inputs(self):
        return [[self.golden[i]["source"], self.golden[i]["target"]]
                for i in self.order]

    def check(self, it):
        results = self._results(it)
        if results is None or len(results) != len(self.order):
            return len(self.order), [f"sweep child failed "
                                     f"(exit {it.outputs['code']})"]
        failures = []
        for i, got in zip(self.order, results):
            want = self.golden[i]
            certs = [_compact(c, want) for c in got["certificates"]]
            if (got["source"], got["target"]) != (want["source"],
                                                  want["target"]) \
                    or certs != want["certificates"]:
                failures.append(f"{want['source']} -> {want['target']}: "
                                f"certificates differ from the golden")
        return len(self.order), failures

    def certificates(self, it):
        results = self._results(it) or []
        return sum(len(r["certificates"]) for r in results)


def _compact(cert: dict, pair: dict):
    """[permutation, signs] of a certificate whose blocks match the pair."""
    ends = [f"{cert[s]['group']}:{cert[s]['prime']}:{cert[s]['block']}"
            for s in ("source", "target")]
    if ends != [pair["source"], pair["target"]]:
        return None
    return [cert["permutation"], cert["signs"]]


class CycloArith(InProcessWorkload):
    """Seeded E(n) expression pairs: parse, add, mul, divide, galois,
    conductor and print, at every ordered pair of orders from the corpus's
    up to 60."""

    name = "cyclo-arith"
    mode = "cyclo"
    uses_corpus = False

    def __init__(self, seed, runner):
        super().__init__(seed, runner)
        self.items = make_cyclo_inputs(seed)

    def inputs(self):
        return self.items

    def check(self, it):
        results = self._results(it)
        if results is None or len(results) != len(self.items):
            return len(self.items), [f"cyclo child failed "
                                     f"(exit {it.outputs['code']})"]
        return len(self.items), []

    def check_all(self, its: list[Iteration]) -> tuple[int, list[str]]:
        """Checks the first iteration's results in full, and that every
        other iteration printed exactly the same."""
        sys.path.insert(0, str(ROOT / "src"))    # the checks use charcond
        attempted, failures = 0, []
        first = None
        for it in its:
            n, fails = self.check(it)
            attempted += n
            if fails:
                failures += fails
                continue
            if first is None:
                first = it.outputs["results"]
                for item, out in zip(self.items, first):
                    failures += [f"{item['a']} / {item['b']}: {e}"
                                 for e in cyclo_item_errors(item, out)]
            else:
                failures += [f"item {i}: output differs between iterations"
                             for i, (x, y) in enumerate(
                                 zip(first, it.outputs["results"])) if x != y]
        return attempted, failures


def make_cyclo_inputs(seed: int) -> list[dict]:
    """Pairs a, b of E(n) expressions; `k` is a Galois exponent for a."""
    shape, rng = random.Random(CYCLO_SHAPE_SEED), random.Random(seed)

    def terms(n):
        # as random_cyclo in tests/test_properties.py draws them: 1 to 3
        # terms, coefficients -6..6 over 1..4, less the sign, which the
        # seed draws (a zero coefficient there only loses a term)
        powers = {shape.randrange(n) for _ in range(shape.randint(1, 3))}
        return [(e, Fraction(shape.randint(1, 6), shape.randint(1, 4)))
                for e in sorted(powers)]

    def expression(n, parts):
        text = "".join(f"{rng.choice('+-')}{c}*E({n})^{e}" for e, c in parts)
        return text.lstrip("+")

    items = []
    for na in CYCLO_ORDERS:
        units = [k for k in range(2, na) if gcd(k, na) == 1]
        for nb in CYCLO_ORDERS:
            a = expression(na, terms(na))
            b_terms = terms(nb)
            b = expression(nb, b_terms)
            while abs(float_eval(b)[0]) < 1e-6:   # keep the divisor nonzero
                b = expression(nb, b_terms)
            items.append({"n": na, "a": a, "b": b, "k": rng.choice(units)})
    return items


WORKLOADS = {w.name: w for w in (CliCorpus, VerifySamples, IsometrySweep,
                                  CycloArith)}


# ---------------------------------------------------------------------------
# measuring


def layer_totals(it: Iteration) -> dict[str, list]:
    """Per-layer [calls, self_s at reference speed] of one traced iteration,
    plus the check_perfection calls made by searches (candidates examined)."""
    from tracer import LAYERS
    totals = {name: [0, 0.0] for name in LAYERS}
    candidates = 0
    for path, speed in it.traces:
        if not path.exists():   # the child died before writing it
            continue
        with open(path) as fh:
            data = json.load(fh)
        for name, caller, calls, self_s, _ in data["agg"]:
            totals[name][0] += calls
            totals[name][1] += self_s * speed
            if name == "isometry.check_perfection" \
                    and caller == "isometry.search_perfect_isometries":
                candidates += calls
    totals["candidates"] = candidates
    return totals


def write_trace(wl: Workload, its: list[Iteration]) -> Path:
    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"{wl.name}-seed{wl.seed}.jsonl"
    with open(path, "w") as out:
        for it in its:
            for trace, speed in it.traces:
                if not trace.exists():
                    continue
                with open(trace) as fh:
                    data = json.load(fh)
                for span in data["spans"]:
                    out.write(json.dumps({"span": span, "speed": speed})
                              + "\n")
                for name, caller, calls, self_s, total_s in data["agg"]:
                    out.write(json.dumps({"run": data["run"], "layer": name,
                                          "caller": caller, "calls": calls,
                                          "self_s": self_s,
                                          "total_s": total_s,
                                          "speed": speed}) + "\n")
    return path


def measure(wl: Workload, seconds: float, traced: bool, start: float):
    """Runs set-ups and iterations until the next would overrun `seconds`."""
    end = start + seconds
    runner = wl.runner
    setup_args = ["setup"] + (["corpus"] if wl.uses_corpus else [])
    setup_codes = [runner.child(setup_args)[1]]   # warm-up: fills .pyc files
    setups, setup_cpu, setup_cost = [], [], []

    def setup():
        begin = perf_counter()
        secs, code, _ = runner.child(setup_args)
        setups.append(secs)
        setup_cpu.append(runner.cpu)
        setup_codes.append(code)
        setup_cost.append(perf_counter() - begin)

    if not traced:
        for _ in range(SETUP_REPS):
            setup()
    kinds = [False, True] if traced else [False]
    its: list[Iteration] = []
    rounds = []
    while not runner.timed_out:
        round_start = perf_counter()
        for kind in kinds:
            its.append(wl.iterate(len(its), kind))
            if runner.timed_out:
                break
        rounds.append(perf_counter() - round_start)
        if perf_counter() + statistics.median(rounds) > end:
            break
    while setups and not runner.timed_out \
            and perf_counter() + max(setup_cost) <= end:
        setup()     # what the last iteration left over buys more set-ups
    return setups, setup_cpu, setup_codes, its


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "charcond" / "__init__.py").is_file():
        print(f"error: no charcond package under {ROOT / 'src'}; run from "
              f"the root of a charcond checkout", file=sys.stderr)
        return 2

    start = perf_counter()
    RUNS.mkdir(exist_ok=True)
    rundir = RUNS / str(os.getpid())
    rundir.mkdir()
    try:
        with Runner(rundir, start + HARD_LIMIT_S) as runner:
            wl = WORKLOADS[args.workload](args.seed, runner)
            traced = bool(args.trace)
            setups, setup_cpu, setup_codes, its = measure(
                wl, args.seconds, traced, start)
        attempted, failures = wl.check_all(its)
        bad_setups = [c for c in setup_codes if c != 0]
        attempted += len(setup_codes)
        failures += [f"set-up child: exit code {c}" for c in bad_setups]
        if traced:
            metrics = traced_metrics(wl, its)
        else:
            metrics = untraced_metrics(wl, setups, setup_cpu, its,
                                       runner.peak_kb)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for message in failures[:20]:
        print(f"FAILED {message}")
    print(f"fail_ratio {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.6g}")
    if metrics is None:
        print(f"error: the {HARD_LIMIT_S} s limit stopped the run before "
              f"it had the iterations its metrics are taken from",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def untraced_metrics(wl, setups, setup_cpu, its, peak_kb):
    """The end-to-end metrics, or None when the hard time limit left no
    iteration to take them from."""
    if not its or not setups:
        return None
    walls = [it.wall for it in its]
    keys = dict.fromkeys(key for it in its for key in it.items)
    per_item = {key: statistics.median(it.items[key] for it in its
                                       if key in it.items)
                for key in keys}
    item_values = list(per_item.values()) or walls
    tail_value, tail_name = tail(item_values)
    print(f"workload {wl.name}  seed {wl.seed}  iterations {len(its)}  "
          f"items per iteration {len(item_values)}")
    print(f"  setup_s      {statistics.median(setups):.4f} s   "
          f"median of {len(setups)} fresh interpreters (children's CPU "
          f"time {statistics.median(setup_cpu):.4f} s)")
    print(f"  wall_s       {statistics.median(walls):.4f} s   "
          f"median of {len(walls)} iterations (clock read "
          f"{statistics.median(it.raw_wall for it in its):.4f} s, children's "
          f"CPU time {statistics.median(it.cpu_wall for it in its):.4f} s)")
    print(f"  item_s.p50   {statistics.median(item_values):.4f} s   "
          f"median of {len(item_values)} per-item medians")
    print(f"  item_s.tail  {tail_value:.4f} s   {tail_name}")
    print(f"  peak_rss_mb  {peak_kb / 1024:.1f} MB  largest child")
    if isinstance(wl, CliCorpus):
        for key, val in per_item.items():
            print(f"    {key:<16} {val:.4f} s")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "item_s.p50": {"value": statistics.median(item_values), "unit": "s"},
        "item_s.tail": {"value": tail_value, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def traced_metrics(wl, its):
    """The per-layer metrics, or None when the hard time limit left no
    traced or no untraced iteration to take them from."""
    from tracer import LAYERS
    plain = [it.wall for it in its if not it.traced]
    traced = [it for it in its if it.traced]
    if not plain or not traced:
        return None
    totals = [layer_totals(it) for it in traced]
    metrics = {}
    for name in LAYERS:
        calls = statistics.median(t[name][0] for t in totals)
        self_s = statistics.median(t[name][1] for t in totals)
        metrics[f"{name}.calls"] = {"value": int(calls), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    candidates = totals[0]["candidates"]
    found = wl.certificates(traced[0])
    metrics["isometry.hit_ratio"] = {
        "value": found / candidates if candidates else 0.0, "unit": "ratio"}
    overhead = statistics.median(it.wall for it in traced) \
        / statistics.median(plain)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    path = write_trace(wl, traced)
    print(f"workload {wl.name}  seed {wl.seed}  traced iterations "
          f"{len(traced)}  untraced {len(plain)}  trace {path.relative_to(ROOT)}")
    print(f"  isometry.hit_ratio   {found} / {candidates}")
    print(f"  trace.overhead_ratio {overhead:.4f}")
    for name in LAYERS:
        t = totals[0][name]
        if t[0]:
            print(f"  {name:<40} {t[0]:>9} calls  {t[1]:9.4f} s self")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
