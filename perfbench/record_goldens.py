#!/usr/bin/env python3
"""Record the goldens the benchmark checks outputs against.

    python3 perfbench/record_goldens.py

Run it only on the commit whose outputs define "correct": the goldens are
byte-exact CLI outputs and the ordered certificate lists of every
isometry-sweep pair, and a later change must reproduce them exactly.  Each
output comes from a fresh, untraced interpreter, as in the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
from math import factorial
from time import perf_counter

import run
from checks import GOLDEN


def _cli(runner, argv):
    _, code, out = runner.child(["cli", "-", "golden", "--", *argv])
    if code != 0:
        raise SystemExit(f"charcond {' '.join(argv)}: exit code {code}")
    return out.decode()


def sweep_pairs():
    """Ordered pairs of equal-size blocks with nonzero defect within the
    default search bound, in manifest order."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from charcond import load_corpus, partition_blocks
    from charcond.tables import load_manifest
    corpus = load_corpus()
    blocks = []
    for entry in load_manifest()["groups"]:
        for p in entry["primes"]:
            for b in partition_blocks(corpus[entry["name"]], p):
                if b.defect > 0 and len(b.irr_indices) <= 6:
                    blocks.append((f"{entry['name']}:{p}:{b.id}",
                                   len(b.irr_indices)))
    return [(s, t, n) for s, n in blocks for t, m in blocks if n == m]


def main():
    GOLDEN.mkdir(exist_ok=True)
    run.RUNS.mkdir(exist_ok=True)
    rundir = run.RUNS / "golden"
    rundir.mkdir(exist_ok=True)
    try:
        with run.Runner(rundir, perf_counter() + 3600) as runner:
            commands = {name: _cli(runner, argv)
                        for name, argv in run.CLI_COMMANDS.items()}
            certs = json.loads(commands["isometry-search"])
            checks = []
            for i, cert in enumerate(certs):
                path = rundir / f"cert{i}.json"
                path.write_text(json.dumps(cert))
                checks.append(_cli(runner, ["isometry-check", str(path)]))
            _write("cli-corpus", {"commands": commands, "certificates": certs,
                                  "isometry-check": checks})

            argv = ["verify", "--samples", "200", "--seed"]
            outs = {seed: _cli(runner, argv + [str(seed)]) for seed in (1, 7)}
            if outs[1] != outs[7]:
                raise SystemExit("verify --samples 200 output depends on "
                                 "the seed")
            _write("verify-samples", {"stdout": outs[1]})

            pairs = sweep_pairs()
            in_path = rundir / "sweep-in.json"
            out_path = rundir / "sweep-out.json"
            in_path.write_text(json.dumps([[s, t] for s, t, _ in pairs]))
            _, code, _ = runner.child(["sweep", "-", "golden", str(in_path),
                                       str(out_path)])
            if code != 0:
                raise SystemExit(f"sweep child: exit code {code}")
            with open(out_path) as fh:
                results = json.load(fh)
            golden = [{"source": r["source"], "target": r["target"],
                       "certificates": [[c["permutation"], c["signs"]]
                                        for c in r["certificates"]]}
                      for r in results]
            with open(GOLDEN / "isometry-sweep.json", "w") as fh:
                fh.write('{"bound": 6, "pairs": [\n')
                fh.write(",\n".join(json.dumps(p) for p in golden))
                fh.write("\n]}\n")
            candidates = sum(2 ** n * factorial(n) for _, _, n in pairs)
            found = sum(len(p["certificates"]) for p in golden)
            print(f"{len(pairs)} sweep pairs, {candidates} candidates, "
                  f"{found} certificates")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _write(name, data):
    with open(GOLDEN / f"{name}.json", "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
