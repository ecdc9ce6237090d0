"""One benchmark child process: a fresh interpreter doing one unit of work.

    python3 perfbench/child.py PROBES setup [corpus]
    python3 perfbench/child.py PROBES cli TRACE RUN_ID -- ARGV...
    python3 perfbench/child.py PROBES sweep TRACE RUN_ID INPUT OUTPUT
    python3 perfbench/child.py PROBES cyclo TRACE RUN_ID INPUT OUTPUT

Every child runs the speed probes of ``speed.py`` and writes their clock
readings to PROBES.  TRACE is a file to write the trace to, or "-" to run
untraced.  `cli` installs the wrappers (when tracing) and then calls
``charcond.cli.run``, so its standard output is exactly the CLI's.  `sweep`
and `cyclo` read their generated inputs from INPUT and write verdicts and
the clock readings around each item to OUTPUT.  The charcond package is
always imported from the ``src`` directory of the checkout this file sits
in.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from speed import Probes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_charcond():
    sys.path.insert(0, str(SRC))
    import charcond
    if not Path(charcond.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"charcond imported from {charcond.__file__}, "
                         f"not from {SRC}")
    return charcond


def _sweep(pairs):
    from charcond import isometry, tables
    corpus = tables.load_corpus()

    def ref(spec):
        name, p, block = spec.split(":")
        return isometry.block_ref(corpus[name], int(p), block)

    out = []
    for src, tgt in pairs:
        start = perf_counter()
        found = isometry.search_perfect_isometries(ref(src), ref(tgt))
        certs = [c.to_json() for c in found]
        out.append({"source": src, "target": tgt, "certificates": certs,
                    "t": [start, perf_counter()]})
    return out


def _cyclo(items):
    from charcond import cyclo
    out = []
    for item in items:
        start = perf_counter()
        a = cyclo.parse_cyclo(item["a"])
        b = cyclo.parse_cyclo(item["b"])
        values = (a + b, a * b, a / b, a.galois(item["k"]))
        strings = [cyclo.cyclo_to_str(v) for v in values]
        cond = cyclo.conductor([a])
        out.append({"sum": strings[0], "prod": strings[1], "quot": strings[2],
                    "gal": strings[3], "cond": cond,
                    "t": [start, perf_counter()]})
    return out


def _work(probes, mode, args):
    if mode == "setup":
        charcond = _import_charcond()
        if args == ["corpus"]:
            charcond.load_corpus()
        return 0
    trace_path, run_id = args[0], args[1]
    _import_charcond()
    tracer = None
    if trace_path != "-":
        from tracer import Tracer
        tracer = Tracer(run_id)
        tracer.install()
        probes.on_probe = tracer.exclude
    try:
        if mode == "cli":
            from charcond import cli
            if args[2] != "--":
                raise SystemExit("cli mode: expected -- before the CLI args")
            return cli.run(args[3:])
        with open(args[2]) as fh:
            inputs = json.load(fh)
        result = {"sweep": _sweep, "cyclo": _cyclo}[mode](inputs)
        with open(args[3], "w") as fh:
            json.dump(result, fh)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


def main(argv):
    probes = Probes(argv[0])
    probes.start()
    try:
        return _work(probes, argv[1], argv[2:])
    finally:
        probes.stop()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
