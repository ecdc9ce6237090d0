"""Command-line interface: dataset validation, conductor and block reports,
theorem verification over the corpus, and perfect-isometry search/checking.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 bad data,
3 usage error.  Output is deterministic for fixed inputs, seed and format.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import isometry, verify
from .blocks import BlockError, cartan_matrix, partition_blocks
from .cyclo import cyclo_to_str
from .gendec import GendecError, check_second_main, gendec_all
from .tables import (DatasetError, char_conductor, default_corpus_dir,
                     load_corpus, load_manifest)

EXIT_OK, EXIT_CHECK, EXIT_DATA, EXIT_USAGE = 0, 1, 2, 3


class _Args(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Args:
    parser = _Args(prog="charcond",
                   description="Conductors, generalised decomposition "
                               "numbers and block data of small groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, extra=()):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--corpus", metavar="DIR",
                        help="dataset directory (default: shipped corpus)")
        sp.add_argument("--group", metavar="NAME",
                        help="restrict to one group")
        sp.add_argument("--prime", type=int, metavar="P",
                        help="restrict to one prime")
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true",
                         help="emit JSON records")
        fmt.add_argument("--csv", action="store_true",
                         help="emit CSV records")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for random virtual characters (default 0)")
        sp.add_argument("--bound", type=int, default=6,
                        help="isometry search size bound (default 6)")
        for args, kwargs in extra:
            sp.add_argument(*args, **kwargs)
        return sp

    add("validate", "load and validate datasets")
    add("conductors", "conductor table per irreducible character")
    add("gendec", "dump the generalised decomposition matrix")
    add("blocks", "block partition, defects and Cartan matrices")
    add("verify", "run the theorem verification suites",
        [(("--samples",), {"type": int, "default": 5,
                           "help": "random virtual characters per block"})])
    add("isometry-search", "exhaustive perfect-isometry search",
        [(("source",), {"metavar": "GROUP:P:BLOCK"}),
         (("target",), {"metavar": "GROUP:P:BLOCK"})])
    add("isometry-check", "check an isometry certificate file",
        [(("certificate",), {"metavar": "FILE"})])
    add("restrict-check", "subgroup restriction conductor checks")
    return parser


def _emit(opts, header: list[str], rows: list[list], out) -> None:
    if opts.json:
        records = [dict(zip(header, row)) for row in rows]
        json.dump(records, out, indent=2, default=str)
        out.write("\n")
    elif opts.csv:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    else:
        widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
                  for i, h in enumerate(header)]
        for line in [header] + rows:
            out.write("  ".join(str(x).ljust(w)
                                for x, w in zip(line, widths)).rstrip() + "\n")


def _selection(opts):
    """(group dataset, prime) pairs matching the --group/--prime filters."""
    corpus_dir = opts.corpus or default_corpus_dir()
    manifest = load_manifest(corpus_dir)
    corpus = load_corpus(corpus_dir)
    primes = {e["name"]: e["primes"] for e in manifest["groups"]}
    if opts.group is not None and opts.group not in corpus:
        raise DatasetError(f"no group named {opts.group!r} in the corpus")
    pairs = []
    for name, ds in corpus.items():
        if opts.group is not None and name != opts.group:
            continue
        for p in primes[name]:
            if opts.prime is not None and p != opts.prime:
                continue
            pairs.append((ds, p))
    if opts.prime is not None and not pairs:
        raise DatasetError(f"prime {opts.prime} is not covered for the "
                           f"selected group(s)")
    return corpus, pairs


def _cmd_validate(opts, out) -> int:
    corpus_dir = opts.corpus or default_corpus_dir()
    corpus = load_corpus(corpus_dir)
    rows = [[ds.name, ds.table.group_order, len(ds.primes),
             len(ds.subgroups), "ok"]
            for ds in corpus.values()
            if opts.group in (None, ds.name)]
    _emit(opts, ["group", "order", "primes", "subgroups", "status"], rows, out)
    return EXIT_OK


def _cmd_conductors(opts, out) -> int:
    _, pairs = _selection(opts)
    rows = []
    for ds, p in pairs:
        table = ds.table
        for chi in range(table.num_classes):
            fn = table.irreducible(chi)
            rows.append([ds.name, p, chi,
                         str(table.irreducibles[chi][table.identity_class]),
                         char_conductor(fn), char_conductor(fn, p)])
    _emit(opts, ["group", "p", "chi", "degree", "conductor", "p_part"],
          rows, out)
    return EXIT_OK


def _cmd_gendec(opts, out) -> int:
    _, pairs = _selection(opts)
    rows = []
    for ds, p in pairs:
        gm = gendec_all(ds, p)
        for u, phi in gm.columns:
            col = gm.entries[(u, phi)]
            for chi, val in enumerate(col):
                if val:
                    rows.append([ds.name, p, ds.table.classes[u].name, phi,
                                 chi, cyclo_to_str(val)])
    _emit(opts, ["group", "p", "u_class", "phi", "chi", "value"], rows, out)
    return EXIT_OK


def _cmd_blocks(opts, out) -> int:
    _, pairs = _selection(opts)
    rows = []
    for ds, p in pairs:
        bd = ds.brauer(p)
        cartan = cartan_matrix(bd)
        for b in partition_blocks(ds, p):
            ibr = sorted(b.ibr_indices)
            sub_cartan = [[cartan[i][j] for j in ibr] for i in ibr]
            rows.append([ds.name, p, b.id, b.defect,
                         " ".join(map(str, sorted(b.irr_indices))),
                         " ".join(map(str, ibr)),
                         json.dumps(sub_cartan)])
    _emit(opts, ["group", "p", "block", "defect", "irr", "ibr", "cartan"],
          rows, out)
    return EXIT_OK


def _cmd_verify(opts, out) -> int:
    _, pairs = _selection(opts)
    rows = []
    failed = False
    for ds, p in pairs:
        gm = gendec_all(ds, p)
        reports = [
            verify.theorem1_suite(ds, p, samples=opts.samples,
                                  seed=opts.seed, gm=gm),
            verify.cor05_suite(ds, p, gm=gm),
            verify.projective_invariance_suite(ds, p, gm=gm),
            verify.check_restriction_props(ds, p),
        ]
        for rep in reports:
            if rep.not_applicable:
                status, detail = "n/a", "no subgroup data"
            elif rep.passed:
                status, detail = "PASS", f"{len(rep.records)} records"
            else:
                bad = next(r for r in rep.records if not r.passed)
                status = "FAIL"
                detail = f"{bad.check} {bad.character}: {bad.lhs} != {bad.rhs}"
                failed = True
            rows.append([ds.name, p, rep.check_name, status, detail])
        violations = check_second_main(ds, p, gm)
        rows.append([ds.name, p, "section-vanishing",
                     "PASS" if not violations else "FAIL",
                     f"{len(violations)} violations"])
        failed = failed or bool(violations)
    _emit(opts, ["group", "p", "check", "status", "detail"], rows, out)
    return EXIT_CHECK if failed else EXIT_OK


def _parse_block_spec(spec: str, corpus):
    parts = spec.split(":")
    if len(parts) != 3 or not parts[1].isdigit():
        raise DatasetError(f"bad block spec {spec!r}; expected GROUP:P:BLOCK")
    name, p, block_id = parts[0], int(parts[1]), parts[2]
    if name not in corpus:
        raise DatasetError(f"no group named {name!r} in the corpus")
    return isometry.block_ref(corpus[name], p, block_id)


def _cmd_isometry_search(opts, out) -> int:
    corpus = load_corpus(opts.corpus or default_corpus_dir())
    src = _parse_block_spec(opts.source, corpus)
    tgt = _parse_block_spec(opts.target, corpus)
    found = isometry.search_perfect_isometries(src, tgt, bound=opts.bound)
    if opts.json:
        json.dump([c.to_json() for c in found], out, indent=2)
        out.write("\n")
    else:
        rows = [[i, " ".join(map(str, c.permutation)),
                 " ".join(f"{s:+d}" for s in c.signs)]
                for i, c in enumerate(found)]
        _emit(opts, ["index", "permutation", "signs"], rows, out)
    return EXIT_OK if found else EXIT_CHECK


def _cmd_isometry_check(opts, out) -> int:
    corpus = load_corpus(opts.corpus or default_corpus_dir())
    with open(opts.certificate) as handle:
        data = json.load(handle)
    cand = isometry.candidate_from_json(data, corpus)
    rep = isometry.check_perfection(cand)
    rows = [["is_isometry", rep.is_isometry],
            ["integrality_ok", rep.integrality_ok],
            ["separation_ok", rep.separation_ok],
            ["conductor_preserved", rep.conductor_preserved],
            ["l0_preserved", rep.l0_preserved],
            ["perfect", rep.perfect]]
    _emit(opts, ["condition", "result"], rows, out)
    ok = rep.perfect and rep.conductor_preserved and rep.l0_preserved
    return EXIT_OK if ok else EXIT_CHECK


def _cmd_restrict_check(opts, out) -> int:
    _, pairs = _selection(opts)
    rows = []
    failed = False
    for ds, p in pairs:
        rep = verify.check_restriction_props(ds, p)
        if rep.not_applicable:
            continue
        for rec in rep.records:
            rows.append([ds.name, p, rec.check, rec.character,
                         str(rec.lhs), str(rec.rhs),
                         "PASS" if rec.passed else "FAIL"])
            failed = failed or not rec.passed
    _emit(opts, ["group", "p", "check", "character", "lhs", "rhs", "status"],
          rows, out)
    return EXIT_CHECK if failed else EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "conductors": _cmd_conductors,
    "gendec": _cmd_gendec,
    "blocks": _cmd_blocks,
    "verify": _cmd_verify,
    "isometry-search": _cmd_isometry_search,
    "isometry-check": _cmd_isometry_check,
    "restrict-check": _cmd_restrict_check,
}


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    opts = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[opts.command](opts, out)
    except (DatasetError, BlockError, GendecError, isometry.IsometryError,
            OSError, json.JSONDecodeError) as exc:
        print(f"charcond: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
