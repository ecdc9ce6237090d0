"""Command-line interface: dataset validation, conductor and block reports,
theorem verification over the corpus, and perfect-isometry search/checking.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 bad data,
3 usage error, 141 (128 + SIGPIPE) the reader closed the output early.
Output is deterministic for fixed inputs, seed and format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Every module loads here.  tables (with blocks, gendec, cyclo, residue) goes
# first: loading isometry first raises the peak resident set by about 0.8 MB.
from .tables import DatasetError, _read_json, char_conductor, load_corpus
from . import isometry, verify
from .blocks import BlockError, cartan_matrix
from .cyclo import cyclo_to_str
from .gendec import GendecError, check_second_main

EXIT_OK, EXIT_CHECK, EXIT_DATA, EXIT_USAGE, EXIT_PIPE = 0, 1, 2, 3, 141


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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", metavar="DIR",
                        help="dataset directory (default: shipped corpus)")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON records")
    fmt.add_argument("--csv", action="store_true", help="emit CSV records")
    # each subcommand takes only the flags it reads; `_selection` reads both
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--group", metavar="NAME", help="restrict to one group")
    select = argparse.ArgumentParser(add_help=False, parents=[group])
    select.add_argument("--prime", type=int, metavar="P",
                        help="restrict to one prime")

    def add(name, help_text, *parents):
        return sub.add_parser(name, help=help_text, parents=[common, *parents])

    def count(text: str) -> int:  # an integer N >= 0
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"{text} is negative")
        return int(text)

    add("validate", "load and validate datasets", group)
    add("conductors", "conductor table per irreducible character", select)
    add("gendec", "dump the generalised decomposition matrix", select)
    add("blocks", "block partition, defects and Cartan matrices", select)
    verify_args = add("verify", "run the theorem verification suites", select)
    verify_args.add_argument("--samples", type=count, default=5,
                             help="random virtual characters per block")
    verify_args.add_argument("--seed", type=int, default=0, help="seed for "
                             "random virtual characters (default 0)")
    search = add("isometry-search", "exhaustive perfect-isometry search")
    search.add_argument("source", metavar="GROUP:P:BLOCK")
    search.add_argument("target", metavar="GROUP:P:BLOCK")
    search.add_argument("--bound", type=count, default=6,
                        help="isometry search size bound (default 6)")
    add("isometry-check", "check an isometry certificate file").add_argument(
        "certificate", metavar="FILE")
    add("restrict-check", "subgroup restriction conductor checks", select)
    return parser


def _emit(opts, header: list[str], rows: list[list], out) -> None:
    if opts.json:
        records = [dict(zip(header, row)) for row in rows]
        json.dump(records, out, indent=2, default=str)
        out.write("\n")
    elif opts.csv:
        import csv
        csv.writer(out).writerows([header] + rows)
    else:
        widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
                  for i, h in enumerate(header)]
        for line in [header] + rows:
            out.write("  ".join(str(x).ljust(w)
                                for x, w in zip(line, widths)).rstrip() + "\n")


def _load(opts) -> dict:
    """The corpus, in which --group, when given, must name a group."""
    corpus = load_corpus(opts.corpus)
    if opts.group is not None and opts.group not in corpus:
        raise DatasetError(f"no group named {opts.group!r} in the corpus")
    return corpus


def _selection(opts):
    """(group dataset, prime) pairs matching the --group/--prime filters."""
    corpus = _load(opts)
    pairs = []
    for name, ds in corpus.items():
        if opts.group is not None and name != opts.group:
            continue
        for p in sorted(ds.primes):
            if opts.prime is not None and p != opts.prime:
                continue
            pairs.append((ds, p))
    if opts.prime is not None and not pairs:
        raise DatasetError(f"prime {opts.prime} is not covered for the "
                           f"selected group(s)")
    return corpus, pairs


def _cmd_validate(opts, out) -> int:
    rows = []
    for ds in _load(opts).values():
        if opts.group in (None, ds.name):
            ds.validate()
            rows.append([ds.name, ds.table.group_order, len(ds.primes),
                         len(ds.subgroups), "ok"])
    _emit(opts, ["group", "order", "primes", "subgroups", "status"], rows, out)
    return EXIT_OK


def _cmd_conductors(opts, out) -> int:
    _, pairs = _selection(opts)
    rows = []
    for ds, p in pairs:
        table = ds.table
        for chi in range(table.num_classes):
            values = table.irreducibles[chi]
            rows.append([ds.name, p, chi, str(values[table.identity_class]),
                         char_conductor(values), char_conductor(values, p)])
    _emit(opts, ["group", "p", "chi", "degree", "conductor", "p_part"],
          rows, out)
    return EXIT_OK


def _cmd_gendec(opts, out) -> int:
    _, pairs = _selection(opts)
    rows = []
    for ds, p in pairs:
        gm = ds.gendec(p)
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
        for b in ds.blocks(p):
            ibr = b.ibr_indices
            sub_cartan = [[cartan[i][j] for j in ibr] for i in ibr]
            rows.append([ds.name, p, b.id, b.defect,
                         " ".join(map(str, b.irr_indices)),
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
        reports = [
            verify.theorem1_suite(ds, p, samples=opts.samples,
                                  seed=opts.seed),
            verify.cor05_suite(ds, p),
            verify.projective_invariance_suite(ds, p),
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
        violations = check_second_main(ds, p)
        rows.append([ds.name, p, "section-vanishing",
                     "PASS" if not violations else "FAIL",
                     f"{len(violations)} violations"])
        failed = failed or bool(violations)
    _emit(opts, ["group", "p", "check", "status", "detail"], rows, out)
    return EXIT_CHECK if failed else EXIT_OK


def _parse_block_spec(spec: str, corpus):
    parts = spec.split(":")
    try:  # int() also refuses a number past the interpreter's digit limit
        if len(parts) != 3 or not parts[1].isdecimal():
            raise ValueError
        name, p, block_id = parts[0], int(parts[1]), parts[2]
    except ValueError:
        raise DatasetError(f"bad block spec {spec!r}; expected "
                           f"GROUP:P:BLOCK") from None
    if name not in corpus:
        raise DatasetError(f"no group named {name!r} in the corpus")
    return isometry.block_ref(corpus[name], p, block_id)


def _one_prime(src, tgt):
    """The pair of blocks of both isometry commands, which must lie at one
    prime; `isometry.search_perfect_isometries` itself does not refuse
    blocks at two primes."""
    if src.prime != tgt.prime:
        raise isometry.IsometryError(
            f"source block at p={src.prime} and target block at "
            f"p={tgt.prime}: a perfect isometry relates blocks at one prime")
    return src, tgt


def _cmd_isometry_search(opts, out) -> int:
    corpus = load_corpus(opts.corpus)
    src, tgt = _one_prime(_parse_block_spec(opts.source, corpus),
                          _parse_block_spec(opts.target, corpus))
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
    corpus = load_corpus(opts.corpus)
    cand = isometry.candidate_from_json(_read_json(opts.certificate), corpus)
    _one_prime(cand.source, cand.target)
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
    except (DatasetError, BlockError, GendecError,
            isometry.IsometryError) as exc:
        print(f"charcond: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a closed reader shows here, not at exit
    except BrokenPipeError:
        # the reader stopped early, as `| head` does; stdout goes to devnull
        # so that the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
