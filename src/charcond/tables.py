"""Group datasets: character tables, power maps, Brauer data, embeddings.

All structural data (tables, power maps, fusions, decomposition matrices) is
ingested from JSON files and validated on load, but block labels and d^u,
checked where a prime's first use derives them (`GroupDataset.blocks`,
`gendec`); the toolkit never multiplies group elements.  README's
"Dataset format" section describes the files ("format": 1); `_require`
checks every field's JSON type exactly.
A table's exponent rules are checked before its values are parsed, and its
orthogonality on integers, in Z[zeta_N] (`_validate_table`).  A load
checks each distinct table and Brauer block once (`_once`), and a corpus
load once across its files: section centralizers repeat the group, each
other and other files' groups.  Power maps
are checked on load and read by nothing after: a character's value at the
inverse class is the conjugate.  A subgroup's fusion must make each Res chi
a character; the load holds its Irr coordinates
(`SubgroupEmbedding.restriction`), weighted Hermitian sums on integers
(`cyclo.hermitian_int`).  A virtual character is held as its integer Irr
coordinates and a class function as its values, one per class;
`virtual_character` turns the first into the second.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from pathlib import Path

from . import blocks as _blocks
from . import gendec as _gendec
from .cyclo import (CycloNum, CycloParseError, conductor, conductor_p,
                    euler_phi, hermitian_int, int_rows, lincomb, p_part,
                    parse_cyclo, prime_factors, sum_products_int)


class DatasetError(ValueError):
    """Schema or invariant violation in a JSON input (dataset, manifest or
    certificate); message carries the field path or the failing identity."""


def _shape_fault(val, shape) -> str | None:
    """None if val has `shape`: a JSON type, matched exactly (a `bool` is
    not an `int`), or [shape] for a list of that shape.  Otherwise the
    first fault, as "[i]...: expected <type>, got <type>"."""
    kind = list if type(shape) is list else shape
    if type(val) is not kind:
        return f": expected {kind.__name__}, got {type(val).__name__}"
    # a list of one type is checked in one pass; rows, and faults, by item
    if kind is not shape and (type(shape[0]) is list
                              or set(map(type, val)) - {shape[0]}):
        for i, item in enumerate(val):
            fault = _shape_fault(item, shape[0])
            if fault:
                return f"[{i}]{fault}"
    return None


def _require(obj, key, shape, path, default=None):
    """obj[key], which must have `shape`; `default` if absent and given."""
    if not isinstance(obj, dict) or key not in obj and default is None:
        raise DatasetError(f"{path}: missing field {key!r}")
    val = obj.get(key, default)
    if type(val) is not shape:  # a list shape, or a fault
        fault = _shape_fault(val, shape)
        if fault:
            raise DatasetError(f"{path}.{key}{fault}")
    return val


_ATOM = re.compile(r"E\s*\(\s*0*(\d+)")
# the most digits a number in a value may have, and each numerator and the
# denominator of the value it parses to: the load's messages print products
# of two values, which str() must still print, and it refuses an integer
# past int()'s limit (4,300 digits by default)
DIGITS_MAX = 1000
_LONG = re.compile(r"\d{%d}" % (DIGITS_MAX + 1))
_TOO_LONG = 10 ** DIGITS_MAX  # the least integer of DIGITS_MAX + 1 digits


def _parse_values(rows, path, ambient: int,
                  parsed: dict) -> list[list[CycloNum]]:
    """Parse a matrix of values; every E(n) must lie in Q(zeta_ambient),
    which is checked before any arithmetic in Q(zeta_n) is set up.  `parsed`
    holds, under the key `ambient`, the strings this load parsed in files of
    that ambient, each checked once, and the keys of the checks `_once`
    ran."""
    strings = parsed.setdefault(ambient, {})
    for i, row in enumerate(rows):
        for j, expr in enumerate(row):
            if expr in strings:
                continue
            for atom in _ATOM.finditer(expr):
                n = atom.group(1)
                # an n longer than AMBIENT_MAX does not divide the ambient
                # order, and int() may refuse it: it is named by its length
                big = len(n) > len(str(AMBIENT_MAX))
                if big or int(n) and ambient % int(n):
                    root = f"E(n) of {len(n)} digits" if big else f"E({int(n)})"
                    raise DatasetError(f"{path}[{i}][{j}]: {root} does not "
                                       f"lie in the declared ambient "
                                       f"Q(zeta_{ambient})")
            long = _LONG.search(expr)
            if long:
                raise DatasetError(f"{path}[{i}][{j}]: integer has too many "
                                   f"digits (at position {long.start()})")
            try:
                value = strings[expr] = parse_cyclo(expr)
            except CycloParseError as ex:
                raise DatasetError(f"{path}[{i}][{j}]: {ex}") from ex
            # by magnitude: str() of the number may be what is refused,
            # and bit_length() cannot tell 10^DIGITS_MAX - 1 from _TOO_LONG
            if max(value._den, *map(abs, value._num)) >= _TOO_LONG:
                raise DatasetError(f"{path}[{i}][{j}]: value's numerator or "
                                   f"denominator exceeds {DIGITS_MAX} digits")
    return [[strings[expr] for expr in row] for row in rows]


class ClassData(namedtuple("ClassData",
                           "name size element_order power_maps")):
    """One conjugacy class; `power_maps` sends a key q to the class index
    of g^q.  The load checks that the class g^q names has the order of
    g^q, |g| / gcd(|g|, q), and that every prime of the exponent is a key;
    it does not check that other keys are prime."""

    __slots__ = ()


class CharTable:
    """Ordinary character table with class metadata."""

    def __init__(self, group_name: str, group_order: int, exponent: int,
                 classes: list[ClassData], irreducibles: list[list[CycloNum]]):
        self.group_name = group_name
        self.group_order = group_order
        self.exponent = exponent
        self.classes = classes
        self.irreducibles = irreducibles

    @cached_property
    def identity_class(self) -> int:
        return next(i for i, c in enumerate(self.classes) if c.element_order == 1)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def degree(self, i: int) -> int:
        return int(self.irreducibles[i][self.identity_class].rational_value())

    def centralizer_order(self, c: int) -> int:
        return self.group_order // self.classes[c].size

    def __repr__(self):
        return (f"CharTable({self.group_name}, order={self.group_order}, "
                f"classes={self.num_classes})")


def virtual_character(table: CharTable, coords) -> list[CycloNum]:
    """The values of sum coords_i chi_i, one per class.  The coordinates
    must be k integers: `zip` would cut a list of any other length."""
    coords, k = tuple(coords), table.num_classes
    if len(coords) != k or tuple(map(int, coords)) != coords:
        raise DatasetError(f"class function on {table.group_name}: Irr "
                           f"coordinates {coords} are not {k} integers")
    return [lincomb(zip(coords, column)) for column in zip(*table.irreducibles)]


def inner_product(table: CharTable, alpha, beta) -> CycloNum:
    """Standard scalar product (1/|G|) sum size(c) alpha(c) conj(beta(c)) of
    two class functions given by their values."""
    return lincomb((Fraction(cls.size, table.group_order), a * b.conjugate())
                   for cls, a, b in zip(table.classes, alpha, beta,
                                        strict=True) if a and b)


def char_conductor(values, p: int | None = None) -> int:
    """Conductor of a class function's values, or its p-part."""
    return conductor(values) if p is None else conductor_p(values, p)


# ---------------------------------------------------------------------------
# aggregated dataset model


class SubgroupPrimeInfo:
    """A subgroup's metadata at one prime: `correspondent_block` sends a
    G-block id to a subgroup block id."""

    def __init__(self, correspondent_block: dict[str, str], ti: bool,
                 cyclic_defect: bool):
        self.correspondent_block = correspondent_block
        self.ti, self.cyclic_defect = ti, cyclic_defect


class SubgroupEmbedding:
    """A subgroup dataset with its `fusion`, subgroup class -> ambient class,
    its `restriction`, row i the Irr coordinates of Res chi_i, and its
    `SubgroupPrimeInfo` per prime in `primes`."""

    def __init__(self, name: str, subgroup: "GroupDataset", fusion: list[int],
                 restriction: list[tuple[int, ...]]):
        self.name, self.subgroup, self.fusion = name, subgroup, fusion
        self.restriction = restriction
        self.primes: dict[int, SubgroupPrimeInfo] = {}


class PrimeData:
    """A group's data at one prime: its `blocks.BrauerData`, its
    `gendec.SectionData` in u_class order, and in `derived` what is
    computed from them on first use (`GroupDataset._held`)."""

    def __init__(self, brauer, sections: list):
        self.brauer, self.sections = brauer, sections
        self.derived: dict = {}


class GroupDataset:
    """A validated group, with its `PrimeData` per prime in `primes` and its
    `SubgroupEmbedding`s.  Nothing mutates it after loading, so what is
    derived from it at a prime is computed once, held on that `PrimeData`."""

    def __init__(self, name: str, table: CharTable, ambient: int):
        self.name, self.table, self.ambient = name, table, ambient
        self.primes: dict[int, PrimeData] = {}
        self.subgroups: list[SubgroupEmbedding] = []

    def _prime(self, p: int) -> PrimeData:
        if p not in self.primes:
            raise DatasetError(f"{self.name}: no Brauer data for p={p}")
        return self.primes[p]

    def brauer(self, p: int):
        return self._prime(p).brauer

    def sections(self, p: int):
        return self._prime(p).sections

    def _held(self, p: int, key, compute, *args):
        held = self._prime(p).derived
        if key not in held:
            held[key] = compute(*args)
        return held[key]

    def blocks(self, p: int) -> list:
        """The p-blocks, by `blocks.partition_blocks`."""
        return self._held(p, "blocks", _blocks.partition_blocks, self, p)

    def projectives(self, p: int) -> list:
        """The projective characters at p in IBr order, as Irr coordinates,
        by `blocks.projective_characters`."""
        return self._held(p, "projectives", _blocks.projective_characters,
                          self.brauer(p))

    def gendec(self, p: int):
        """All d^u at p, by `gendec.gendec_all`."""
        return self._held(p, "gendec", _gendec.gendec_all, self, p)

    def validate(self):
        """What the load leaves to first use: the block labels against the
        central characters, at every prime and in each subgroup at the
        primes its entry lists, and d^u against the ingested decomposition
        matrix at every prime."""
        for p in self.primes:
            self.blocks(p)
            self.gendec(p)
        for emb in self.subgroups:
            for q in emb.primes:
                emb.subgroup.blocks(q)


# ---------------------------------------------------------------------------
# parsing and validation


def _parse_classes(raw, path, group_order) -> list[ClassData]:
    classes = []
    for i, obj in enumerate(raw):
        cpath = f"{path}[{i}]"
        name = _require(obj, "name", str, cpath)
        size = _require(obj, "size", int, cpath)
        order = _require(obj, "order", int, cpath)
        if size < 1 or order < 1:
            raise DatasetError(f"{cpath}: size and order must be positive")
        pm_raw = _require(obj, "powermaps", dict, cpath)
        power_maps = {}
        for key in pm_raw:
            q = _prime_key(key, f"{cpath}.powermaps")
            idx = _require(pm_raw, key, int, f"{cpath}.powermaps")
            if not 0 <= idx < len(raw):
                raise DatasetError(f"{cpath}.powermaps.{key}: bad class index {idx}")
            power_maps[q] = idx
        classes.append(ClassData(name, size, order, power_maps))
    if sum(c.size for c in classes) != group_order:
        raise DatasetError(f"{path}: class sizes sum to "
                           f"{sum(c.size for c in classes)}, not {group_order}")
    return classes


def _prime_key(key: str, path: str, ambient: int = 1) -> int:
    """A JSON object key naming a prime: an integer >= 2 in plain decimal
    ("02" is not 2).  A key that shares a factor with `ambient` must be a
    prime dividing it; a key coprime to it is not tested for primality:
    trial division is unbounded on a key of thousands of digits."""
    try:
        q = int(key)
    except ValueError:
        raise DatasetError(f"{path}: non-integer prime {key!r}") from None
    if q < 2 or key != str(q):
        raise DatasetError(f"{path}: key {key!r} is not a prime in plain "
                           f"decimal")
    if gcd(q, ambient) > 1 and q not in prime_factors(ambient):
        raise DatasetError(f"{path}.{key}: {q} shares a factor with the "
                           f"ambient order {ambient} but is not a prime "
                           f"dividing it")
    return q


# a failing inner product prints in full up to this many characters, and
# a longer one as its number of terms and the first terms that fit
MESSAGE_CHARS = 200
# the largest ambient order a dataset may declare: arithmetic in Q(zeta_n)
# holds lists of n integers, and reductions mod Phi_n grow faster than n;
# at 6006 a table built to fail orthogonality slowly still fails in 0.6 s
AMBIENT_MAX = 6006


def _bounded(x: CycloNum) -> str:
    text = str(x)
    if len(text) <= MESSAGE_CHARS:
        return text
    terms, head = re.findall(r"[-+]?[^-+]+", text), ""
    for term in terms:
        if len(head) + len(term) > MESSAGE_CHARS:
            break
        head += term
    return f"with {len(terms)} terms: {head}..."


def _validate_table(table: CharTable, path: str):
    classes = table.classes
    idents = [i for i, c in enumerate(classes) if c.element_order == 1]
    if len(idents) != 1 or classes[idents[0]].size != 1:
        raise DatasetError(f"{path}: need exactly one identity class of size 1")
    ident = idents[0]
    for i, c in enumerate(classes):
        for q in prime_factors(table.exponent):
            if q not in c.power_maps:
                raise DatasetError(
                    f"{path}.classes[{i}] ({c.name}): missing power map for prime {q}")
        # also keeps identity power maps on the identity, the one order-1 class
        for q, j in c.power_maps.items():
            target_order = c.element_order // gcd(c.element_order, q)
            if classes[j].element_order != target_order:
                raise DatasetError(
                    f"{path}.classes[{i}] ({c.name}): g^{q} lands in class of order "
                    f"{classes[j].element_order}, expected {target_order}")
    k = table.num_classes
    if len(table.irreducibles) != k or any(len(r) != k for r in table.irreducibles):
        raise DatasetError(f"{path}.irreducibles: expected a {k}x{k} matrix")
    for i, row in enumerate(table.irreducibles):
        for j, v in enumerate(row):
            if table.exponent % v.order != 0:
                raise DatasetError(
                    f"{path}.irreducibles[{i}][{j}]: value of conductor {v.order} "
                    f"outside Q(zeta_{table.exponent})")
            if not v.is_algebraic_integer():
                raise DatasetError(f"{path}.irreducibles[{i}][{j}]: value {v} "
                                   f"is not an algebraic integer")
        deg = row[ident]
        if not deg.is_rational or deg.rational_value() < 1:
            raise DatasetError(f"{path}.irreducibles[{i}]: degree {deg} is not a "
                               f"positive integer")
    # row orthogonality, exact, on algebraic integers: |G| <chi_i, chi_j> is
    # a sum of w * x * conj(y) in Z[zeta_n], n the lcm of the value orders,
    # printed over |G| when a row pair fails.  For the square
    # X, X W X* = |G| I gives X* X = |G| W^-1: column orthogonality follows.
    # Not `hermitian_int`: this runs on every load, and the upper triangle,
    # stopping at the first failing pair, takes k(k+1)/2 sums, not k^2
    n, rows = int_rows(table.irreducibles)
    conj = [[[(-e, a) for e, a in x] for x in row] for row in rows]
    sizes, zeros = [c.size for c in classes], [0] * (euler_phi(n) - 1)
    for i in range(k):
        for j in range(i, k):
            want = [table.group_order if i == j else 0] + zeros
            vec = sum_products_int(n, zip(sizes, rows[i], conj[j]))
            if vec != want:
                raise DatasetError(
                    f"{path}: row orthogonality fails for rows {i},{j} "
                    f"(inner product "
                    f"{_bounded(CycloNum(n, vec, table.group_order))})")
    if not any(all(v == 1 for v in row) for row in table.irreducibles):
        raise DatasetError(f"{path}.irreducibles: no trivial character")


def _once(parsed: dict, key: tuple, check, *args):
    """check(*args), unless this load has passed it on an equal key, in
    this file or an earlier one of a corpus: a key holds everything the
    check reads but the path in its messages, and, being a tuple, is never
    an ambient."""
    if key not in parsed:
        check(*args)
        parsed[key] = True


def _parse_table(obj, path: str, ambient: int, parsed: dict) -> tuple:
    """(table, key): the key of its `_validate_table`, as `_once` reads it."""
    name = _require(obj, "name", str, path)
    order = _require(obj, "order", int, path)
    exponent = _require(obj, "exponent", int, path)
    if exponent < 1 or ambient % exponent != 0:
        raise DatasetError(f"{path}.exponent: {exponent} does not divide the "
                           f"declared ambient order {ambient}")
    classes = _parse_classes(_require(obj, "classes", list, path),
                             f"{path}.classes", order)
    orders_lcm = lcm(*[c.element_order for c in classes])
    if exponent != orders_lcm:
        raise DatasetError(f"{path}.exponent: {exponent} is not the lcm "
                           f"{orders_lcm} of the class element orders")
    if order % exponent != 0:
        raise DatasetError(f"{path}.exponent: {exponent} does not divide the "
                           f"group order {order}")
    raw = _require(obj, "irreducibles", [[str]], path)
    table = CharTable(name, order, exponent, classes, _parse_values(
        raw, f"{path}.irreducibles", ambient, parsed))
    key = ("table", repr((order, exponent, [c[1:] for c in classes], raw)))
    _once(parsed, key, _validate_table, table, path)
    return table, key


def _parse_prime_block(table: CharTable, table_key: tuple, obj, p: int,
                       path: str, ambient: int, parsed: dict):
    regular = _require(obj, "regular_classes", [int], path)
    want_regular = [i for i, c in enumerate(table.classes)
                    if c.element_order % p != 0]
    if sorted(regular) != want_regular:
        raise DatasetError(f"{path}.regular_classes: got {regular}, the p-regular "
                           f"classes are {want_regular}")
    raw = _require(obj, "ibr", [[str]], path)
    ibr = _parse_values(raw, f"{path}.ibr", ambient, parsed)
    dec = _require(obj, "decomposition", [[int]], path)
    for i, row in enumerate(dec):
        if len(row) != len(ibr):
            raise DatasetError(f"{path}.decomposition[{i}]: expected "
                               f"{len(ibr)} columns")
        for j, e in enumerate(row):
            if e < 0:
                raise DatasetError(f"{path}.decomposition[{i}][{j}]: entries must "
                                   f"be non-negative, got {e}")
    block_of_irr = _require(obj, "block_of_irr", [str], path)
    block_of_ibr = _require(obj, "block_of_ibr", [str], path)
    if len(block_of_irr) != table.num_classes or len(block_of_ibr) != len(ibr):
        raise DatasetError(f"{path}: block label lists have wrong lengths")
    bd = _blocks.BrauerData(p=p, regular_classes=regular, ibr=ibr,
                            decomposition=dec, block_of_irr=block_of_irr,
                            block_of_ibr=block_of_ibr)
    _once(parsed, (table_key, p, repr((regular, raw, dec, block_of_irr,
                                       block_of_ibr))),
          _blocks.validate_brauer, table, bd, path)
    return bd


def _parse_group(obj, path: str, ambient: int, parsed: dict,
                 sections=False) -> GroupDataset:
    """A table plus its Brauer data at each prime, and with `sections` the
    p-sections listed there (only a file's top-level group has them)."""
    table, table_key = _parse_table(obj, path, ambient, parsed)
    ds = GroupDataset(table.group_name, table, ambient)
    for key, pobj in _require(obj, "primes", dict, path, {}).items():
        q = _prime_key(key, f"{path}.primes", ambient)
        ppath = f"{path}.primes.{key}"
        bd = _parse_prime_block(table, table_key, pobj, q, ppath, ambient,
                                parsed)
        ds.primes[q] = PrimeData(bd, [])
        if sections:
            ds.primes[q].sections = _parse_sections(ds, pobj, q, ppath,
                                                    ambient, parsed)
    return ds


def _block_map(obj, path: str, source: GroupDataset, target: GroupDataset,
               p: int) -> dict[str, str]:
    """A correspondence of p-block labels, read from obj's optional
    "correspondent_block": each key names a block of `source` and each value
    one of `target`."""
    mapping = _require(obj, "correspondent_block", dict, path, {})
    path += ".correspondent_block"
    for key in mapping:
        val = _require(mapping, key, str, path)
        for label, ds in ((key, source), (val, target)):
            if p not in ds.primes or label not in ds.brauer(p).block_of_irr:
                raise DatasetError(f"{path}.{key}: {ds.name} has no block "
                                   f"{label!r} at p={p}")
    return mapping


def _parse_section(ds: GroupDataset, obj, p: int, path: str, ambient: int,
                   parsed: dict):
    u_class = _require(obj, "u_class", int, path)
    cent = _parse_group(_require(obj, "centralizer", dict, path),
                        f"{path}.centralizer", ambient, parsed)
    if p not in cent.primes:
        raise DatasetError(f"{path}.centralizer.primes: missing Brauer data "
                           f"for p={p}")
    sec = _gendec.SectionData(
        u_class=u_class, centralizer=cent,
        fusion=_require(obj, "fusion", [int], path),
        u_in_centralizer=_require(obj, "u_in_centralizer", int, path),
        u_times=_require(obj, "u_times", [int], path),
        correspondent_block=_block_map(obj, path, cent, ds, p))
    _gendec.validate_section(ds.table, sec, p, path)
    return sec


def _parse_sections(ds: GroupDataset, obj, p: int, path: str, ambient: int,
                    parsed: dict) -> list:
    """The p-sections in obj, one per p-element class, in u_class order."""
    sections = [
        _parse_section(ds, sobj, p, f"{path}.sections[{i}]", ambient, parsed)
        for i, sobj in enumerate(_require(obj, "sections", list, path, []))]
    p_classes = [i for i, c in enumerate(ds.table.classes)
                 if p_part(c.element_order, p) == c.element_order]
    if sorted(s.u_class for s in sections) != p_classes:
        raise DatasetError(f"{path}.sections: need exactly one section per "
                           f"p-element class {p_classes}")
    return sorted(sections, key=lambda s: s.u_class)


def _validate_fusion(sub: CharTable, amb: CharTable, fusion, path: str):
    if len(fusion) != sub.num_classes:
        raise DatasetError(f"{path}: expected {sub.num_classes} entries")
    for c, target in enumerate(fusion):
        if not 0 <= target < amb.num_classes:
            raise DatasetError(f"{path}[{c}]: bad ambient class index {target}")
        # so the identity, the one class of order 1, fuses to the identity
        if sub.classes[c].element_order != amb.classes[target].element_order:
            raise DatasetError(f"{path}[{c}]: fusion does not preserve element "
                               f"order ({sub.classes[c].element_order} vs "
                               f"{amb.classes[target].element_order})")
        cent_sub = sub.group_order // sub.classes[c].size
        cent_amb = amb.group_order // amb.classes[target].size
        if cent_amb % cent_sub != 0:
            raise DatasetError(f"{path}[{c}]: centralizer order {cent_sub} does "
                               f"not divide ambient centralizer order {cent_amb}")


def _restriction(sub: CharTable, amb: CharTable, fusion,
                 path: str) -> list[tuple[int, ...]]:
    """Row i: the Irr(H) coordinates of Res chi_i, from |H| <Res chi, psi>
    as one integer sum in Z[zeta_n] per (chi, psi); each must be a
    non-negative multiple of |H| (Res chi is a character), or the fusion
    is not a restriction."""
    n, chis, psis = int_rows([[row[t] for t in fusion]
                              for row in amb.irreducibles], sub.irreducibles)
    order = sub.group_order
    sums = hermitian_int(n, [c.size for c in sub.classes], chis, psis)
    for i, row in enumerate(sums):
        for j, vec in enumerate(row):
            kind = "virtual " if any(vec[1:]) or vec[0] % order else ""
            if kind or vec[0] < 0:
                raise DatasetError(
                    f"{path}: restriction of irreducible {i} is not a "
                    f"{kind}character of {sub.group_name} (coefficient "
                    f"{CycloNum(n, vec, order)} at irreducible {j})")
    return [tuple(vec[0] // order for vec in row) for row in sums]


def _read_json(path):
    """The JSON document in the file; a file that cannot be read, is not
    UTF-8, is not JSON or nests too deeply to parse is a `DatasetError`
    naming it."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    # JSONDecodeError, UnicodeDecodeError; RecursionError on deep nesting
    except (OSError, ValueError, RecursionError) as ex:
        raise DatasetError(f"{path}: cannot read JSON ({ex})") from ex


def _require_format(raw, root: str):
    """A dataset or manifest must say "format": 1."""
    fmt = _require(raw, "format", int, root)
    if fmt != 1:
        raise DatasetError(f"{root}.format: unsupported format {fmt}")


def load_dataset(path, parsed: dict | None = None) -> GroupDataset:
    """Load and validate one group dataset file.  `parsed` is the memo of
    `_parse_values` and `_once`, shared by the files of one corpus load."""
    path = Path(path)
    raw = _read_json(path)
    root = path.name
    _require_format(raw, root)
    ambient = _require(raw, "ambient", int, root)
    if ambient < 1:
        raise DatasetError(f"{root}.ambient: must be a positive integer, "
                           f"got {ambient}")
    if ambient > AMBIENT_MAX:
        raise DatasetError(f"{root}.ambient: {ambient} exceeds the largest "
                           f"supported order {AMBIENT_MAX}")
    exponent = _require(raw, "exponent", int, root)
    if exponent != ambient:
        raise DatasetError(f"{root}.exponent: {exponent} is not the declared "
                           f"ambient order {ambient}")
    parsed = {} if parsed is None else parsed
    ds = _parse_group(raw, root, ambient, parsed, sections=True)
    for i, sobj in enumerate(_require(raw, "subgroups", list, root, [])):
        spath = f"{root}.subgroups[{i}]"
        name = _require(sobj, "name", str, spath)
        fusion = _require(sobj, "fusion", [int], spath)
        sub_primes_meta = _require(sobj, "primes", dict, spath, {})
        sub = _parse_group(_require(sobj, "table", dict, spath),
                           f"{spath}.table", ambient, parsed)
        _validate_fusion(sub.table, ds.table, fusion, f"{spath}.fusion")
        emb = SubgroupEmbedding(name, sub, fusion, _restriction(
            sub.table, ds.table, fusion, f"{spath}.fusion"))
        for key in sub_primes_meta:
            q = _prime_key(key, f"{spath}.primes")
            meta = _require(sub_primes_meta, key, dict, f"{spath}.primes")
            qpath = f"{spath}.primes.{key}"
            if q not in sub.primes:
                raise DatasetError(f"{qpath}: subgroup table has no "
                                   f"Brauer data at p={q}")
            emb.primes[q] = SubgroupPrimeInfo(
                correspondent_block=_block_map(meta, qpath, ds, sub, q),
                ti=_require(meta, "ti", bool, qpath, False),
                cyclic_defect=_require(meta, "cyclic_defect", bool, qpath,
                                       False))
        ds.subgroups.append(emb)
    return ds


# ---------------------------------------------------------------------------
# corpus access


def default_corpus_dir() -> Path:
    return Path(__file__).parent / "data"


def load_manifest(corpus_dir=None) -> dict:
    """The corpus manifest, of "format" 1, whose "groups" entries each name
    a dataset "file"; the datasets own everything else about their
    groups."""
    corpus_dir = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    manifest = corpus_dir / "manifest.json"
    raw = _read_json(manifest)
    _require_format(raw, manifest.name)
    for i, entry in enumerate(_require(raw, "groups", list, manifest.name)):
        _require(entry, "file", str, f"{manifest.name}.groups[{i}]")
    return raw


def load_corpus(corpus_dir=None) -> dict[str, GroupDataset]:
    """Load every group listed in the corpus manifest, in manifest order."""
    corpus_dir = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    out: dict[str, GroupDataset] = {}
    parsed = {}
    for i, entry in enumerate(load_manifest(corpus_dir)["groups"]):
        ds = load_dataset(corpus_dir / entry["file"], parsed)
        if ds.name in out:
            raise DatasetError(f"manifest.json.groups[{i}]: {entry['file']} "
                               f"loads group {ds.name!r} a second time")
        out[ds.name] = ds
    return out
