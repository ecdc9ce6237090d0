"""Group datasets: character tables, power maps, Brauer data, embeddings.

All structural data (tables, power maps, fusions, decomposition matrices) is
ingested from JSON files and validated eagerly; the toolkit never multiplies
group elements.  See `docs in README` for the file format ("format": 1).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .cyclo import (ONE, ZERO, CycloNum, CycloParseError, conductor,
                    conductor_p, lincomb, parse_cyclo)


class DatasetError(ValueError):
    """Schema or invariant violation in a dataset file; message carries the
    offending field path or the failing identity."""


def _require(obj, key, kind, path):
    if not isinstance(obj, dict) or key not in obj:
        raise DatasetError(f"{path}: missing field {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise DatasetError(f"{path}.{key}: expected {kind.__name__}, "
                           f"got {type(val).__name__}")
    return val


def _parse_value(expr, path) -> CycloNum:
    if not isinstance(expr, str):
        raise DatasetError(f"{path}: cyclotomic values must be strings")
    try:
        return parse_cyclo(expr)
    except CycloParseError as ex:
        raise DatasetError(f"{path}: {ex}") from ex


@dataclass(frozen=True)
class ClassData:
    name: str
    size: int
    element_order: int
    power_maps: dict[int, int]   # prime -> class index of g^q


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

    def irreducible(self, i: int) -> "ClassFunction":
        unit = [1 if j == i else 0 for j in range(self.num_classes)]
        return ClassFunction(self, self.irreducibles[i], unit)

    def __repr__(self):
        return (f"CharTable({self.group_name}, order={self.group_order}, "
                f"classes={self.num_classes})")


class ClassFunction:
    """A class function with exact cyclotomic values.

    `coords`, its integer coordinates over Irr(G), is passed only where they
    are true by construction; otherwise inner products recover them."""

    def __init__(self, table: CharTable, values, coords=None):
        self.table = table
        self.values = tuple(values)
        k = table.num_classes
        if len(self.values) != k:
            raise DatasetError(f"class function on {table.group_name}: "
                               f"{len(self.values)} values for {k} classes")
        if coords is not None:
            ints = tuple(int(c) for c in coords)
            if len(ints) != k or ints != tuple(coords):
                raise DatasetError(f"class function on {table.group_name}: Irr "
                                   f"coordinates {coords} are not {k} integers")
            coords = ints
        self._coords = coords

    def __call__(self, c: int) -> CycloNum:
        return self.values[c]

    def _coords_with(self, other, op):
        if self._coords is None or other._coords is None:
            return None
        return [op(a, b) for a, b in zip(self._coords, other._coords)]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        assert self.table is other.table
        return ClassFunction(self.table,
                             [a + b for a, b in zip(self.values, other.values)],
                             self._coords_with(other, operator.add))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        assert self.table is other.table
        return ClassFunction(self.table,
                             [a - b for a, b in zip(self.values, other.values)],
                             self._coords_with(other, operator.sub))

    def __rmul__(self, k: int) -> "ClassFunction":
        coords = None
        if self._coords is not None and isinstance(k, int):
            coords = [k * c for c in self._coords]
        return ClassFunction(self.table, [k * v for v in self.values], coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassFunction)
                and self.table is other.table and self.values == other.values)

    def __hash__(self):
        return hash((id(self.table), self.values))

    @cached_property
    def irr_coords(self) -> tuple[Fraction, ...] | None:
        """Coordinates over Irr(G) when rational; None otherwise."""
        if self._coords is not None:
            return tuple(Fraction(c) for c in self._coords)
        coords = []
        for i in range(self.table.num_classes):
            ip = inner_product(self, self.table.irreducible(i))
            if not ip.is_rational:
                return None
            coords.append(ip.rational_value())
        return tuple(coords)

    def integer_coords(self) -> tuple[int, ...]:
        if self._coords is not None:
            return self._coords
        coords = self.irr_coords
        if coords is None or any(c.denominator != 1 for c in coords):
            raise DatasetError(
                f"class function on {self.table.group_name} is not a virtual "
                f"character (Irr coordinates {coords})")
        return tuple(int(c) for c in coords)

    def is_virtual_character(self) -> bool:
        coords = self.irr_coords
        return coords is not None and all(c.denominator == 1 for c in coords)


def virtual_character(table: CharTable, coords) -> ClassFunction:
    """Integer combination of the irreducible characters."""
    coords = tuple(coords)
    values = [lincomb(zip(coords, column)) for column in zip(*table.irreducibles)]
    return ClassFunction(table, values, coords)


# ---------------------------------------------------------------------------
# class-function operations


def inner_product(alpha: ClassFunction, beta: ClassFunction) -> CycloNum:
    """Standard scalar product (1/|G|) sum size(c) alpha(c) conj(beta(c))."""
    if alpha.table is not beta.table:
        raise DatasetError("inner product of class functions on different tables")
    table = alpha.table
    return lincomb((Fraction(cls.size, table.group_order), a * b.conjugate())
                   for cls, a, b in zip(table.classes, alpha.values, beta.values)
                   if a and b)


def power_class(table: CharTable, c: int, k: int) -> int:
    """Class of g^k for g in class c, composed from the prime power maps."""
    if k < 0:
        raise DatasetError(f"power_class exponent must be non-negative, got {k}")
    k %= table.classes[c].element_order
    if k == 0:
        return table.identity_class
    q = 2
    while k > 1:
        while k % q == 0:
            if q not in table.classes[c].power_maps:
                raise DatasetError(
                    f"{table.group_name}: no power map for prime {q} "
                    f"(needed for exponent {k})")
            c = table.classes[c].power_maps[q]
            k //= q
        q += 1
    return c


def p_decompose(table: CharTable, c: int, p: int) -> tuple[int, int]:
    """Split g = u s = s u with u the p-part and s the p'-part of g."""
    m = table.classes[c].element_order
    pa = 1
    while m % (pa * p) == 0:
        pa *= p
    mprime = m // pa
    if pa == 1:
        return table.identity_class, c
    if mprime == 1:
        return c, table.identity_class
    # e = 1 mod p^a, e = 0 mod m'; e' complementary
    e = mprime * pow(mprime, -1, pa)
    return power_class(table, c, e), power_class(table, c, m + 1 - e)


def char_conductor(chi: ClassFunction, p: int | None = None) -> int:
    """Conductor of the value set of chi, or its p-part."""
    values = set(chi.values)
    return conductor(values) if p is None else conductor_p(values, p)


# ---------------------------------------------------------------------------
# aggregated dataset model


@dataclass
class SubgroupPrimeInfo:
    correspondent_block: dict[str, str]   # G-block id -> subgroup block id
    ti: bool = False
    covers_centralizer: bool = False
    cyclic_defect: bool = False


@dataclass
class SubgroupEmbedding:
    name: str
    subgroup: "GroupDataset"
    fusion: list[int]                     # subgroup class -> ambient class
    primes: dict[int, SubgroupPrimeInfo] = field(default_factory=dict)

    @property
    def subgroup_table(self) -> CharTable:
        return self.subgroup.table


@dataclass
class PrimeData:
    p: int
    brauer: "object"                      # blocks.BrauerData
    sections: list["object"]              # gendec.SectionData, in u_class order


@dataclass
class GroupDataset:
    name: str
    table: CharTable
    ambient: int
    primes: dict[int, PrimeData] = field(default_factory=dict)
    subgroups: list[SubgroupEmbedding] = field(default_factory=list)

    def brauer(self, p: int):
        if p not in self.primes:
            raise DatasetError(f"{self.name}: no Brauer data for p={p}")
        return self.primes[p].brauer

    def sections(self, p: int):
        return self.primes[p].sections


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
        for key, idx in pm_raw.items():
            q = _prime_key(key, f"{cpath}.powermaps")
            if not isinstance(idx, int) or not (0 <= idx < len(raw)):
                raise DatasetError(f"{cpath}.powermaps.{key}: bad class index {idx!r}")
            power_maps[q] = idx
        classes.append(ClassData(name, size, order, power_maps))
    if sum(c.size for c in classes) != group_order:
        raise DatasetError(f"{path}: class sizes sum to "
                           f"{sum(c.size for c in classes)}, not {group_order}")
    return classes


def _prime_key(key: str, path: str) -> int:
    """A JSON object key naming a prime."""
    try:
        q = int(key)
    except ValueError:
        raise DatasetError(f"{path}: non-integer prime {key!r}") from None
    if q < 2:
        raise DatasetError(f"{path}: key {key!r} is not a prime")
    return q


def _prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _validate_table(table: CharTable, path: str):
    classes = table.classes
    idents = [i for i, c in enumerate(classes) if c.element_order == 1]
    if len(idents) != 1 or classes[idents[0]].size != 1:
        raise DatasetError(f"{path}: need exactly one identity class of size 1")
    ident = idents[0]
    for i, c in enumerate(classes):
        for q in _prime_factors(table.exponent):
            if q not in c.power_maps:
                raise DatasetError(
                    f"{path}.classes[{i}] ({c.name}): missing power map for prime {q}")
        if i == ident and any(v != ident for v in c.power_maps.values()):
            raise DatasetError(f"{path}.classes[{i}]: identity power maps must be identity")
        for q, j in c.power_maps.items():
            target_order = c.element_order // (q if c.element_order % q == 0 else 1)
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
        deg = row[ident]
        if not deg.is_rational or deg.rational_value() < 1 \
                or deg.rational_value().denominator != 1:
            raise DatasetError(f"{path}.irreducibles[{i}]: degree {deg} is not a "
                               f"positive integer")
    # orthogonality, both ways, exact
    for i in range(k):
        chi_i = table.irreducible(i)
        for j in range(i, k):
            ip = inner_product(chi_i, table.irreducible(j))
            want = ONE if i == j else ZERO
            if ip != want:
                raise DatasetError(
                    f"{path}: row orthogonality fails for rows {i},{j} "
                    f"(inner product {ip})")
    for c in range(k):
        for cprime in range(c, k):
            acc = lincomb((1, row[c] * row[cprime].conjugate())
                          for row in table.irreducibles)
            want = CycloNum.from_rational(table.centralizer_order(c)) \
                if c == cprime else ZERO
            if acc != want:
                raise DatasetError(
                    f"{path}: column orthogonality fails for classes {c},{cprime}")


def _parse_table(obj, path: str, ambient: int) -> CharTable:
    name = _require(obj, "name", str, path)
    order = _require(obj, "order", int, path)
    exponent = _require(obj, "exponent", int, path)
    if ambient % exponent != 0:
        raise DatasetError(f"{path}.exponent: {exponent} does not divide the "
                           f"declared ambient order {ambient}")
    classes = _parse_classes(_require(obj, "classes", list, path),
                             f"{path}.classes", order)
    irr_raw = _require(obj, "irreducibles", list, path)
    irreducibles = [
        [_parse_value(expr, f"{path}.irreducibles[{i}][{j}]")
         for j, expr in enumerate(row)]
        for i, row in enumerate(irr_raw)
    ]
    table = CharTable(name, order, exponent, classes, irreducibles)
    _validate_table(table, path)
    return table


def _parse_prime_block(table: CharTable, obj, p: int, path: str):
    from .blocks import BrauerData, validate_brauer
    regular = _require(obj, "regular_classes", list, path)
    want_regular = [i for i, c in enumerate(table.classes)
                    if c.element_order % p != 0]
    if sorted(regular) != want_regular:
        raise DatasetError(f"{path}.regular_classes: got {regular}, the p-regular "
                           f"classes are {want_regular}")
    ibr_raw = _require(obj, "ibr", list, path)
    ibr = [[_parse_value(expr, f"{path}.ibr[{i}][{j}]")
            for j, expr in enumerate(row)] for i, row in enumerate(ibr_raw)]
    dec = _require(obj, "decomposition", list, path)
    for i, row in enumerate(dec):
        if len(row) != len(ibr):
            raise DatasetError(f"{path}.decomposition[{i}]: expected "
                               f"{len(ibr)} columns")
        for j, e in enumerate(row):
            if not isinstance(e, int) or e < 0:
                raise DatasetError(f"{path}.decomposition[{i}][{j}]: entries must "
                                   f"be non-negative integers, got {e!r}")
    block_of_irr = _require(obj, "block_of_irr", list, path)
    block_of_ibr = _require(obj, "block_of_ibr", list, path)
    if len(block_of_irr) != table.num_classes or len(block_of_ibr) != len(ibr):
        raise DatasetError(f"{path}: block label lists have wrong lengths")
    bd = BrauerData(p=p, regular_classes=list(regular), ibr=ibr,
                    decomposition=[list(r) for r in dec],
                    block_of_irr=list(block_of_irr),
                    block_of_ibr=list(block_of_ibr))
    validate_brauer(table, bd, path)
    return bd


def _parse_nested_dataset(obj, path: str, ambient: int, p: int) -> GroupDataset:
    """Centralizer / subgroup dataset: a table plus Brauer data, no sections."""
    table = _parse_table(obj, path, ambient)
    ds = GroupDataset(name=table.group_name, table=table, ambient=ambient)
    primes_raw = obj.get("primes", {})
    for key, pobj in primes_raw.items():
        q = _prime_key(key, f"{path}.primes")
        bd = _parse_prime_block(table, pobj, q, f"{path}.primes.{key}")
        ds.primes[q] = PrimeData(p=q, brauer=bd, sections=[])
    if p not in ds.primes:
        raise DatasetError(f"{path}.primes: missing Brauer data for p={p}")
    return ds


def _parse_section(ds_table: CharTable, obj, p: int, path: str, ambient: int):
    from .gendec import SectionData, validate_section
    u_class = _require(obj, "u_class", int, path)
    cent = _parse_nested_dataset(_require(obj, "centralizer", dict, path),
                                 f"{path}.centralizer", ambient, p)
    fusion = _require(obj, "fusion", list, path)
    u_in_centralizer = _require(obj, "u_in_centralizer", int, path)
    u_times = _require(obj, "u_times", list, path)
    corr = obj.get("correspondent_block", {})
    sec = SectionData(u_class=u_class, centralizer=cent, fusion=list(fusion),
                      u_in_centralizer=u_in_centralizer,
                      u_times=list(u_times),
                      correspondent_block=dict(corr))
    validate_section(ds_table, sec, p, path)
    return sec


def _validate_fusion(sub: CharTable, amb: CharTable, fusion, path: str):
    if len(fusion) != sub.num_classes:
        raise DatasetError(f"{path}: expected {sub.num_classes} entries")
    for c, target in enumerate(fusion):
        if not isinstance(target, int) or not (0 <= target < amb.num_classes):
            raise DatasetError(f"{path}[{c}]: bad ambient class index {target!r}")
        if sub.classes[c].element_order != amb.classes[target].element_order:
            raise DatasetError(f"{path}[{c}]: fusion does not preserve element "
                               f"order ({sub.classes[c].element_order} vs "
                               f"{amb.classes[target].element_order})")
        cent_sub = sub.group_order // sub.classes[c].size
        cent_amb = amb.group_order // amb.classes[target].size
        if cent_amb % cent_sub != 0:
            raise DatasetError(f"{path}[{c}]: centralizer order {cent_sub} does "
                               f"not divide ambient centralizer order {cent_amb}")
    if fusion[sub.identity_class] != amb.identity_class:
        raise DatasetError(f"{path}: identity must fuse to identity")


def load_dataset(path) -> GroupDataset:
    """Load and validate one group dataset file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as ex:
        raise DatasetError(f"{path}: not valid JSON ({ex})") from ex
    root = path.name
    fmt = _require(raw, "format", int, root)
    if fmt != 1:
        raise DatasetError(f"{root}.format: unsupported format {fmt}")
    ambient = _require(raw, "ambient", int, root)
    table = _parse_table(raw, root, ambient)
    ds = GroupDataset(name=table.group_name, table=table, ambient=ambient)
    for key, pobj in raw.get("primes", {}).items():
        p = _prime_key(key, f"{root}.primes")
        ppath = f"{root}.primes.{key}"
        bd = _parse_prime_block(table, pobj, p, ppath)
        sections = [
            _parse_section(table, sobj, p, f"{ppath}.sections[{i}]", ambient)
            for i, sobj in enumerate(pobj.get("sections", []))
        ]
        p_classes = sorted(i for i, c in enumerate(table.classes)
                           if _is_p_power(c.element_order, p))
        if sorted(s.u_class for s in sections) != p_classes:
            raise DatasetError(f"{ppath}.sections: need exactly one section per "
                               f"p-element class {p_classes}")
        sections.sort(key=lambda s: s.u_class)
        ds.primes[p] = PrimeData(p=p, brauer=bd, sections=sections)
    for i, sobj in enumerate(raw.get("subgroups", [])):
        spath = f"{root}.subgroups[{i}]"
        name = _require(sobj, "name", str, spath)
        fusion = _require(sobj, "fusion", list, spath)
        sub_primes_meta = sobj.get("primes", {})
        sub = _parse_nested_subgroup(sobj, spath, ambient)
        _validate_fusion(sub.table, table, fusion, f"{spath}.fusion")
        emb = SubgroupEmbedding(name=name, subgroup=sub, fusion=list(fusion))
        for key, meta in sub_primes_meta.items():
            q = _prime_key(key, f"{spath}.primes")
            if q not in sub.primes:
                raise DatasetError(f"{spath}.primes.{key}: subgroup table has no "
                                   f"Brauer data at p={q}")
            emb.primes[q] = SubgroupPrimeInfo(
                correspondent_block=dict(meta.get("correspondent_block", {})),
                ti=bool(meta.get("ti", False)),
                covers_centralizer=bool(meta.get("covers_centralizer", False)),
                cyclic_defect=bool(meta.get("cyclic_defect", False)))
        ds.subgroups.append(emb)
    return ds


def _parse_nested_subgroup(sobj, spath, ambient) -> GroupDataset:
    tobj = _require(sobj, "table", dict, spath)
    table = _parse_table(tobj, f"{spath}.table", ambient)
    sub = GroupDataset(name=table.group_name, table=table, ambient=ambient)
    for key, pobj in tobj.get("primes", {}).items():
        q = _prime_key(key, f"{spath}.table.primes")
        bd = _parse_prime_block(table, pobj, q, f"{spath}.table.primes.{key}")
        sub.primes[q] = PrimeData(p=q, brauer=bd, sections=[])
    return sub


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# corpus access


def default_corpus_dir() -> Path:
    return Path(__file__).parent / "data"


def load_manifest(corpus_dir=None) -> dict:
    corpus_dir = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    manifest = corpus_dir / "manifest.json"
    if not manifest.exists():
        raise DatasetError(f"no manifest.json in {corpus_dir}")
    return json.loads(manifest.read_text())


def load_corpus(corpus_dir=None) -> dict[str, GroupDataset]:
    """Load every group listed in the corpus manifest, in manifest order."""
    corpus_dir = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    manifest = load_manifest(corpus_dir)
    out: dict[str, GroupDataset] = {}
    for entry in manifest["groups"]:
        ds = load_dataset(corpus_dir / entry["file"])
        out[ds.name] = ds
    return out
