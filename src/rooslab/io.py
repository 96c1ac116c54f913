"""JSON document formats: systems, exact sequences, categories, families, trees.

One canonical, diff-able shape per object. Index, object and morphism labels
are JSON strings. A system document has the keys "ring", "indices", "leq",
"objects", "maps"; a map key "mu->lambda" names the source first, and its
value is a row-list matrix with rank(lambda) rows and rank(mu) columns, acting
on column vectors. Parsers are lenient about unknown keys (so documents can
carry notes) and check only what a document adds: ring tags, JSON types
(``true`` is no integer), key syntax, and matrices as lists of equal-length
integer lists. Every other check belongs to the library constructor a parser
calls (``QuasiOrder``, ``InverseSystem``, ``validate_ses``, ...), and a
:class:`DocumentError` carries its message after the location. The middle
and quotient of a sequence document that declare the sub's "indices" and
"leq" as the sub does share its one ``QuasiOrder``.
"""

from __future__ import annotations

import json

from .category import CategoryError, FiniteCategory
from .coherence import EvcFun, FamilySpec, GridFun
from .linalg import GroupInvariants, IntMatrix, Ring
from .orders import QuasiOrder
from .systems import InverseSystem, SystemSES, require_exact, require_functorial
from .trees import TreeInstance, TreeStage, validate_tree


class DocumentError(ValueError):
    """A document failed to parse or validate; the message says where."""


def _fail(where: str, reason: str):
    raise DocumentError(f"{where}: {reason}")


def _need(doc, key, where, kind=None):
    if not isinstance(doc, dict):
        _fail(where, f"expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        _fail(where, f'missing key "{key}"')
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        _fail(where, f'key "{key}" has type {type(value).__name__}')
    return value


def _integer(x, where, what) -> int:
    """``x`` if it is an integer, else a DocumentError naming ``what``. JSON
    ``true`` and ``false`` are not integers, though Python's bools are."""
    if type(x) is not int:
        _fail(where, f"{what} is not an integer: {x!r}")
    return x


def parse_ring(tag) -> Ring:
    """The ring of a tag ``Ring.render`` writes: "Z" or "Z/m" with m >= 2."""
    if tag == "Z":
        return Ring.integers()
    if isinstance(tag, str) and tag.startswith("Z/"):
        try:
            m = int(tag[2:])
        except ValueError:
            _fail("ring", f"bad modulus in tag {tag!r}")
        if m < 2:
            _fail("ring", f"modulus must be at least 2, got {m}")
        ring = Ring.modular(m)
        # int() also reads "04", " 4", "+4", "4_0" and non-ASCII digits.
        if ring.render() != tag:
            _fail("ring", f"bad modulus in tag {tag!r}")
        return ring
    _fail("ring", f'unknown tag {tag!r} (want "Z" or "Z/m")')


def _matrix_from_doc(rows, ncols, where) -> IntMatrix:
    """A list of equal-length integer lists, taken as it is; ``ncols`` is
    the width of a matrix with no rows. Each row is frozen as it is checked;
    a row that is no list is named before any entry that is no integer. The
    constructor that receives the matrix checks its shape."""
    if not isinstance(rows, list):
        _fail(where, "matrix must be a list of rows")
    frozen = []
    odd = []  # the entries that are no integers, in row order
    for r in rows:
        if not isinstance(r, list):
            _fail(where, "matrix must be a list of rows")
        for x in r:
            if type(x) is not int:
                odd.append(x)
        frozen.append(tuple(r))
    if odd:
        _integer(odd[0], where, "matrix entry")
    if frozen:
        ncols = len(frozen[0])
        if any(len(r) != ncols for r in frozen):
            _fail(where, "matrix rows have different lengths")
    return IntMatrix._trusted(frozen, ncols)


def _matrix_to_doc(m: IntMatrix) -> list:
    return [list(r) for r in m.rows]


def system_to_doc(s: InverseSystem) -> dict:
    for e in s.index.elements:
        if not isinstance(e, str) or "->" in e:
            _fail("indices", f"label {e!r} is not serializable (string without '->')")
    return {
        "ring": s.ring.render(),
        "indices": list(s.index.elements),
        "leq": [[a, b] for a, b in s.index.related_pairs(include_diagonal=False)],
        "objects": {e: s.rank(e) for e in s.index.elements},
        "maps": {
            f"{mu}->{lam}": _matrix_to_doc(s.bond(lam, mu))
            for lam, mu in s.index.related_pairs(include_diagonal=False)
        },
    }


def system_from_doc(doc, where: str = "system") -> InverseSystem:
    return _system_from_doc(doc, where, None)


def _system_from_doc(doc, where: str, index: QuasiOrder | None) -> InverseSystem:
    """``system_from_doc``, every check in place; with ``index``, the order a
    document declaring the same "indices" and "leq" built, the system takes
    that order instead of building an equal one."""
    ring = parse_ring(_need(doc, "ring", where))
    elements = _need(doc, "indices", where, list)
    for e in elements:
        if not isinstance(e, str):
            _fail(where, f"indices entry {e!r} is not a string")
    pairs = _need(doc, "leq", where, list)
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2):
            _fail(where, f"leq entry {p!r} is not a pair")
        if not (isinstance(p[0], str) and isinstance(p[1], str)):
            _fail(where, f"leq entry {p!r} has a label that is not a string")
    objects = _need(doc, "objects", where, dict)
    for e, r in objects.items():
        if type(r) is not int:
            _integer(r, where, f"objects: rank of {e!r}")
    bonds = {}
    for key, rows in _need(doc, "maps", where, dict).items():
        parts = key.split("->")
        if len(parts) != 2:
            _fail(where, f'map key {key!r} is not of the form "mu->lambda"')
        mu, lam = parts
        bonds[(lam, mu)] = _matrix_from_doc(rows, objects.get(mu, 0), f"{where}: map {key!r}")
    try:
        if index is None:
            index = QuasiOrder(elements, pairs)
        system = InverseSystem(index, ring, objects, bonds)
        require_functorial(system)
    except ValueError as err:  # BondError and InvalidSystemError included
        _fail(where, str(err))
    return system


def ses_to_doc(e: SystemSES) -> dict:
    return {
        "sub": system_to_doc(e.sub),
        "middle": system_to_doc(e.mid),
        "quotient": system_to_doc(e.quot),
        "inclusion": {k: _matrix_to_doc(m) for k, m in e.inject.items()},
        "projection": {k: _matrix_to_doc(m) for k, m in e.project.items()},
    }


def ses_from_doc(doc, where: str = "ses") -> SystemSES:
    first = _need(doc, "sub", where)
    sub = system_from_doc(first, f"{where}.sub")

    def system(key):
        # A system declaring the sub's order as the sub does shares its
        # QuasiOrder, which is immutable; any other declaration builds its own.
        d = _need(doc, key, where)
        same = isinstance(d, dict) and all(d.get(k) == first[k] for k in ("indices", "leq"))
        return _system_from_doc(d, f"{where}.{key}", sub.index if same else None)

    mid, quot = system("middle"), system("quotient")
    inject, project = (
        {
            e: _matrix_from_doc(rows, source.ranks.get(e, 0), f"{where}: {key} at {e!r}")
            for e, rows in _need(doc, key, where, dict).items()
        }
        for key, source in (("inclusion", sub), ("projection", mid))
    )
    ses = SystemSES(sub=sub, mid=mid, quot=quot, inject=inject, project=project)
    try:
        require_exact(ses)
    except ValueError as err:
        _fail(where, str(err))
    return ses


def category_to_doc(cat: FiniteCategory) -> dict:
    for name in list(cat.objects) + list(cat.morphism_names):
        if not isinstance(name, str):
            _fail("category", f"label {name!r} is not a string")
    compose = []
    for g in cat.morphism_names:
        for f in cat.morphism_names:
            if cat.tgt(f) == cat.src(g):
                compose.append([g, f, cat.compose(g, f)])
    return {
        "objects": list(cat.objects),
        "morphisms": {m: [cat.src(m), cat.tgt(m)] for m in cat.morphism_names},
        "identities": dict(cat.identity),
        "compose": compose,
    }


def category_from_doc(doc, where: str = "category") -> FiniteCategory:
    objects = _need(doc, "objects", where, list)
    for o in objects:
        if not isinstance(o, str):
            _fail(where, f"objects entry {o!r} is not a string")
    morphisms = {}
    for name, ends in _need(doc, "morphisms", where, dict).items():
        if not (isinstance(ends, list) and len(ends) == 2):
            _fail(where, f"morphism {name!r} endpoints {ends!r} are not a pair")
        if not (isinstance(ends[0], str) and isinstance(ends[1], str)):
            _fail(where, f"morphism {name!r} endpoints {ends!r} are not strings")
        morphisms[name] = (ends[0], ends[1])
    identities = _need(doc, "identities", where, dict)
    for o, name in identities.items():
        if not isinstance(name, str):
            _fail(where, f"identity of {o!r} is {name!r}, not a string")
    compose = {}
    for entry in _need(doc, "compose", where, list):
        if not (isinstance(entry, list) and len(entry) == 3):
            _fail(where, f"compose entry {entry!r} is not [after, before, result]")
        if not all(isinstance(x, str) for x in entry):
            _fail(where, f"compose entry {entry!r} names a morphism that is not a string")
        compose[(entry[0], entry[1])] = entry[2]
    try:
        return FiniteCategory(objects, morphisms, identities, compose)
    except CategoryError as err:
        _fail(where, str(err))


def evc_to_doc(f: EvcFun) -> dict:
    return {"prefix": list(f.prefix), "tail": f.tail}


def _evc_key(doc, where: str) -> tuple:
    """(prefix, tail) of a function document whose values are checked to be
    integers, so a JSON ``true`` never stands for 1 in a key."""
    prefix = _need(doc, "prefix", where, list)
    tail = _integer(_need(doc, "tail", where), where, 'key "tail"')
    if any(type(v) is not int for v in prefix):
        _fail(where, "prefix values must be integers")
    return tuple(prefix), tail


def _evc_of(key: tuple, where: str) -> EvcFun:
    try:
        return EvcFun.of(*key)
    except ValueError as err:
        _fail(where, str(err))


def evc_from_doc(doc, where: str = "function") -> EvcFun:
    return _evc_of(_evc_key(doc, where), where)


def _gridfun_to_doc(phi: GridFun) -> dict:
    return {
        "carrier": evc_to_doc(phi.carrier),
        "default": phi.default,
        "exceptions": [[list(p), v] for p, v in phi.exceptions],
    }


def _gridfun_from_doc(doc, modulus: int, where: str) -> GridFun:
    carrier = evc_from_doc(_need(doc, "carrier", where), f"{where}.carrier")
    default = _integer(_need(doc, "default", where), where, 'key "default"')
    table = {}
    for k, entry in enumerate(_need(doc, "exceptions", where, list)):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], list)
            and len(entry[0]) == 2
        ):
            _fail(where, f"exception entry {entry!r} is not [[column, row], value]")
        cell, value = entry
        for c in cell:
            if type(c) is not int:
                _integer(c, where, f"exceptions[{k}] cell coordinate")
        if type(value) is not int:
            _integer(value, where, f"exceptions[{k}] value")
        table[tuple(cell)] = value
    try:
        return GridFun.make(carrier, modulus, default, table)
    except ValueError as err:
        _fail(where, str(err))


def _modulus(doc, where) -> int:
    m = _integer(_need(doc, "modulus", where), where, 'key "modulus"')
    if m < 2:
        _fail(where, f'key "modulus" must be at least 2, got {m}')
    return m


def family_to_doc(fam: FamilySpec) -> dict:
    return {
        "modulus": fam.modulus,
        "members": [_gridfun_to_doc(phi) for _, phi in fam.members],
    }


def family_from_doc(doc, where: str = "family") -> FamilySpec:
    modulus = _modulus(doc, where)
    members = []
    for i, member in enumerate(_need(doc, "members", where, list)):
        members.append(_gridfun_from_doc(member, modulus, f"{where}.members[{i}]"))
    try:
        return FamilySpec.of(modulus, members)
    except ValueError as err:
        _fail(where, str(err))


def tree_to_doc(t: TreeInstance) -> dict:
    return {
        "modulus": t.base.modulus,
        "stages": [
            {
                "outlier": evc_to_doc(s.outlier),
                "ladder": [evc_to_doc(r) for r in s.ladder],
                "points": [list(p) for p in s.points],
            }
            for s in t.stages
        ],
        "base": _gridfun_to_doc(t.base),
    }


def tree_from_doc(doc, where: str = "tree") -> TreeInstance:
    """Ladders repeat most rungs, so each distinct function of the document
    is built once; every rung is still checked where it stands."""
    modulus = _modulus(doc, where)
    built = {}

    def evc(fun, fw):
        key = _evc_key(fun, fw)
        if key not in built:
            built[key] = _evc_of(key, fw)
        return built[key]

    stages = []
    for i, stage in enumerate(_need(doc, "stages", where, list)):
        sw = f"{where}.stages[{i}]"
        outlier = evc(_need(stage, "outlier", sw), f"{sw}.outlier")
        ladder = [
            evc(r, f"{sw}.ladder[{n}]")
            for n, r in enumerate(_need(stage, "ladder", sw, list))
        ]
        points = _need(stage, "points", sw, list)
        for k, p in enumerate(points):
            if not (isinstance(p, list) and len(p) == 2):
                _fail(sw, f"point {p!r} is not a [column, row] pair")
            for c in p:
                if type(c) is not int:
                    _integer(c, sw, f"points[{k}] coordinate")
        stages.append(TreeStage(outlier, ladder, points))
    base = _gridfun_from_doc(_need(doc, "base", where), modulus, f"{where}.base")
    t = TreeInstance(len(stages), stages, base)
    report = validate_tree(t)
    if not report.ok:
        _fail(where, f"invalid instance: {list(report.violations[:3])}")
    return t


def render_invariants(g: GroupInvariants) -> str:
    """Canonical text form: "0", or "Z^r" and "Z/d" factors joined by " + "
    with torsion in divisor-chain order."""
    parts = []
    if g.free_rank:
        parts.append(f"Z^{g.free_rank}")
    parts.extend(f"Z/{d}" for d in g.torsion)
    return " + ".join(parts) if parts else "0"


def read_document(path: str) -> dict:
    """The JSON value in the file at ``path``, read as UTF-8 text with
    universal newlines, so a syntax error's line:col is that of the file
    opened in text mode."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except FileNotFoundError:
        _fail(path, "no such file")
    except OSError as err:
        _fail(path, f"cannot read: {err.strerror or err}")
    except UnicodeDecodeError as err:
        _fail(path, f"not UTF-8 text: {err.reason} at byte {err.start}")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        _fail(f"{path}:{err.lineno}:{err.colno}", err.msg)


def write_document(doc: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as err:
        _fail(path, f"cannot write: {err.strerror or err}")


def _located(parser, path):
    doc = read_document(path)
    try:
        return parser(doc)
    except DocumentError as err:
        raise DocumentError(f"{path}: {err}") from None


def parse_system(path: str) -> InverseSystem:
    return _located(system_from_doc, path)


def parse_ses(path: str) -> SystemSES:
    return _located(ses_from_doc, path)


def parse_category(path: str) -> FiniteCategory:
    return _located(category_from_doc, path)


def parse_family(path: str) -> FamilySpec:
    return _located(family_from_doc, path)


def parse_tree(path: str) -> TreeInstance:
    return _located(tree_from_doc, path)


def write_system(s: InverseSystem, path: str) -> None:
    write_document(system_to_doc(s), path)
