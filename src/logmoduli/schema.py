"""The JSON document format shared by the CLI and the fixtures.

Numbers that live in Q(i) are strings ("a/b" or "a/b+c/d*i"); "inf" is the
reserved infinity token.  Serialization is canonical: keys sorted, elements
ordered by id, so parse-then-serialize is a fixed point byte for byte.

Every field is read by `_get` as a kind.  An error names the JSON path of
the enclosing record, rooted at `document`, and the field:
`document.edges[0]: field 'contact' must be a list of integers, got 7`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from typing import TYPE_CHECKING, Optional

from .errors import StructuralError
from .graphs import DecoratedDualGraph, Edge, Leg, Vertex
from .lattice import Characters, node_index
from .qi import qi_parse, qi_str
from .sections import CurveData, P1Point, RationalSection

if TYPE_CHECKING:
    from .positivity import GeometryProfile

SCHEMA_VERSION = "1"
_INF = float("inf")

# The kinds of field.  The JSON types int, str, bool, dict (an object) and
# list read as themselves, _P1 reads a Q(i) string or "inf", _DELTA a profile
# family's `delta`.  A (name, container, item) triple reads a list of items,
# an object with integer keys and item values (as a dict from int), or, for
# container tuple, a list with one entry per kind in item (as a tuple).
_TEXT = "a string or null"
_QI = "a Gaussian rational"
_P1 = "a point of P1"
_DELTA = 'an integer, null or {"linear": w}'
_NAMES = {int: "an integer", str: "a string", bool: "a boolean", dict: "an object", list: "a list"}
_INTS = ("a list of integers", list, int)
_STRS = ("a list of strings", list, str)
_BOOLS = ("a list of booleans", list, bool)
_ROWS = ("a list of integer lists", list, _INTS)
_POINTS = ("an object of points of P1 by end index", dict, _P1)
_ETA = ("an object of objects of Gaussian rationals, keyed by end and coordinate", dict,
        ("an object of Gaussian rationals by coordinate", dict, _QI))
_SECTIONS = ("an object of sections by coordinate", dict, dict)
_DIVISOR = ("a list of [point, order] pairs", list, ("a [point, order] pair", tuple, (_P1, int)))
_LABELS = ("an object with a string or null at each end index", dict, _TEXT)

_REQUIRED = object()


def _get(obj, key, record, kind, default=_REQUIRED):
    """The field `key` of the object `obj` at JSON path `record`, read as
    `kind`.  A field with a default is optional: absent or null, it takes
    its default."""
    value = obj.get(key)
    if type(value) is kind:
        return value
    if value is None:
        if default is not _REQUIRED:
            return default
        if key not in obj:
            raise StructuralError(f"{record}: missing field {key!r}")
    return _read(value, kind, record, key)


def _read(value, kind, record, name):
    """value, the field `name` of the record at JSON path `record`, read as
    `kind`; anything else raises a StructuralError naming the field."""
    if type(value) is kind:
        return value
    if type(kind) is tuple:
        _, container, item = kind
        if type(value) is list and container is list:
            try:
                return [x if type(x) is item else _read(x, item, record, name) for x in value]
            except StructuralError:
                pass  # an entry of the wrong kind: the error names the list
        if type(value) is list and container is tuple and len(value) == len(item):
            return tuple(_read(x, k, record, name) for x, k in zip(value, item))
        if type(value) is dict and container is dict:
            out = {}
            for key, x in value.items():
                try:
                    index = int(key)
                except ValueError:
                    raise StructuralError(
                        f"{record}: field {name!r} must have integer keys, got {key!r}"
                    ) from None
                out[index] = _read(x, item, record, f"{name}.{key}")
            return out
    elif kind is _TEXT:
        if value is None or type(value) is str:
            return value
    elif kind is _QI or kind is _P1:
        if type(value) is str:
            try:
                return qi_parse(value) if kind is _QI else P1Point.parse(value)
            except (StructuralError, ValueError):
                pass
    elif kind is _DELTA:
        if type(value) is int:
            return value
        if type(value) is dict:
            return ("linear", _get(value, "linear", f"{record}.{name}", int))
    what = kind[0] if type(kind) is tuple else _NAMES.get(kind, kind)
    raise StructuralError(f"{record}: field {name!r} must be {what}, got {value!r}")


def parse_document(doc: dict):
    """Parse a graph document into (graph, data, profile, characters, expect)."""
    if not isinstance(doc, dict):
        raise StructuralError("document must be a JSON object")
    version = _get(doc, "schema_version", "document", str, SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise StructuralError(f"unsupported schema_version {version!r}")
    N = _get(doc, "N", "document", int)
    n = _get(doc, "n", "document", int)

    vertices = []
    for k, item in enumerate(_get(doc, "vertices", "document", list, ())):
        item = _read(item, dict, "document", f"vertices[{k}]")
        path = f"document.vertices[{k}]"
        vertices.append(
            Vertex(
                id=_get(item, "id", path, str),
                genus=_get(item, "genus", path, int, 0),
                stratum=_get(item, "stratum", path, _INTS, ()),
                c1_log=_get(item, "c1_log", path, int, 0),
                degrees=_get(item, "degrees", path, _INTS, [0] * N),
                kind=_get(item, "kind", path, str, "principal"),
                image_label=_get(item, "image_label", path, _TEXT, None),
                cover_degree=_get(item, "cover_degree", path, int, None),
                base_degrees=_get(item, "base_degrees", path, _INTS, None) or None,
                base_c1_log=_get(item, "base_c1_log", path, int, None),
            )
        )

    edges = []
    positions = {}
    eta = {}
    for k, item in enumerate(_get(doc, "edges", "document", list, ())):
        item = _read(item, dict, "document", f"edges[{k}]")
        path = f"document.edges[{k}]"
        eid = _get(item, "id", path, str)
        ends = _get(item, "ends", path, _STRS)
        try:  # one error, showing the input object, for a bad key or value
            labels = _get(item, "image_labels", path, _LABELS, None)
            if labels is not None and not labels.keys() <= set(range(len(ends))):
                raise StructuralError
        except StructuralError:
            raise StructuralError(f"{path}: field 'image_labels' must be {_LABELS[0]}, "
                                  f"got {item['image_labels']!r}") from None
        edges.append(
            Edge(
                eid,
                ends,
                stratum=_get(item, "stratum", path, _INTS, ()),
                contact=_get(item, "contact", path, _INTS, None),
                contacts=_get(item, "contacts", path, _ROWS, None),
                into=_get(item, "into", path, _BOOLS, None),
                image_labels=None if labels is None else [labels.get(i) for i in range(len(ends))],
            )
        )
        for end, point in _get(item, "positions", path, _POINTS, {}).items():
            positions[(eid, end)] = point
        for end, per_i in _get(item, "eta", path, _ETA, {}).items():
            for i, value in per_i.items():
                eta[(eid, end, i)] = value

    legs = []
    leg_positions = {}
    for k, item in enumerate(_get(doc, "legs", "document", list, ())):
        item = _read(item, dict, "document", f"legs[{k}]")
        path = f"document.legs[{k}]"
        lid = _get(item, "id", path, str)
        legs.append(
            Leg(
                lid,
                _get(item, "vertex", path, str),
                contact=_get(item, "contact", path, _INTS, [0] * N),
                position=item.get("position"),
                image_label=_get(item, "image_label", path, _TEXT, None),
            )
        )
        point = _get(item, "position", path, _P1, None)
        if point is not None:
            leg_positions[lid] = point

    sections = {}
    for vid, per_i in _get(doc, "sections", "document", dict, {}).items():
        out = sections[vid] = {}
        _read(per_i, _SECTIONS, "document", f"sections.{vid}")  # the keys are integers
        for i, item in per_i.items():
            path = f"document.sections.{vid}.{i}"
            out[int(i)] = RationalSection(
                _get(item, "degree", path, int, 0),
                _get(item, "scale", path, _QI, 1),
                _get(item, "divisor", path, _DIVISOR, ()),
            )

    graph = DecoratedDualGraph(N, n, vertices, edges, legs)
    data = CurveData(positions, leg_positions, sections, eta)

    # an empty profile or characters list reads as absent
    profile = _get(doc, "profile", "document", dict, None)
    profile = parse_profile(profile) if profile else None
    characters = _get(doc, "characters", "document", list, None)
    characters = characters_on(graph, characters) if characters else None

    expect = _get(doc, "expect", "document", dict, None)
    cover = None if expect is None else _get(expect, "cover", "document.expect", dict, None)
    if cover is not None:  # `dims` reads the values read here
        path = "document.expect.cover"
        read = {key: _get(cover, key, path, int) for key in ("d", "l", "k", "c1_log_base")}
        expect = dict(expect, cover=dict(read, depth=_get(cover, "depth", path, int, 0)))
    return graph, data, profile, characters, expect


def character_rows(rows):
    """Character rows as lists of integers; anything else raises a
    StructuralError naming the field."""
    return _read(rows, _ROWS, "document", "characters")


def characters_on(graph: DecoratedDualGraph, rows) -> Characters:
    """Character rows on the graph's node coordinates, lengths checked."""
    index = node_index(graph)
    rows = character_rows(rows)
    for row in rows:
        if len(row) != len(index):
            raise StructuralError(
                f"character row length {len(row)} != node coordinate count {len(index)}"
            )
    return Characters(rows, index)


def parse_profile(payload: dict) -> GeometryProfile:
    """The positivity profile read from a document's `profile` object."""
    # only documents with a profile need the positivity module
    from .positivity import CurveFamily, GeometryProfile

    record = "document.profile"
    fams = []
    for k, f in enumerate(_get(payload, "families", record, list)):
        f = _read(f, dict, record, f"families[{k}]")
        path = f"{record}.families[{k}]"
        multiplicity = f.get("multiplicity")
        fams.append(
            CurveFamily(
                label=_get(f, "label", path, str),
                stratum=frozenset(_get(f, "stratum", path, _INTS, ())),
                c1_tx=_get(f, "c1_tx", path, int),
                dot=tuple(_get(f, "dot", path, _INTS)),
                effective=_get(f, "effective", path, bool, True),
                multiplicity=("all" if multiplicity in (None, "all")
                              else tuple(_get(f, "multiplicity", path, _INTS))),
                delta=_get(f, "delta", path, _DELTA, None),
            )
        )
    return GeometryProfile(_get(payload, "n", record, int), _get(payload, "N", record, int),
                           tuple(fams))


def serialize_document(graph: DecoratedDualGraph, data: Optional[CurveData] = None,
                       profile: Optional[dict] = None, characters=None,
                       expect: Optional[dict] = None) -> dict:
    data = data or CurveData()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "N": graph.N,
        "n": graph.n,
        "vertices": [],
        "edges": [],
        "legs": [],
    }
    for v in graph.vertices:
        item = {
            "id": v.id,
            "genus": v.genus,
            "stratum": sorted(v.stratum),
            "c1_log": v.c1_log,
            "degrees": list(v.degrees),
            "kind": v.kind,
        }
        if v.image_label is not None:
            item["image_label"] = v.image_label
        if v.cover_degree is not None:
            item["cover_degree"] = v.cover_degree
        if v.base_degrees is not None:
            item["base_degrees"] = list(v.base_degrees)
        if v.base_c1_log is not None:
            item["base_c1_log"] = v.base_c1_log
        doc["vertices"].append(item)
    for e in graph.edges:
        item = {"id": e.id, "ends": list(e.ends), "stratum": sorted(e.stratum)}
        if e.contact is not None:
            item["contact"] = list(e.contact)
        if e.contacts is not None:
            item["contacts"] = [list(c) for c in e.contacts]
        if e.into is not None:
            item["into"] = list(e.into)
        if e.image_labels is not None:
            item["image_labels"] = {
                str(i): lab for i, lab in enumerate(e.image_labels) if lab is not None
            }
        pos = {
            str(idx): str(p)
            for (eid, idx), p in sorted(data.positions.items(), key=lambda kv: (kv[0][0], kv[0][1]))
            if eid == e.id
        }
        if pos:
            item["positions"] = pos
        per_end = {}
        for (eid, idx, i), val in sorted(data.eta.items()):
            if eid == e.id:
                per_end.setdefault(str(idx), {})[str(i)] = qi_str(val)
        if per_end:
            item["eta"] = per_end
        doc["edges"].append(item)
    for l in graph.legs:
        item = {"id": l.id, "vertex": l.vertex, "contact": list(l.contact)}
        pos = data.leg_positions.get(l.id)
        if pos is not None:
            item["position"] = str(pos)
        elif l.position is not None:
            item["position"] = l.position
        if l.image_label is not None:
            item["image_label"] = l.image_label
        doc["legs"].append(item)
    if data.sections:
        doc["sections"] = {
            vid: {
                str(i): {
                    "degree": sec.degree,
                    "scale": qi_str(sec.scale),
                    "divisor": [[str(p), m] for p, m in sorted(
                        sec.divisor().items(), key=lambda kv: str(kv[0])
                    )],
                }
                for i, sec in sorted(per_i.items())
            }
            for vid, per_i in sorted(data.sections.items())
        }
    if profile is not None:
        doc["profile"] = profile
    if characters is not None:
        doc["characters"] = [list(r) for r in characters.rows]
    if expect is not None:
        doc["expect"] = expect
    return doc


def dumps(doc: dict) -> str:
    """The canonical text of a JSON value, the one writer of the layout: the
    text that json.dumps writes with sorted keys and an indent of 2, plus a
    newline.  It is written here because json's C encoder takes no indent
    and its Python encoder is about twice as slow."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, out, newline):
    """Append the chunks of value to out, laid out as json lays it out at the
    depth whose line break and indent is `newline`.  Scalar entries of a
    container join their separator in one chunk; exact str and int entries,
    nearly all of a payload, skip `_scalar` (an exact int formats as
    `int.__repr__` writes it)."""
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        head, sep = "[" + inner, "," + inner
        for item in value:
            if type(item) is int:
                out.append(f"{head}{item}")
            elif type(item) is str:
                out.append(f"{head}{_str(item)}")
            else:
                text = _scalar(item)
                if text is None:
                    out.append(head)
                    _write(item, out, inner)
                else:
                    out.append(f"{head}{text}")
            head = sep
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        head, sep = "{" + inner, "," + inner
        # sorted by the keys themselves, as json sorts before it converts
        # them, so 9 precedes 10
        for key in sorted(value):
            item = value[key]
            key = _str(key) if type(key) is str else _key(key)
            if type(item) is str:
                out.append(f"{head}{key}: {_str(item)}")
            elif type(item) is int:
                out.append(f"{head}{key}: {item}")
            else:
                text = _scalar(item)
                if text is None:
                    out.append(f"{head}{key}: ")
                    _write(item, out, inner)
                else:
                    out.append(f"{head}{key}: {text}")
            head = sep
        out.append(newline + "}")
    else:
        text = _scalar(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
        out.append(text)


def _scalar(value):
    """The JSON text of a scalar, or None for anything else."""
    if isinstance(value, str):
        return _str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    return None


def _float(value):
    """A float as json writes it, NaN and the infinities by name."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _key(key):
    """A dict key as json writes it: a scalar's text as a string."""
    if isinstance(key, str):
        return _str(key)
    if key is None or isinstance(key, (int, float)):  # bools included
        return _str(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def loads(text: str):
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise StructuralError(f"invalid JSON: {exc}") from exc
    return parse_document(doc)
