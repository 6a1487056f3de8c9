"""The JSON document format shared by the CLI and the fixtures.

Numbers that live in Q(i) are strings ("a/b" or "a/b+c/d*i"); "inf" is the
reserved infinity token.  Serialization is canonical: keys sorted, elements
ordered by id, so parse-then-serialize is a fixed point byte for byte.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from .errors import StructuralError
from .graphs import DecoratedDualGraph, Edge, Leg, Vertex
from .lattice import node_index
from .obstruction import Characters, CurveData
from .qi import qi_parse, qi_str
from .sections import P1Point, RationalSection

if TYPE_CHECKING:
    from .positivity import GeometryProfile

SCHEMA_VERSION = "1"


def _req(obj, key, where):
    if key not in obj:
        raise StructuralError(f"{where}: missing field {key!r}")
    return obj[key]


_REQUIRED = object()


def _int(obj, key, where, default=_REQUIRED):
    """An integer field; an optional one that is absent or null reads as
    its default."""
    if default is not _REQUIRED and obj.get(key) is None:
        return default
    value = _req(obj, key, where)
    if type(value) is not int:  # no float, string or bool is read as an integer
        raise StructuralError(f"{where}: field {key!r} must be an integer, got {value!r}")
    return value


def _string(obj, key, where):
    """A required string field; no number or list is read as a string."""
    value = _req(obj, key, where)
    if not isinstance(value, str):
        raise StructuralError(f"{where}: field {key!r} must be a string, got {value!r}")
    return value


def _integer(value):
    """value itself when it is a JSON integer; floats, strings and booleans
    raise TypeError rather than being coerced."""
    if type(value) is not int:
        raise TypeError(value)
    return value


def _text(value):
    """value itself when it is a JSON string, else TypeError."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _boolean(value):
    """value itself when it is a JSON boolean, else TypeError."""
    if type(value) is not bool:
        raise TypeError(value)
    return value


def _obj(value, key, where):
    """The value of an object field; anything else raises a StructuralError
    naming the field."""
    if not isinstance(value, dict):
        raise StructuralError(f"{where}: field {key!r} must be an object, got {type(value).__name__}")
    return value


def _list(value, key, where, item=None, kind="integers"):
    """The value of a list field, each entry checked by item (`_integer`,
    `_int_row` for rows of integers, `_text` or `_boolean`, with kind naming
    what it accepts); anything else raises a StructuralError naming the
    field."""
    if not isinstance(value, list):
        raise StructuralError(f"{where}: field {key!r} must be a list, got {type(value).__name__}")
    if item is None:
        return value
    try:
        return [item(x) for x in value]
    except TypeError:
        raise StructuralError(f"{where}: field {key!r} must hold {kind}, got {value!r}") from None


def _str(value, key, where):
    """The value of an optional string field, None when absent or null;
    anything else raises a StructuralError naming the field."""
    if value is not None and not isinstance(value, str):
        raise StructuralError(f"{where}: field {key!r} must be a string or null, got {value!r}")
    return value


def _index(key, field, where):
    """An integer key of an object field, such as an end index in
    `positions`; anything else raises a StructuralError naming the field."""
    try:
        return int(key)
    except ValueError:
        raise StructuralError(f"{where}: field {field!r} must have integer keys, got {key!r}") from None


def _int_row(value):
    if not isinstance(value, list):
        raise TypeError(value)
    return [_integer(x) for x in value]


def _divisor(value, where):
    """A section divisor: a list of [point, order] pairs, read as
    (P1Point, int) pairs."""
    out = []
    for entry in _list(value, "divisor", where):
        try:
            if not isinstance(entry, list):
                raise TypeError(entry)
            point, order = entry
            out.append((P1Point.parse(str(point)), _integer(order)))
        except (TypeError, ValueError, OverflowError):
            raise StructuralError(
                f"{where}: field 'divisor' must hold [point, order] pairs, got {entry!r}"
            ) from None
    return out


def parse_document(doc: dict):
    """Parse a graph document into (graph, data, profile, characters, expect)."""
    if not isinstance(doc, dict):
        raise StructuralError("document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise StructuralError(f"unsupported schema_version {version!r}")
    N = _int(doc, "N", "document")
    n = _int(doc, "n", "document")

    vertices = []
    for k, item in enumerate(_list(doc.get("vertices", []), "vertices", "document")):
        item = _obj(item, f"vertices[{k}]", "document")
        vid = _string(item, "id", "vertex")
        where = f"vertex {vid}"
        base_degrees = item.get("base_degrees")
        vertices.append(
            Vertex(
                id=vid,
                genus=_int(item, "genus", where, 0),
                stratum=frozenset(_list(item.get("stratum", []), "stratum", where, _integer)),
                c1_log=_int(item, "c1_log", where, 0),
                degrees=tuple(_list(item.get("degrees", [0] * N), "degrees", where, _integer)),
                kind=item.get("kind", "principal"),
                image_label=_str(item.get("image_label"), "image_label", where),
                cover_degree=_int(item, "cover_degree", where, None),
                base_degrees=(tuple(_list(base_degrees, "base_degrees", where, _integer))
                              if base_degrees else None),
                base_c1_log=_int(item, "base_c1_log", where, None),
            )
        )

    edges = []
    positions = {}
    eta = {}
    for k, item in enumerate(_list(doc.get("edges", []), "edges", "document")):
        item = _obj(item, f"edges[{k}]", "document")
        eid = _string(item, "id", "edge")
        where = f"edge {eid}"
        ends = tuple(_list(_req(item, "ends", where), "ends", where, _text, "strings"))
        contact = item.get("contact")
        contacts = item.get("contacts")
        into = item.get("into")
        labels = item.get("image_labels")
        if labels is not None:
            labels = _obj(labels, "image_labels", where)
            labels = tuple(_str(labels.get(str(i)), "image_labels", where)
                           for i in range(len(ends)))
        edges.append(
            Edge(
                eid,
                ends,
                stratum=frozenset(_list(item.get("stratum", []), "stratum", where, _integer)),
                contact=_list(contact, "contact", where, _integer) if contact is not None else None,
                contacts=(_list(contacts, "contacts", where, _int_row)
                          if contacts is not None else None),
                into=_list(into, "into", where, _boolean, "booleans") if into is not None else None,
                image_labels=labels,
            )
        )
        for key, val in _obj(item.get("positions") or {}, "positions", where).items():
            positions[(eid, _index(key, "positions", where))] = P1Point.parse(val)
        for end_key, per_i in _obj(item.get("eta") or {}, "eta", where).items():
            end = _index(end_key, "eta", where)
            for i_key, val in _obj(per_i, f"eta.{end_key}", where).items():
                eta[(eid, end, _index(i_key, f"eta.{end_key}", where))] = qi_parse(val)

    legs = []
    leg_positions = {}
    for k, item in enumerate(_list(doc.get("legs", []), "legs", "document")):
        item = _obj(item, f"legs[{k}]", "document")
        lid = _string(item, "id", "leg")
        legs.append(
            Leg(
                lid,
                _string(item, "vertex", f"leg {lid}"),
                contact=_list(item.get("contact", [0] * N), "contact", f"leg {lid}", _integer),
                position=item.get("position"),
                image_label=_str(item.get("image_label"), "image_label", f"leg {lid}"),
            )
        )
        if item.get("position") is not None:
            leg_positions[lid] = P1Point.parse(item["position"])

    sections = {}
    for vid, per_i in _obj(doc.get("sections") or {}, "sections", "document").items():
        out = {}
        for i_key, item in _obj(per_i, f"sections.{vid}", "document").items():
            field = f"sections.{vid}.{i_key}"
            item = _obj(item, field, "document")
            out[_index(i_key, f"sections.{vid}", "document")] = RationalSection(
                _int(item, "degree", field, 0),
                qi_parse(item.get("scale", "1")),
                _divisor(item.get("divisor", []), field),
            )
        sections[str(vid)] = out

    graph = DecoratedDualGraph(N, n, vertices, edges, legs)
    data = CurveData(positions, leg_positions, sections, eta)

    profile = None
    if doc.get("profile"):
        profile = parse_profile(_obj(doc["profile"], "profile", "document"))

    characters = None
    if doc.get("characters"):
        characters = characters_on(graph, doc["characters"])

    expect = doc.get("expect")
    if expect is not None:
        expect = _obj(expect, "expect", "document")
        if expect.get("cover") is not None:
            _cover(expect["cover"])
    return graph, data, profile, characters, expect


def _cover(value):
    """Check the multiple-cover expectation read by `dims`: an object with
    integer d, l, k and c1_log_base and an optional integer depth."""
    cover = _obj(value, "cover", "expect")
    for key in ("d", "l", "k", "c1_log_base"):
        _int(cover, key, "expect.cover")
    if "depth" in cover:
        _int(cover, "depth", "expect.cover")


def character_rows(rows):
    """Character rows as lists of integers; anything else raises a
    StructuralError naming the field."""
    return _list(rows, "characters", "document", _int_row)


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
    # only documents with a profile need the positivity module
    from .positivity import CurveFamily, GeometryProfile

    fams = []
    for k, f in enumerate(_list(_req(payload, "families", "profile"), "families", "profile")):
        where = f"profile families[{k}]"
        f = _obj(f, f"families[{k}]", "profile")
        delta = f.get("delta")
        if isinstance(delta, dict):
            delta = ("linear", _int(delta, "linear", f"{where} delta"))
        elif delta is not None and (not isinstance(delta, int) or isinstance(delta, bool)):
            raise StructuralError(
                f"{where}: field 'delta' must be an integer, null or {{\"linear\": w}}, got {delta!r}"
            )
        effective = f.get("effective", True)
        if type(effective) is not bool:  # no string or number is read as a flag
            raise StructuralError(f"{where}: field 'effective' must be a boolean, got {effective!r}")
        multiplicity = f.get("multiplicity", "all")
        fams.append(
            CurveFamily(
                label=_string(f, "label", "family"),
                stratum=frozenset(_list(f.get("stratum", []), "stratum", where, _integer)),
                c1_tx=_int(f, "c1_tx", where),
                dot=tuple(_list(_req(f, "dot", "family"), "dot", where, _integer)),
                effective=effective,
                multiplicity=("all" if multiplicity == "all"
                              else tuple(_list(multiplicity, "multiplicity", where, _integer))),
                delta=delta,
            )
        )
    return GeometryProfile(_int(payload, "n", "profile"), _int(payload, "N", "profile"), tuple(fams))


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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"invalid JSON: {exc}") from exc
    return parse_document(doc)
