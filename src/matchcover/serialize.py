"""JSON codecs for every persisted value.

Rationals travel as exact "p/q" strings, never floats.  Group elements are
encoded through their model's string codec, so a document embeds everything
needed to replay it.  ``canonical_dumps`` fixes key order and layout, which
makes emitted documents byte-reproducible for identical inputs and seeds;
it writes the bytes of ``json.dumps`` with sorted keys and indent 2 by a
small recursive writer, and each ``*_to_json`` spells an element once per
document (``_atom_writer``).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .bipartite import BipartiteGraph, MatchingWitness
from .cover import Covering, GroundSet
from .folner import Coloring, FolnerCertificate, PairResult
from .groups import GroupModel, _require_int, group_from_json
from .groups import _require_fraction as frac_parse
from .means import ConvexCombination
from .ramsey import FinMetric, RamseyOutcome, _require_bounds

FOLNER_CERT_SCHEMA = "folner-certificate/1"
FOLNER_EXHAUSTED_SCHEMA = "folner-exhausted/1"
RAMSEY_SCHEMA = "ramsey-check/1"


def frac_str(x) -> str:
    return str(Fraction(x))


def canonical_dumps(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`` and a
    newline, byte for byte, written without the pure-Python encoder that
    ``indent`` selects.  A document holds str, int, bool, None, lists,
    tuples (written as lists) and dicts with str keys; floats and any other
    type raise TypeError, since exact documents hold none."""
    return _write(doc, "\n") + "\n"


_encode_str = json.encoder.encode_basestring  # C when the accelerator is built
_int_str = int.__repr__
_STR, _INT, _SEQ, _TWO = {str}, {int}, {list, tuple}, {2}


def _write(value, nl: str) -> str:
    """The JSON text of ``value``; ``nl`` is a newline and the indent of the
    line that ``value`` starts on.  Bools are tested before ints, as
    ``json.dumps`` tests them."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, (list, tuple)):
        return _write_list(value, nl)
    if isinstance(value, dict):
        return _write_dict(value, nl)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_str(value)
    raise TypeError(f"{type(value).__name__} values have no exact JSON form: {value!r}")


def _write_list(seq, nl: str) -> str:
    """Lists of exact strs, of exact ints and of [int, int] pairs are written
    in one pass each, with their types checked by ``set(map(type, ...))``, so
    a bool never takes an int path; anything else goes item by item."""
    if not seq:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    kinds = set(map(type, seq))
    if kinds == _STR:
        body = sep.join(map(_encode_str, seq))
    elif kinds == _INT:
        body = sep.join(map(_int_str, seq))
    elif (
        kinds <= _SEQ
        and set(map(len, seq)) == _TWO
        and set(map(type, chain.from_iterable(seq))) == _INT
    ):
        deeper = inner + "  "
        pair = f"[{deeper}%d,{deeper}%d{inner}]"
        body = sep.join(map(pair.__mod__, map(tuple, seq)))
    else:
        body = sep.join([_write(item, inner) for item in seq])
    return f"[{inner}{body}{nl}]"


def _write_dict(obj: dict, nl: str) -> str:
    """Keys are strs, as in every document the library writes; another key
    raises TypeError from ``encode_basestring``."""
    if not obj:
        return "{}"
    inner = nl + "  "
    keys = sorted(obj)
    names = map(_encode_str, keys)
    body = ("," + inner).join(
        [f"{name}: {_write(obj[key], inner)}" for name, key in zip(names, keys)]
    )
    return f"{{{inner}{body}{nl}}}"


# -- atoms ------------------------------------------------------------------


def _require_atom(atom) -> str:
    """Without a group context an atom is a string, both ways."""
    if not isinstance(atom, str):
        raise ValueError(f"atoms must be strings without a group context: {atom!r}")
    return atom


def _atom_parser(model: GroupModel | None):
    """The element codec for one document read: ``model.parse_elem``, with
    each distinct element string parsed once.  Anything but a string goes to
    the model every time, so it fails there, unhashable JSON values
    included; without a group context an atom is its own string."""
    if model is None:
        return _require_atom
    parsed: dict = {}

    def parse(s):
        if type(s) is not str:
            return model.parse_elem(s)
        elem = parsed.get(s)
        if elem is None:
            elem = parsed[s] = model.parse_elem(s)
        return elem

    return parse


def _atom_writer(model: GroupModel | None):
    """The element codec for one document the library builds: each distinct
    element is spelled once, by ``unchecked_elem_str``, since the library's
    own elements are valid (validation is for input).  The mirror of
    ``_atom_parser``; without a group context an atom is its own string."""
    if model is None:
        return _require_atom
    written: dict = {}
    spell = model.unchecked_elem_str

    def write(elem) -> str:
        text = written.get(elem)
        if text is None:
            text = written[elem] = spell(elem)
        return text

    return write


def elems_from_json(model: GroupModel | None, arr) -> list:
    """A JSON list of elements; any other value, a string included, is
    invalid input rather than a sequence of one-character elements."""
    parse = _atom_parser(model)
    return [parse(s) for s in _list(arr, "element list")]


# -- coverings and colorings ------------------------------------------------


def covering_to_json(cov: Covering, model: GroupModel | None = None) -> dict:
    return _write_covering(cov, _atom_writer(model))


def _write_covering(cov: Covering, write) -> dict:
    """A covering whose atoms go through ``write``, one ``_atom_writer``."""
    return {
        "ground": list(map(write, cov.ground.atoms)),
        "blocks": [list(map(write, block)) for block in cov.blocks],
    }


def covering_from_json(obj: dict, model: GroupModel | None = None) -> Covering:
    return _read_covering(obj, _atom_parser(model))


def _read_covering(obj: dict, parse) -> Covering:
    """A covering whose atoms go through ``parse``, one ``_atom_parser``."""
    ground, blocks = _fields(obj, "covering", "ground", "blocks")
    ground = GroundSet([parse(s) for s in _list(ground, "covering ground")])
    blocks = [
        [parse(s) for s in _list(block, "covering block")]
        for block in _list(blocks, "covering blocks")
    ]
    return Covering(ground, blocks)


def coloring_to_json(col: Coloring, model: GroupModel | None = None) -> dict:
    return {
        "ground": list(map(_atom_writer(model), col.ground.atoms)),
        "colors": list(col.colors),
        "k": col.k,
    }


def coloring_from_json(obj: dict, model: GroupModel | None = None) -> Coloring:
    ground, colors, k = _fields(obj, "coloring", "ground", "colors", "k")
    ground = _list(ground, "coloring ground")
    # each element once, so no memo: the model reads the whole list (Z^d in bulk)
    atoms = elems_from_json(None, ground) if model is None else model.parse_elems(ground)
    ground = GroundSet(atoms)
    colors = _ints(_list(colors, "coloring colors"), "coloring color")
    return Coloring(ground, colors, _require_int(k, "coloring k"))


# -- graphs and witnesses ---------------------------------------------------


def graph_from_json(obj: dict) -> BipartiteGraph:
    left, right, edges = _fields(obj, "graph", "left", "right", "edges")
    left = tuple(elems_from_json(None, left))
    right = tuple(elems_from_json(None, right))
    edges = _list(edges, "graph edges")
    # one pass over the edge types, one over their lengths, one over the index types
    if (
        set(map(type, edges)) <= _SEQ
        and set(map(len, edges)) <= _TWO
        and set(map(type, chain.from_iterable(edges))) <= _INT
    ):
        edges = map(tuple, edges)
    else:  # edge by edge, to raise at the first bad edge or index
        edges = [(_require_int(i, "edge index"), _require_int(j, "edge index")) for i, j in edges]
    return BipartiteGraph(left, right, frozenset(edges))


def witness_to_json(w: MatchingWitness) -> dict:
    return {"pairs": sorted(map(list, w.pairs))}


def witness_from_json(obj: dict) -> MatchingWitness:
    (pairs,) = _fields(obj, "witness", "pairs")
    kinds = set(map(type, _list(pairs, "witness pairs")))
    if not (kinds <= {list} and set(map(len, pairs)) <= _TWO):
        raise ValueError("witness pairs must be [i, j] lists")
    _ints(chain.from_iterable(pairs), "witness index")
    return MatchingWitness(tuple(sorted(map(tuple, pairs))))


def _ints(values, what: str) -> tuple:
    """``values`` as a tuple of JSON integers: one pass over their types, and
    ``_require_int`` only to raise at the first value that is not one."""
    values = tuple(values)
    if not set(map(type, values)) <= _INT:
        for value in values:
            _require_int(value, what)
    return values


# -- means ------------------------------------------------------------------


def mean_to_json(nu: ConvexCombination) -> dict:
    return {
        "weights": {nu.group.elem_str(g): frac_str(w) for g, w in nu.items()}
    }


def weights_from_json(obj: dict) -> dict:
    """The ``weights`` object of a mean document: element string -> Fraction."""
    (weights,) = _fields(obj, "mean", "weights")
    if not isinstance(weights, dict):
        raise ValueError("mean weights must be an object")
    return {s: frac_parse(w) for s, w in weights.items()}


def mean_from_json(obj: dict, model: GroupModel) -> ConvexCombination:
    weights = {model.parse_elem(s): w for s, w in weights_from_json(obj).items()}
    return ConvexCombination(model, weights)


# -- metric spaces ----------------------------------------------------------


def finmetric_to_json(m: FinMetric) -> dict:
    return {
        "points": list(m.points),
        "dist": [[frac_str(x) for x in row] for row in m.dist],
    }


def finmetric_from_json(obj: dict) -> FinMetric:
    points, dist = _fields(obj, "metric", "points", "dist")
    dist = tuple(tuple(map(frac_parse, _list(row, "metric dist row"))) for row in dist)
    return FinMetric(tuple(_list(points, "metric points")), dist)


# -- certificates -----------------------------------------------------------


def certificate_to_json(cert: FolnerCertificate) -> dict:
    model = cert.group
    write = _atom_writer(model)  # the window repeats F, each g and h, and itself
    return {
        "schema": FOLNER_CERT_SCHEMA,
        "group": model.describe(),
        "f": list(map(write, cert.f_set)),
        "e": list(map(write, cert.e_set)),
        "theta": frac_str(cert.theta),
        "mode": cert.mode,
        "status": cert.status,
        "cover": _write_covering(cert.cover, write),
        "pairs": [
            {
                "g": write(p.g),
                "h": write(p.h),
                "mu": p.value,
                "witness": witness_to_json(p.witness),
            }
            for p in cert.pairs
        ],
    }


def schema_from_json(obj: dict) -> str:
    """The schema of a document ``verify`` replays; any other is invalid input."""
    (schema,) = _fields(obj, "document", "schema")
    if schema not in (FOLNER_CERT_SCHEMA, FOLNER_EXHAUSTED_SCHEMA, RAMSEY_SCHEMA):
        raise ValueError(f"unknown document schema: {schema!r}")
    return schema


def exhausted_from_json(obj: dict) -> tuple:
    """(certificate of the best F, stored best ratio).  ``evaluations`` is
    the search's own count, which no replay recomputes, so only its range is
    checked: every search evaluates its start."""
    cert = certificate_from_json(obj, "exhausted report")
    best_ratio, evaluations = _fields(obj, "exhausted report", "best_ratio", "evaluations")
    if _require_int(evaluations, "evaluations") < 1:
        raise ValueError(f"evaluations must be at least 1, got {evaluations}")
    return cert, frac_parse(best_ratio)


def certificate_from_json(obj: dict, kind: str = "certificate") -> FolnerCertificate:
    """Decode a certificate, named ``kind`` in errors.  F must be non-empty (an
    empty F passes every threshold) with no duplicate entries, and theta
    must lie in [0, 1]: a vacuous or out-of-range claim is invalid input."""
    group, f, e, theta, mode, status, cover, pairs = _fields(
        obj, kind, "group", "f", "e", "theta", "mode", "status", "cover", "pairs"
    )
    model = group_from_json(group)
    parse = _atom_parser(model)  # the window repeats F, each g and h, and itself
    f_set = tuple(parse(s) for s in _list(f, "certificate f"))
    if not f_set:
        raise ValueError("certificate has an empty candidate set F")
    if len(set(f_set)) != len(f_set):
        raise ValueError("certificate candidate set F has duplicate entries")
    theta = frac_parse(theta)
    if not (0 <= theta <= 1):
        raise ValueError(f"certificate theta {theta} is outside [0, 1]")
    cover = _read_covering(cover, parse)
    rows = _each(_list(pairs, "certificate pairs"), "certificate pair", "g", "h", "mu", "witness")
    pairs = tuple(
        PairResult(parse(g), parse(h), _require_int(mu, "pair mu"), witness_from_json(w))
        for g, h, mu, w in rows
    )
    return FolnerCertificate(
        group=model,
        f_set=f_set,
        e_set=tuple(parse(s) for s in _list(e, "certificate e")),
        theta=theta,
        mode=mode,
        cover=cover,
        pairs=pairs,
        status=status,
    )


def ramsey_outcome_to_json(
    outcome: RamseyOutcome,
    a: FinMetric,
    b: FinMetric,
    c: FinMetric,
    max_family: int,
    family_budget: int,
) -> dict:
    return {
        "schema": RAMSEY_SCHEMA,
        "a": finmetric_to_json(a),
        "b": finmetric_to_json(b),
        "c": finmetric_to_json(c),
        "k": outcome.k,
        "eps": frac_str(outcome.eps),
        "max_family": max_family,
        "family_budget": family_budget,
        "holds": outcome.holds,
        "vacuous": outcome.vacuous,
        "colorings_checked": outcome.colorings_checked,
        "witnesses": [
            {"coloring": list(vec), "family": list(combo)}
            for vec, combo in outcome.witnesses
        ],
        "counterexample": (
            list(outcome.counterexample) if outcome.counterexample else None
        ),
    }


def _fields(obj, kind: str, *keys) -> tuple:
    """The values of a JSON object at ``keys``; anything but an object, or
    an object without one of the keys, is invalid input that names the
    document kind and the key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} must be a JSON object, not {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{kind} is missing the key {key!r}")
    return tuple(obj[key] for key in keys)


def _each(items: list, kind: str, *keys) -> list:
    """``_fields`` of each object in ``items`` by one ``itemgetter`` pass;
    ``_fields`` runs item by item only to name the first bad item."""
    try:
        return list(map(itemgetter(*keys), items))
    except (KeyError, TypeError):
        for item in items:
            _fields(item, kind, *keys)
        raise


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false")
    return value


def _search_index(family: list, n: int) -> int:
    """Index of a sorted family in ``ramsey_condition_check``'s search order
    over n embeddings of B into C: multisets of size 1, 2, ..., each size in
    lexicographic order.  The index never falls as n grows."""
    size = len(family)
    index = math.comb(n + size - 1, size - 1) - 1  # every smaller family
    low = 0
    for i, x in enumerate(family):  # equal before position i, smaller at i
        rest = size - i - 1
        index += math.comb(n - low + rest, rest + 1) - math.comb(n - x + rest, rest + 1)
        low = x
    return index


def ramsey_outcome_from_json(obj: dict) -> tuple:
    """Decode a report into the arguments of ``ramsey.check_report``:
    (outcome, a, b, c, max_family, family_budget).

    Beyond types, both bounds must be at least 1, and each witness family
    must be one the recorded search can reach: at most max_family members,
    and an index below family_budget in the search order, counted over as
    many embeddings as its largest index shows (a lower bound on the true
    index).  The ranges of eps, k and the family indices are checked by
    ``check_report``."""
    holds, vacuous, eps, k, checked, witnesses, counterexample, a, b, c, max_family, budget = (
        _fields(obj, "ramsey report", "holds", "vacuous", "eps", "k", "colorings_checked",
                "witnesses", "counterexample", "a", "b", "c", "max_family", "family_budget")
    )
    witnesses = _each(_list(witnesses, "witnesses"), "ramsey witness", "coloring", "family")
    outcome = RamseyOutcome(
        holds=_flag(holds, "holds"),
        vacuous=_flag(vacuous, "vacuous"),
        eps=frac_parse(eps),
        k=_require_int(k, "k"),
        colorings_checked=_require_int(checked, "colorings_checked"),
        witnesses=tuple(
            (_ints(_list(col, "witness coloring"), "coloring entry"),
             _ints(_list(fam, "witness family"), "family index"))
            for col, fam in witnesses
        ),
        counterexample=None if counterexample is None else _ints(
            _list(counterexample, "counterexample"), "counterexample entry"
        ),
    )
    a, b, c = map(finmetric_from_json, (a, b, c))
    max_family = _require_int(max_family, "max_family")
    budget = _require_int(budget, "family_budget")
    _require_bounds(max_family, budget)
    families = [sorted(f) for _, f in outcome.witnesses if f and min(f) >= 0]
    n = 1 + max((f[-1] for f in families), default=0)
    for family in families:
        if len(family) > max_family or _search_index(family, n) >= budget:
            raise ValueError(
                f"witness family {family} is beyond the search bounds "
                f"max_family {max_family}, family_budget {budget}"
            )
    return outcome, a, b, c, max_family, budget
