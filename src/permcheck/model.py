"""Domain types for the Android-style permission model.

The machine state is a ``System``: a 9-slot ``State`` (four slots carry
meaning here, five are opaque) paired with a 4-slot ``Environment``.  Every
mapping component is a ground binary relation (frozenset of pairs) as in
:mod:`permcheck.kernel`.

This module also owns the canonical JSON documents.  Each document kind
(permission, manifest, system-image app, state, environment, system, and the
permission set) is declared once as a ``Codec``, built from ``record``,
``set_of``, ``rel_of`` and a few leaf codecs; both the emitter and the
parser come from that one declaration.

Identifiers (app ids, permission ids, group ids, certificates) are plain
nonempty strings.  Optional groups are ``None`` or a group id; documents
serialize the absent case as JSON ``null``, never a sentinel atom.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from operator import attrgetter, is_
from typing import Callable, Optional

from .kernel import EMPTY, Rel, canonical_order, order_by_key

PROTECTION_LEVELS = ("normal", "signature", "dangerous")
DANGEROUS = "dangerous"
OPAQUE = "unused"


class ParseError(ValueError):
    """A state/scenario document failed validation.

    ``path`` points at the offending field, e.g. ``state.perms[1]``.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


# The three record types sit inside sets and relations, so ordering them is
# hot: each has one cache slot, in which the kernel stores the record's order
# key the first time it is asked for.  Guards test a Perm's membership in
# sets on every step, so a Perm also keeps its hash in a slot, with the
# value the generated hash gives: every set of Perms iterates as before.

@dataclass(frozen=True, slots=True)
class Perm:
    """A permission: identifier, optional group, protection level."""

    id: str
    group: Optional[str]
    level: str
    _vkey: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.id, self.group, self.level)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class Manifest:
    """An app manifest: the requested permissions plus five opaque slots."""

    use: frozenset  # of Perm
    extra: tuple = (OPAQUE,) * 5
    _vkey: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class SysImgApp:
    """A system-image app: its id and the permissions it defines."""

    idSI: str
    defPermsSI: frozenset  # of Perm
    _vkey: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class State:
    apps: frozenset = EMPTY            # of app id
    alreadyVerified: frozenset = EMPTY  # of app id
    grantedPermGroups: Rel = EMPTY     # app id -> frozenset of group id
    perms: Rel = EMPTY                 # app id -> frozenset of Perm
    opaque5: str = OPAQUE
    opaque6: str = OPAQUE
    opaque7: str = OPAQUE
    opaque8: str = OPAQUE
    opaque9: str = OPAQUE


@dataclass(frozen=True, slots=True)
class Environment:
    manifest: Rel = EMPTY     # app id -> Manifest
    cert: Rel = EMPTY         # app id -> certificate atom
    defPerms: Rel = EMPTY     # app id -> frozenset of Perm
    systemImage: frozenset = EMPTY  # of SysImgApp


@dataclass(frozen=True, slots=True)
class System:
    state: State = State()
    environment: Environment = Environment()


STATE_FIELDS = ("apps", "alreadyVerified", "grantedPermGroups", "perms",
                "opaque5", "opaque6", "opaque7", "opaque8", "opaque9")
ENV_FIELDS = ("manifest", "cert", "defPerms", "systemImage")
COMPONENTS = STATE_FIELDS + ENV_FIELDS


# -- accessors / updaters ----------------------------------------------------
#
# Components are reachable as plain attributes (sys.state.perms, ...); the
# functions below address them by name, which is what frame checks, the
# enumerator and the declared read sets of clauses and candidates want.

def get_component(sys: System, name: str):
    if name in STATE_FIELDS:
        return getattr(sys.state, name)
    if name in ENV_FIELDS:
        return getattr(sys.environment, name)
    raise KeyError(name)


def with_component(sys: System, name: str, value) -> System:
    """System equal to sys except for the one named component."""
    if name in STATE_FIELDS:
        return System(dataclasses.replace(sys.state, **{name: value}),
                      sys.environment)
    if name in ENV_FIELDS:
        return System(sys.state,
                      dataclasses.replace(sys.environment, **{name: value}))
    raise KeyError(name)


def component_reader(*names: str) -> Callable[[System], object]:
    """A function giving a system's named components: the one value for one
    name, a tuple in the order given for several."""
    for n in names:
        if n not in COMPONENTS:
            raise KeyError(n)
    return attrgetter(*(("state." if n in STATE_FIELDS else "environment.") + n
                        for n in names))


def reading(names: tuple[str, ...], fn: Callable) -> Callable:
    """``fn``, tagged with the components it reads as its ``reads``
    attribute.  A callable without ``reads`` may read any component."""
    fn.reads = tuple(names)
    return fn


def reusing(names: tuple[str, ...], fn: Callable) -> Callable[[System], object]:
    """``System -> fn(*components)`` for the components named in ``names``,
    tagged with them by ``reading``.  It keeps its last result in one slot
    and returns it while each of those components is the same object as
    last time, without calling ``fn``."""
    read = component_reader(*names)
    last = (None, None)  # (the component, or the tuple of them; result)

    if len(names) == 1:
        def reused(sys: System):
            nonlocal last
            value = read(sys)
            seen, result = last
            if seen is not value:
                result = fn(value)
                last = (value, result)
            return result
    else:
        def reused(sys: System):
            nonlocal last
            values = read(sys)
            seen, result = last
            if seen is None or not all(map(is_, seen, values)):
                result = fn(*values)
                last = (values, result)
            return result
    return reading(names, reused)


# -- helper predicates -------------------------------------------------------

def usr_def_perm(sys: System, p: Perm) -> bool:
    """True iff p is defined by some app (either defining source)."""
    env = sys.environment
    for _, l in env.defPerms:
        if p in l:
            return True
    for s in env.systemImage:
        if p in s.defPermsSI:
            return True
    return False


def group_authorized(sys: System, app: str, group: str) -> bool:
    """True iff the user authorized the group for the app."""
    for k, gs in sys.state.grantedPermGroups:
        if k == app and group in gs:
            return True
    return False


# -- canonical JSON documents -------------------------------------------------
#
# A set is an array in canonical order with no duplicates.  A relation is an
# array of [key, value] arrays, sorted by key (then value).  Emit always
# produces the canonical form; parse accepts any order but rejects
# duplicates and unknown fields.

def _need(doc, keys, path):
    if not isinstance(doc, dict):
        raise ParseError("expected an object", path)
    got, want = set(doc), set(keys)
    if got - want:
        raise ParseError(f"unknown field(s): {', '.join(sorted(got - want))}", path)
    if want - got:
        raise ParseError(f"missing field(s): {', '.join(sorted(want - got))}", path)


def _atom(x, path) -> str:
    if not isinstance(x, str) or not x:
        raise ParseError("expected a nonempty string", path)
    return x


def _list(x, path) -> list:
    if not isinstance(x, list):
        raise ParseError("expected an array", path)
    return x


def _dedup(items, path) -> frozenset:
    out = set()
    for i, v in enumerate(items):
        if v in out:
            raise ParseError("duplicate set element", f"{path}[{i}]")
        out.add(v)
    return frozenset(out)


@dataclass(frozen=True, slots=True)
class Codec:
    """One document kind: ``emit(value)`` gives its JSON document, and
    ``parse(doc, path)`` gives the value back or raises ``ParseError`` at
    ``path``."""

    emit: Callable[[object], object]
    parse: Callable[[object, str], object]


def set_of(item: Codec) -> Codec:
    """A set of items, emitted in canonical order."""
    return Codec(
        lambda s: [item.emit(v) for v in canonical_order(s)],
        lambda doc, path: _dedup([item.parse(x, f"{path}[{i}]")
                                  for i, x in enumerate(_list(doc, path))], path))


def rel_of(value: Codec) -> Codec:
    """A relation from atoms to values, as [key, value] pairs."""
    def parse(doc, path) -> Rel:
        pairs = []
        for i, entry in enumerate(_list(doc, path)):
            epath = f"{path}[{i}]"
            if not isinstance(entry, list) or len(entry) != 2:
                raise ParseError("expected a [key, value] pair", epath)
            pairs.append((_atom(entry[0], f"{epath}[0]"),
                          value.parse(entry[1], f"{epath}[1]")))
        return _dedup(pairs, path)
    return Codec(lambda rel: [[k, value.emit(v)] for k, v in order_by_key(rel)],
                 parse)


def record(cls, **fields: Codec) -> Codec:
    """An object with exactly the given fields, emitted in declaration order;
    ``cls`` takes them as keyword arguments and exposes them as attributes."""
    def parse(doc, path):
        _need(doc, fields, path)
        return cls(**{name: c.parse(doc[name], f"{path}.{name}" if path else name)
                      for name, c in fields.items()})
    return Codec(lambda v: {name: c.emit(getattr(v, name))
                            for name, c in fields.items()},
                 parse)


def _same(x):
    return x


def _level(x, path) -> str:
    if x not in PROTECTION_LEVELS:
        raise ParseError(f"level must be one of {PROTECTION_LEVELS}", path)
    return x


def _opaque_slots(doc, path) -> tuple:
    if len(_list(doc, path)) != 5:
        raise ParseError("expected exactly 5 opaque slots", path)
    return tuple(_atom(x, f"{path}[{i}]") for i, x in enumerate(doc))


ATOM = Codec(_same, _atom)
GROUP = Codec(_same, lambda x, path: None if x is None else _atom(x, path))
LEVEL = Codec(_same, _level)
OPAQUE_SLOTS = Codec(list, _opaque_slots)

PERM = record(Perm, id=ATOM, group=GROUP, level=LEVEL)
PERM_SET = set_of(PERM)  # also the system-permission set
MANIFEST = record(Manifest, use=PERM_SET, extra=OPAQUE_SLOTS)
SYSIMG = record(SysImgApp, idSI=ATOM, defPermsSI=PERM_SET)
STATE = record(State, apps=set_of(ATOM), alreadyVerified=set_of(ATOM),
               grantedPermGroups=rel_of(set_of(ATOM)), perms=rel_of(PERM_SET),
               **{f: ATOM for f in STATE_FIELDS[4:]})
ENVIRONMENT = record(Environment, manifest=rel_of(MANIFEST), cert=rel_of(ATOM),
                     defPerms=rel_of(PERM_SET), systemImage=set_of(SYSIMG))
SYSTEM = record(System, state=STATE, environment=ENVIRONMENT)


def _fields(pairs: list) -> dict:
    # plain json.loads keeps the last value of a repeated key
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise ParseError(f"repeated field: {k}")
            seen.add(k)
    return doc


def _loads(text: str):
    try:
        return json.loads(text, object_pairs_hook=_fields)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", "") from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply", "") from e


perm_to_doc = PERM.emit
state_to_doc = SYSTEM.emit


def perm_from_doc(doc, path="perm") -> Perm:
    return PERM.parse(doc, path)


def state_from_doc(doc) -> System:
    return SYSTEM.parse(doc, "")


def emit_state(sys: System) -> str:
    """Canonical, newline-terminated text for a system."""
    return json.dumps(state_to_doc(sys), indent=2) + "\n"


def parse_state(text: str) -> System:
    return state_from_doc(_loads(text))


def system_perms_from_doc(doc) -> frozenset:
    """The set of a ``{"systemPerms": [...]}`` document."""
    _need(doc, ("systemPerms",), "")
    return PERM_SET.parse(doc["systemPerms"], "systemPerms")
