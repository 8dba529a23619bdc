"""Domain types for the Android-style permission model.

The machine state is a ``System``: a 9-slot ``State`` (four slots carry
meaning here, five are opaque) paired with a 4-slot ``Environment``.  Every
mapping component is a ground binary relation (frozenset of pairs) as in
:mod:`permcheck.kernel`.  This module also owns the canonical JSON text
format for states and permission lists.

Identifiers (app ids, permission ids, group ids, certificates) are plain
nonempty strings.  Optional groups are ``None`` or a group id; documents
serialize the absent case as JSON ``null``, never a sentinel atom.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional

from .kernel import EMPTY, Rel, canonical_order

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
# key the first time it is asked for.

@dataclass(frozen=True, slots=True)
class Perm:
    """A permission: identifier, optional group, protection level."""

    id: str
    group: Optional[str]
    level: str
    _vkey: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


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


def empty_system() -> System:
    return System()


# -- accessors / updaters ----------------------------------------------------
#
# Components are reachable as plain attributes (sys.state.perms, ...); the
# generic pair below addresses them by name, which is what frame checks and
# the enumerator want.

def get_component(sys: System, name: str):
    if name in STATE_FIELDS:
        return getattr(sys.state, name)
    if name in ENV_FIELDS:
        return getattr(sys.environment, name)
    raise KeyError(name)


def with_component(sys: System, name: str, value) -> System:
    """System equal to sys except for the one named component."""
    if name in STATE_FIELDS:
        # every successful operation step passes here; a positional rebuild
        # is measurably cheaper than dataclasses.replace
        st = sys.state
        return System(State(*[value if f == name else getattr(st, f)
                              for f in STATE_FIELDS]), sys.environment)
    if name in ENV_FIELDS:
        return System(sys.state,
                      dataclasses.replace(sys.environment, **{name: value}))
    raise KeyError(name)


def differing_components(a: System, b: System) -> list[str]:
    """Names of components that differ structurally between two systems."""
    return [n for n in COMPONENTS if get_component(a, n) != get_component(b, n)]


# -- helper predicates -------------------------------------------------------

def usr_def_perm(sys: System, p: Perm) -> bool:
    """True iff p is defined by some app (either defining source)."""
    return (any(p in l for _, l in sys.environment.defPerms)
            or any(p in s.defPermsSI for s in sys.environment.systemImage))


def group_authorized(sys: System, app: str, group: str) -> bool:
    """True iff the user authorized the group for the app."""
    return any(k == app and group in gs for k, gs in sys.state.grantedPermGroups)


# -- canonical JSON documents -------------------------------------------------
#
# A set is an array in canonical order with no duplicates.  A relation is an
# array of [key, value] arrays, sorted by key (then value).  Emit always
# produces the canonical form; parse accepts any order but rejects
# duplicates and unknown fields.

def perm_to_doc(p: Perm) -> dict:
    return {"id": p.id, "group": p.group, "level": p.level}


def _sorted_docs(values, to_doc):
    return [to_doc(v) for v in canonical_order(values)]


def _rel_doc(rel: Rel, value_doc) -> list:
    return [[k, value_doc(v)] for k, v in canonical_order(rel)]


def manifest_to_doc(m: Manifest) -> dict:
    return {"use": _sorted_docs(m.use, perm_to_doc), "extra": list(m.extra)}


def sysimg_to_doc(s: SysImgApp) -> dict:
    return {"idSI": s.idSI, "defPermsSI": _sorted_docs(s.defPermsSI, perm_to_doc)}


def _atoms_doc(s: frozenset) -> list:
    return canonical_order(s)


def _perm_set_doc(s: frozenset) -> list:
    return _sorted_docs(s, perm_to_doc)


def state_to_doc(sys: System) -> dict:
    st, env = sys.state, sys.environment
    return {
        "state": {
            "apps": _atoms_doc(st.apps),
            "alreadyVerified": _atoms_doc(st.alreadyVerified),
            "grantedPermGroups": _rel_doc(st.grantedPermGroups, _atoms_doc),
            "perms": _rel_doc(st.perms, _perm_set_doc),
            "opaque5": st.opaque5,
            "opaque6": st.opaque6,
            "opaque7": st.opaque7,
            "opaque8": st.opaque8,
            "opaque9": st.opaque9,
        },
        "environment": {
            "manifest": _rel_doc(env.manifest, manifest_to_doc),
            "cert": _rel_doc(env.cert, lambda c: c),
            "defPerms": _rel_doc(env.defPerms, _perm_set_doc),
            "systemImage": _sorted_docs(env.systemImage, sysimg_to_doc),
        },
    }


def emit_state(sys: System) -> str:
    """Canonical, newline-terminated text for a system."""
    return json.dumps(state_to_doc(sys), indent=2) + "\n"


def system_perms_to_doc(sp: frozenset) -> dict:
    return {"systemPerms": _sorted_docs(sp, perm_to_doc)}


# -- parsing -----------------------------------------------------------------

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


def perm_from_doc(doc, path="perm") -> Perm:
    _need(doc, ("id", "group", "level"), path)
    pid = _atom(doc["id"], f"{path}.id")
    group = doc["group"]
    if group is not None:
        group = _atom(group, f"{path}.group")
    level = doc["level"]
    if level not in PROTECTION_LEVELS:
        raise ParseError(f"level must be one of {PROTECTION_LEVELS}", f"{path}.level")
    return Perm(pid, group, level)


def _dedup(items, path) -> frozenset:
    out = set()
    for i, v in enumerate(items):
        if v in out:
            raise ParseError("duplicate set element", f"{path}[{i}]")
        out.add(v)
    return frozenset(out)


def _atom_set(doc, path) -> frozenset:
    return _dedup([_atom(x, f"{path}[{i}]") for i, x in enumerate(_list(doc, path))], path)


def _perm_set(doc, path) -> frozenset:
    return _dedup([perm_from_doc(x, f"{path}[{i}]") for i, x in enumerate(_list(doc, path))], path)


def _rel(doc, value_parser, path) -> Rel:
    pairs = []
    for i, entry in enumerate(_list(doc, path)):
        epath = f"{path}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError("expected a [key, value] pair", epath)
        pairs.append((_atom(entry[0], f"{epath}[0]"), value_parser(entry[1], f"{epath}[1]")))
    return _dedup(pairs, path)


def manifest_from_doc(doc, path) -> Manifest:
    _need(doc, ("use", "extra"), path)
    extra = _list(doc["extra"], f"{path}.extra")
    if len(extra) != 5:
        raise ParseError("expected exactly 5 opaque slots", f"{path}.extra")
    extra = tuple(_atom(x, f"{path}.extra[{i}]") for i, x in enumerate(extra))
    return Manifest(_perm_set(doc["use"], f"{path}.use"), extra)


def sysimg_from_doc(doc, path) -> SysImgApp:
    _need(doc, ("idSI", "defPermsSI"), path)
    return SysImgApp(_atom(doc["idSI"], f"{path}.idSI"),
                     _perm_set(doc["defPermsSI"], f"{path}.defPermsSI"))


def state_from_doc(doc) -> System:
    _need(doc, ("state", "environment"), "")
    st_doc, env_doc = doc["state"], doc["environment"]
    _need(st_doc, STATE_FIELDS, "state")
    _need(env_doc, ENV_FIELDS, "environment")
    st = State(
        apps=_atom_set(st_doc["apps"], "state.apps"),
        alreadyVerified=_atom_set(st_doc["alreadyVerified"], "state.alreadyVerified"),
        grantedPermGroups=_rel(st_doc["grantedPermGroups"], _atom_set,
                               "state.grantedPermGroups"),
        perms=_rel(st_doc["perms"], _perm_set, "state.perms"),
        **{f: _atom(st_doc[f], f"state.{f}") for f in STATE_FIELDS[4:]},
    )
    env = Environment(
        manifest=_rel(env_doc["manifest"], manifest_from_doc, "environment.manifest"),
        cert=_rel(env_doc["cert"], _atom, "environment.cert"),
        defPerms=_rel(env_doc["defPerms"], _perm_set, "environment.defPerms"),
        systemImage=_dedup(
            [sysimg_from_doc(x, f"environment.systemImage[{i}]")
             for i, x in enumerate(_list(env_doc["systemImage"], "environment.systemImage"))],
            "environment.systemImage"),
    )
    return System(st, env)


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}", "") from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply", "") from e


def parse_state(text: str) -> System:
    return state_from_doc(_loads(text))


def system_perms_from_doc(doc) -> frozenset:
    _need(doc, ("systemPerms",), "")
    return _perm_set(doc["systemPerms"], "systemPerms")


def parse_system_perms(text: str) -> frozenset:
    return system_perms_from_doc(_loads(text))
