"""Ground finite-set and binary-relation kernel.

Values are immutable Python data with structural equality:

* atoms        -> ``str``
* integers     -> ``int``
* pairs        -> 2-tuples
* finite sets  -> ``frozenset`` (duplicate-free by construction)

Binary relations are just frozensets of pairs.  Record types (permissions,
manifests, ...) are frozen dataclasses with a ``_vkey`` slot (default
``None``); the kernel derives a record's order key from its fields on first
use and stores it there.

Everything here evaluates on fully concrete data: no unbound variables, no
unification, no search.  The bounded verifier built on top gets its power
from enumeration instead of symbolic solving.  All operations are pure
functions over immutable inputs and are safe to share across threads: the
one write, caching a record's key, stores a value that depends only on the
record's fields, so a racing write stores the same value.  The one memo
built on top, ``model.reusing`` for clauses and candidates, follows the
same rule: it is one slot holding an immutable tuple of inputs and result,
which a caller reads once into locals, and racing writes for the same
inputs store equal values.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

Value = Any
Rel = frozenset

EMPTY: frozenset = frozenset()


class AmbiguousApplication(Exception):
    """Relation application hit a key with two or more distinct images."""


_NOT_RECORD = object()


def value_key(v: Value) -> tuple:
    """Total-order key over values.

    Atoms sort lexicographically, then integers, then pairs/tuples
    lexicographically, then sets by their sorted elements.  Records sort
    after the primitives, by class name and then by their init fields in
    declaration order.  A record's key is computed here on first use and
    stored in its ``_vkey`` slot; it depends only on the fields, so a racing
    write stores the same value.  This single order fixes the witness
    returned by :func:`exists_in`, serialization order, and the order of the
    pools and candidate actions the verifier enumerates.  It never depends
    on object identity or hashing, so it is stable across processes.
    """
    if type(v) is str:
        return (1, v)
    vk = getattr(v, "_vkey", _NOT_RECORD)
    if vk is not _NOT_RECORD:
        if vk is None:
            # a dataclass's __match_args__ names its init fields in order
            fields = tuple(getattr(v, f) for f in v.__match_args__)
            vk = (5, type(v).__name__, value_key(fields))
            object.__setattr__(v, "_vkey", vk)
        return vk
    if v is None:
        return (0,)
    if isinstance(v, bool):
        raise TypeError("booleans are not kernel values")
    if isinstance(v, int):
        return (2, v)
    if isinstance(v, tuple):
        return (3, tuple(value_key(x) for x in v))
    if isinstance(v, frozenset):
        return (4, tuple(sorted(value_key(x) for x in v)))
    raise TypeError(f"not a kernel value: {v!r}")


def canonical_order(values: Iterable[Value]) -> list:
    """Sort values by :func:`value_key`."""
    return sorted(values, key=value_key)


# -- binary relations --------------------------------------------------------

def dom(r: Rel) -> frozenset:
    """Domain of a relation: every first component."""
    return frozenset(x for x, _ in r)


def comp(r: Rel, s: Rel) -> Rel:
    """Relational composition: {(x, z) | exists y. (x, y) in r and (y, z) in s}."""
    by_first: dict = {}
    for y, z in s:
        by_first.setdefault(y, []).append(z)
    return frozenset((x, z) for x, y in r for z in by_first.get(y, ()))


def not_in_dom(r: Rel, x: Value) -> bool:
    """True iff x is not a key of r.

    Encoded as composing the singleton identity {(x, x)} with r and testing
    emptiness, which is equivalent to the direct domain test.
    """
    return comp(frozenset(((x, x),)), r) == EMPTY


def is_pfun(r: Rel) -> bool:
    """True iff no two distinct pairs of r share a first component."""
    return len({x for x, _ in r}) == len(r)


def order_by_key(r: Rel) -> list:
    """The pairs of r in canonical order.

    When no two pairs share a key, the keys alone decide the order of the
    pairs, so they are sorted by the key's :func:`value_key` and no image's
    key is computed.  A multiply keyed relation falls back to
    :func:`canonical_order`, which breaks ties between a key's images.
    """
    if not is_pfun(r):
        return canonical_order(r)
    return sorted(r, key=_key_of_key)


def _key_of_key(pair: tuple) -> tuple:
    return value_key(pair[0])


def rel_apply(r: Rel, x: Value) -> Optional[Value]:
    """Image of x under r when unique; None when x is not a key.

    Raises :class:`AmbiguousApplication` when x has two or more images.
    Callers are expected to guard with :func:`is_pfun`; the error surfaces
    model bugs instead of silently picking an image.
    """
    images = [y for k, y in r if k == x]
    if not images:
        return None
    if len(images) > 1:
        raise AmbiguousApplication(f"key {x!r} has {len(images)} images")
    return images[0]


def foplus(f: Rel, x: Value, y: Value) -> Rel:
    """Function override: replace or insert the image of one key.

    The result equals f except at x: all pairs keyed x (exactly one when f
    is a partial function) are dropped and (x, y) is added.
    """
    return frozenset(p for p in f if p[0] != x) | {(x, y)}


# -- restricted quantifiers --------------------------------------------------
#
# forall_in/exists_in quantify over membership in a finite set.  A body that
# needs an intermediate value (an id, a record's field) reads it itself;
# nested quantification is plain lexical nesting of calls.

def forall_in(domain: Iterable[Value], body: Callable[[Value], bool]) -> bool:
    """True iff body(elem) holds for every element of domain.

    The domain is walked unsorted: the result cannot depend on the order.
    """
    return all(map(body, domain))


def exists_in(domain: Iterable[Value],
              body: Callable[[Value], bool]) -> Optional[Value]:
    """First element (in canonical order) satisfying body, or None."""
    return next(filter(body, canonical_order(domain)), None)
