"""Ground finite-set and binary-relation kernel.

Values are immutable Python data with structural equality:

* atoms        -> ``str``
* integers     -> ``int``
* pairs        -> 2-tuples
* finite sets  -> ``frozenset`` (duplicate-free by construction)

Binary relations are just frozensets of pairs.  Record types (permissions,
manifests, ...) participate by precomputing their order key in a ``_vkey``
attribute.

Everything here evaluates on fully concrete data: no unbound variables, no
unification, no search.  The bounded verifier built on top gets its power
from enumeration instead of symbolic solving.  All operations are pure
functions over immutable inputs and are safe to share across threads.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

Value = Any
Rel = frozenset

EMPTY: frozenset = frozenset()


class KernelError(Exception):
    """Base class for kernel evaluation errors."""


class AmbiguousApplication(KernelError):
    """Relation application hit a key with two or more distinct images."""


class BindingNotFunctional(KernelError):
    """A quantifier binding produced zero or several results for an element."""


def value_key(v: Value) -> tuple:
    """Total-order key over values.

    Atoms sort lexicographically, then integers, then pairs/tuples
    lexicographically, then sets by their sorted elements.  Record types
    sort after the primitives, grouped by class name.  This single order
    fixes the witness returned by :func:`exists_in`, serialization order,
    and the order of the pools and candidate actions the verifier
    enumerates.  It never depends on object identity or hashing, so it is
    stable across processes.
    """
    if type(v) is str:
        return (1, v)
    vk = getattr(v, "_vkey", None)  # records may precompute their key
    if vk is not None:
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


def apply_or_empty(r: Rel, x: Value) -> frozenset:
    """rel_apply(r, x) if x is a key, otherwise the empty set.

    Assumes every image of x, if any, is itself a set; ambiguity propagates.
    """
    y = rel_apply(r, x)
    return EMPTY if y is None else y


def foplus(f: Rel, x: Value, y: Value) -> Rel:
    """Function override: replace or insert the image of one key.

    The result equals f except at x: all pairs keyed x (exactly one when f
    is a partial function) are dropped and (x, y) is added.
    """
    return frozenset(p for p in f if p[0] != x) | {(x, y)}


# -- restricted quantifiers --------------------------------------------------
#
# forall_in/exists_in quantify over membership in a finite set, optionally
# naming intermediate results through "bindings": callables applied to the
# element whose single result is passed to the body as an extra argument.
# A binding returning None (zero results) or hitting an ambiguous relation
# application (several results) is not functional and is reported as such.
# Nested quantification is plain lexical nesting of calls.

def _bind(elem: Value, bindings: Sequence[Callable]) -> list:
    out = []
    for b in bindings:
        try:
            v = b(elem)
        except AmbiguousApplication as e:
            raise BindingNotFunctional(
                f"binding yielded several results for {elem!r}") from e
        if v is None:
            raise BindingNotFunctional(f"binding yielded no result for {elem!r}")
        out.append(v)
    return out


def forall_in(domain: Iterable[Value], body: Callable[..., bool],
              bindings: Sequence[Callable] = ()) -> bool:
    """True iff body(elem, *bound) holds for every element of domain.

    The domain is walked unsorted: with functional bindings the result
    cannot depend on the order.
    """
    for elem in domain:
        if not body(elem, *_bind(elem, bindings)):
            return False
    return True


def exists_in(domain: Iterable[Value], body: Callable[..., bool],
              bindings: Sequence[Callable] = ()) -> Optional[Value]:
    """First element (in canonical order) satisfying body, or None."""
    for elem in canonical_order(domain):
        if body(elem, *_bind(elem, bindings)):
            return elem
    return None
