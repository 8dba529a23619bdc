import os
from itertools import chain, islice
from pathlib import Path

import pytest

from permcheck.kernel import EMPTY, foplus
from permcheck.model import (
    COMPONENTS,
    DANGEROUS,
    Environment,
    Manifest,
    Perm,
    State,
    System,
    get_component,
)
from permcheck.statespace import Bounds, SystemSpace, state_stream

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """This process's environment with the checkout's ``src/`` first on
    PYTHONPATH, so a subprocess imports the permcheck under test."""
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


READ = Perm("read", "contacts", DANGEROUS)
WRITE = Perm("write", "contacts", DANGEROUS)
NET = Perm("net", None, "normal")  # ungrouped


def changed_components(a: System, b: System) -> list[str]:
    """The names of the components that differ structurally between a and b."""
    return [n for n in COMPONENTS if get_component(a, n) != get_component(b, n)]


def make_system(apps=(), mg=EMPTY, perms=EMPTY, manifest=EMPTY, cert=EMPTY,
                def_perms=EMPTY, system_image=EMPTY, verified=()):
    return System(
        State(apps=frozenset(apps), alreadyVerified=frozenset(verified),
              grantedPermGroups=mg, perms=perms),
        Environment(manifest=manifest, cert=cert, defPerms=def_perms,
                    systemImage=system_image),
    )


@pytest.fixture
def f1():
    """App a1 installed, manifest requests READ, contacts group authorized,
    READ is a system permission, nothing granted yet."""
    sys = make_system(
        apps=("a1",),
        mg=frozenset((("a1", frozenset(("contacts",))),)),
        manifest=frozenset((("a1", Manifest(frozenset((READ,)))),)),
    )
    return {"sp": frozenset((READ,)), "sys": sys, "p": READ, "app": "a1"}


def sp_variants(action) -> tuple:
    """The system-permission sets the search tries for ``action``: the
    empty set, then the action's own permission when it names one.  An
    operation reads the set only through that membership, so the two cover
    every set."""
    return (EMPTY,) if action.perm is None else (EMPTY, frozenset((action.perm,)))


def _image_union(rel, key) -> frozenset:
    return frozenset().union(*(v for k, v in rel if k == key))


def random_grant_auto_state(space, rng):
    """A seeded random system of ``space`` rewired so grantAuto's condition
    holds.  Returns the system plus the (perm, app, system-permission set)
    to grant; the contract tests need many varied enabled states rather
    than the small deterministic targeted family."""
    pools = space.pools
    base = space.unrank(rng.randrange(space.size))
    a = rng.choice(pools.apps)
    p = rng.choice([q for q in pools.all_perms
                    if q.level == DANGEROUS and q.group is not None])
    st, env = base.state, base.environment

    manifest = foplus(env.manifest, a, Manifest(frozenset((p,))))
    mg = foplus(st.grantedPermGroups, a,
                _image_union(st.grantedPermGroups, a) | {p.group})
    perms = st.perms
    if any(k == a for k, _ in perms):
        perms = foplus(perms, a, _image_union(perms, a) - {p})
    def_perms = env.defPerms
    if rng.random() < 0.5:
        sp = frozenset((p,))
    else:
        sp = EMPTY
        def_perms = foplus(def_perms, a, frozenset((p,)))
    return (System(State(st.apps | {a}, st.alreadyVerified, mg, perms),
                   Environment(manifest, env.cert, def_perms, env.systemImage)),
            p, a, sp)


def rank_order_states(tiny=None):
    """The first ``tiny`` states of (1,1,1,1) in rank order (all 98,304 by
    default), then 2,000 seeded samples of (2,2,2,2).  Consecutive states
    share component objects: in rank order a State for 1,024 states and a
    manifest for 128; among the samples, the component values a space holds
    once decoded.  So a registry or clause tuple kept across the stream
    reuses its last results here, as in a sweep."""
    b = Bounds(2, 2, 2, 2, budget=2000, seed=0)
    return chain(islice(SystemSpace(Bounds(1, 1, 1, 1)), tiny),
                 state_stream(SystemSpace(b)))
