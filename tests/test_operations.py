import collections
import dataclasses
import random

import pytest

from conftest import (NET, READ, WRITE, changed_components, make_system,
                      random_grant_auto_state, rank_order_states, sp_variants)
from permcheck.kernel import EMPTY, canonical_order
from permcheck.model import (
    DANGEROUS,
    Manifest,
    ParseError,
    Perm,
    System,
    get_component,
    state_to_doc,
)
from permcheck.operations import (
    OP_NAMES,
    Action,
    Operation,
    action_from_doc,
    action_to_doc,
    default_operations,
    grant_auto_operation,
    grant_auto,
    has_permission,
    pre_grant_auto,
    scenario_from_doc,
    step,
)
from permcheck.statespace import Bounds, SystemSpace


def granted(sys, app):
    images = [v for k, v in sys.state.perms if k == app]
    assert len(images) <= 1
    return images[0] if images else None


def groups_of(sys, app):
    images = [v for k, v in sys.state.grantedPermGroups if k == app]
    return images[0] if images else None


class TestPreGrantAuto:
    def test_f1_enables_all_conjuncts(self, f1):
        action = Action("grantAuto", perm=f1["p"], app=f1["app"])
        assert pre_grant_auto(f1["sp"], f1["sys"], action) is None

    def test_normal_level_fails_conjunct_4(self, f1):
        p = Perm("read", "contacts", "normal")
        sys = make_system(
            apps=("a1",),
            mg=frozenset((("a1", frozenset(("contacts",))),)),
            manifest=frozenset((("a1", Manifest(frozenset((p,)))),)),
        )
        action = Action("grantAuto", perm=p, app="a1")
        assert pre_grant_auto(frozenset((p,)), sys, action) == 4

    def test_unauthorized_group_fails_conjunct_5(self, f1):
        sys = make_system(
            apps=("a1",),
            mg=frozenset((("a1", EMPTY),)),
            manifest=f1["sys"].environment.manifest,
        )
        action = Action("grantAuto", perm=f1["p"], app="a1")
        assert pre_grant_auto(f1["sp"], sys, action) == 5

    def test_not_in_manifest_fails_conjunct_1(self, f1):
        action = Action("grantAuto", perm=WRITE, app="a1")
        assert pre_grant_auto(f1["sp"], f1["sys"], action) == 1

    def test_not_defined_anywhere_fails_conjunct_2(self, f1):
        action = Action("grantAuto", perm=f1["p"], app="a1")
        assert pre_grant_auto(EMPTY, f1["sys"], action) == 2

    def test_user_defined_satisfies_conjunct_2(self, f1):
        sys = make_system(
            apps=("a1",),
            mg=f1["sys"].state.grantedPermGroups,
            manifest=f1["sys"].environment.manifest,
            def_perms=frozenset((("a2", frozenset((f1["p"],))),)),
        )
        action = Action("grantAuto", perm=f1["p"], app="a1")
        assert pre_grant_auto(EMPTY, sys, action) is None

    def test_already_granted_fails_conjunct_3(self, f1):
        sys = make_system(
            apps=("a1",),
            mg=f1["sys"].state.grantedPermGroups,
            perms=frozenset((("a1", frozenset((f1["p"],))),)),
            manifest=f1["sys"].environment.manifest,
        )
        action = Action("grantAuto", perm=f1["p"], app="a1")
        assert pre_grant_auto(f1["sp"], sys, action) == 3

    def test_multiply_keyed_perms_fail_conjunct_3(self, f1):
        # a1 has two images, neither holding the permission: an entry keyed
        # twice has no functional override, so grantAuto and grant block
        sys = make_system(
            apps=("a1",),
            mg=f1["sys"].state.grantedPermGroups,
            perms=frozenset((("a1", EMPTY), ("a1", frozenset((NET,))))),
            manifest=f1["sys"].environment.manifest,
        )
        action = Action("grantAuto", perm=f1["p"], app="a1")
        assert pre_grant_auto(f1["sp"], sys, action) == 3
        for op in ("grantAuto", "grant"):
            action = Action(op, perm=f1["p"], app="a1")
            for out in (step(f1["sp"], sys, action),
                        default_operations()[op].apply(f1["sp"], sys, action)):
                assert not out.ok and out.failed_conjunct == 3, op

    def test_skip_disables_a_conjunct(self, f1):
        sys = make_system(
            apps=("a1",),
            mg=frozenset((("a1", EMPTY),)),
            manifest=f1["sys"].environment.manifest,
        )
        action = Action("grantAuto", perm=f1["p"], app="a1")
        assert pre_grant_auto(f1["sp"], sys, action, skip=(5,)) is None


class TestGrantAuto:
    def test_f1_grants_into_fresh_image(self, f1):
        out = grant_auto(f1["sp"], f1["sys"], f1["p"], f1["app"])
        assert out.ok
        assert out.system.state.perms == frozenset((("a1", frozenset((READ,))),))
        assert changed_components(f1["sys"], out.system) == ["perms"]

    def test_grants_into_existing_image(self, f1):
        q = NET  # unrelated, not blocking the precondition
        sys = make_system(
            apps=("a1",),
            mg=f1["sys"].state.grantedPermGroups,
            perms=frozenset((("a1", frozenset((q,))),)),
            manifest=f1["sys"].environment.manifest,
        )
        out = grant_auto(f1["sp"], sys, f1["p"], "a1")
        assert out.ok
        assert granted(out.system, "a1") == frozenset((q, READ))

    def test_regrant_blocked_by_conjunct_3(self, f1):
        first = grant_auto(f1["sp"], f1["sys"], f1["p"], f1["app"]).system
        again = grant_auto(f1["sp"], first, f1["p"], f1["app"])
        assert not again.ok and again.failed_conjunct == 3

    def test_blocked_outcome_has_no_system(self, f1):
        out = grant_auto(EMPTY, f1["sys"], f1["p"], f1["app"])
        assert not out.ok and out.system is None and out.failed_conjunct == 2


class TestGrant:
    def test_records_group_authorization(self, f1):
        sys = make_system(apps=("a1",), mg=frozenset((("a1", EMPTY),)),
                          manifest=f1["sys"].environment.manifest)
        out = step(f1["sp"], sys, Action("grant", perm=f1["p"], app="a1"))
        assert out.ok
        assert granted(out.system, "a1") == frozenset((READ,))
        assert groups_of(out.system, "a1") == frozenset(("contacts",))

    def test_ungrouped_perm_leaves_groups_alone(self):
        u = Perm("boot", None, DANGEROUS)
        sys = make_system(apps=("a1",),
                          manifest=frozenset((("a1", Manifest(frozenset((u,)))),)))
        out = step(frozenset((u,)), sys, Action("grant", perm=u, app="a1"))
        assert out.ok
        assert out.system.state.grantedPermGroups == EMPTY

    def test_not_in_manifest_fails_conjunct_1(self, f1):
        out = step(f1["sp"], f1["sys"], Action("grant", perm=WRITE, app="a1"))
        assert not out.ok and out.failed_conjunct == 1

    def test_no_group_authorization_needed(self, f1):
        sys = make_system(apps=("a1",), manifest=f1["sys"].environment.manifest)
        assert step(f1["sp"], sys, Action("grant", perm=f1["p"], app="a1")).ok


class TestRevoke:
    def test_removes_ungrouped_perm(self):
        sys = make_system(perms=frozenset((("a1", frozenset((NET,))),)))
        out = step(EMPTY, sys, Action("revoke", perm=NET, app="a1"))
        assert out.ok
        assert granted(out.system, "a1") == EMPTY

    def test_grouped_perm_rejected(self):
        sys = make_system(perms=frozenset((("a1", frozenset((READ,))),)))
        out = step(EMPTY, sys, Action("revoke", perm=READ, app="a1"))
        assert not out.ok and out.failed_conjunct == 1

    def test_not_granted_rejected(self):
        out = step(EMPTY, make_system(), Action("revoke", perm=NET, app="a1"))
        assert not out.ok and out.failed_conjunct == 2


class TestRevokeGroup:
    def test_removes_group_and_its_perms(self):
        sys = make_system(
            mg=frozenset((("a1", frozenset(("contacts",))),)),
            perms=frozenset((("a1", frozenset((READ, NET))),)),
        )
        out = step(EMPTY, sys, Action("revokeGroup", group="contacts", app="a1"))
        assert out.ok
        assert groups_of(out.system, "a1") == EMPTY
        assert granted(out.system, "a1") == frozenset((NET,))
        assert set(changed_components(sys, out.system)) == {
            "grantedPermGroups", "perms"}

    def test_unauthorized_group_rejected(self):
        out = step(EMPTY, make_system(), Action("revokeGroup", group="contacts", app="a1"))
        assert not out.ok and out.failed_conjunct == 1

    def test_zero_granted_perms_of_group_leaves_perms_alone(self):
        sys = make_system(mg=frozenset((("a1", frozenset(("contacts",))),)))
        out = step(EMPTY, sys, Action("revokeGroup", group="contacts", app="a1"))
        assert out.ok
        assert out.system.state.perms == sys.state.perms == EMPTY

    def test_empty_removal_set_keeps_image(self):
        sys = make_system(
            mg=frozenset((("a1", frozenset(("contacts",))),)),
            perms=frozenset((("a1", frozenset((NET,))),)),
        )
        out = step(EMPTY, sys, Action("revokeGroup", group="contacts", app="a1"))
        assert out.ok
        assert granted(out.system, "a1") == frozenset((NET,))


class TestHasPermission:
    def test_true_after_grant_auto(self, f1):
        nxt = grant_auto(f1["sp"], f1["sys"], f1["p"], f1["app"]).system
        assert has_permission(nxt, f1["p"], "a1")

    def test_false_on_empty(self):
        assert not has_permission(make_system(), READ, "a1")

    def test_false_for_other_app(self, f1):
        nxt = grant_auto(f1["sp"], f1["sys"], f1["p"], f1["app"]).system
        assert not has_permission(nxt, f1["p"], "a2")


class TestStep:
    def test_dispatches_grant_auto(self, f1):
        action = Action("grantAuto", perm=f1["p"], app=f1["app"])
        assert step(f1["sp"], f1["sys"], action) == \
            grant_auto(f1["sp"], f1["sys"], f1["p"], f1["app"])

    def test_has_permission_leaves_state_equal(self, f1):
        out = step(f1["sp"], f1["sys"], Action("hasPermission", perm=READ, app="a1"))
        assert out.ok and out.system == f1["sys"] and out.result is False

    def test_unknown_app_revoke_is_an_error_outcome(self, f1):
        out = step(f1["sp"], f1["sys"], Action("revoke", perm=NET, app="ghost"))
        assert not out.ok

    def test_unknown_op_raises(self, f1):
        with pytest.raises(ValueError):
            step(f1["sp"], f1["sys"], Action("install", perm=READ, app="a1"))


class TestContracts:
    """Frame, monotonicity and non-re-enabling over random enabled states."""

    def setup_method(self):
        self.space = SystemSpace(Bounds(2, 2, 2, 2))
        self.rng = random.Random(1234)

    def test_grant_auto_contracts(self):
        for _ in range(400):
            sys, p, a, sp = random_grant_auto_state(self.space, self.rng)
            action = Action("grantAuto", perm=p, app=a)
            assert pre_grant_auto(sp, sys, action) is None
            out = grant_auto(sp, sys, p, a)
            assert out.ok
            # frame: only the granted-permission mapping changes
            assert changed_components(sys, out.system) in ([], ["perms"])
            # monotonicity: images only grow, and p lands at a
            old = dict(sys.state.perms)
            new = dict(out.system.state.perms)
            for app, image in old.items():
                assert image <= new[app]
            assert p in new[a]
            # not re-enabled afterwards
            assert pre_grant_auto(sp, out.system, action) == 3


class TestActionDocs:
    def test_round_trip(self):
        action = Action("grantAuto", perm=READ, app="a1")
        assert action_from_doc(action_to_doc(action)) == action
        rg = Action("revokeGroup", group="contacts", app="a1")
        assert action_from_doc(action_to_doc(rg)) == rg

    def test_unknown_op_rejected(self):
        with pytest.raises(ParseError):
            action_from_doc({"op": "install", "perm": None, "app": "a1"})

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError):
            action_from_doc({"op": "revoke", "app": "a1"})

    def test_scenario_parses(self, f1):
        doc = {
            "systemPerms": [{"id": "read", "group": "contacts", "level": "dangerous"}],
            "initial": state_to_doc(f1["sys"]),
            "actions": [{"op": "grantAuto",
                         "perm": {"id": "read", "group": "contacts",
                                  "level": "dangerous"},
                         "app": "a1"}],
        }
        sc = scenario_from_doc(doc)
        assert sc.system_perms == f1["sp"]
        assert sc.initial == f1["sys"]
        assert sc.actions[0].perm == READ

    def test_scenario_unknown_field_rejected(self, f1):
        doc = {"systemPerms": [], "initial": state_to_doc(f1["sys"]),
               "actions": [], "notes": "x"}
        with pytest.raises(ParseError):
            scenario_from_doc(doc)


def test_default_registry_shape(f1):
    ops = default_operations()
    # hasPermission changes no state, so it is a scenario action only
    assert list(ops) == ["grantAuto", "grant", "revoke", "revokeGroup"]
    assert [o.id for o in ops.values()] == list(ops)
    assert [f.name for f in dataclasses.fields(Operation)] == \
        ["id", "apply", "candidates"]
    # the scenario parser's "op must be one of" text lists OP_NAMES in order
    assert OP_NAMES == (*ops, "hasPermission")
    # step runs every registry id (revoke refuses the grouped READ)
    assert [step(f1["sp"], f1["sys"],
                 Action(op_id, perm=READ, app="a1", group="contacts")).ok
            for op_id in ops] == [True, True, False, True]


def test_candidates_cover_enabled_actions(f1):
    ops = default_operations()
    acts = list(ops["grantAuto"].candidates(f1["sys"]))
    assert Action("grantAuto", perm=READ, app="a1") in acts


def reference_candidates(op, sys, dangerous_only=True):
    """The candidate actions with every relation walked in canonical order."""
    st, env = sys.state, sys.environment
    if op in ("grantAuto", "grant"):
        return [Action(op, perm=p, app=a)
                for a, m in canonical_order(env.manifest) if isinstance(m, Manifest)
                for p in canonical_order(m.use)
                if not dangerous_only or p.level == DANGEROUS]
    if op == "revoke":
        return [Action(op, perm=p, app=a)
                for a, granted in canonical_order(st.perms)
                for p in canonical_order(granted) if p.group is None]
    return [Action(op, group=g, app=a)
            for a, groups in canonical_order(st.grantedPermGroups)
            for g in canonical_order(groups)]


def multiply_keyed_systems():
    """Hand-built systems whose relations give one app several images."""
    ungrouped = [Perm(f"u{i}", None, "normal") for i in range(5)]
    grouped = [Perm(f"d{i}", f"g{i % 2}", DANGEROUS) for i in range(5)]
    one_each = lambda a, items: frozenset((a, frozenset((x,))) for x in items)
    return [
        make_system(perms=one_each("a1", ungrouped) | one_each("a2", ungrouped[:2])),
        make_system(mg=one_each("a1", [f"g{i}" for i in range(5)])
                    | frozenset((("a0", frozenset(("g1", "g0"))),))),
        make_system(manifest=frozenset(("a1", Manifest(frozenset((p, q))))
                                       for p, q in zip(grouped, ungrouped))
                    | frozenset((("a0", Manifest(frozenset(grouped))),))),
    ]


@pytest.mark.parametrize("source", ["sampled-2222", "all-1111", "multiply-keyed"])
def test_candidates_follow_canonical_order(source):
    if source == "sampled-2222":
        space, rng = SystemSpace(Bounds(2, 2, 2, 2)), random.Random(3)
        systems = (space.unrank(rng.randrange(space.size)) for _ in range(5000))
    elif source == "all-1111":
        systems = iter(SystemSpace(Bounds(1, 1, 1, 1)))
    else:
        systems = iter(multiply_keyed_systems())
    ops = [(op.id, op, True) for op in default_operations().values()]
    ops.append(("grantAuto", grant_auto_operation(skip=(4,)), False))
    longest = 0
    for sys in systems:
        for op_id, op, dangerous_only in ops:
            acts = list(op.candidates(sys))
            assert acts == reference_candidates(op_id, sys, dangerous_only)
            longest = max(longest, len(acts))
    # at max_card 1 a state offers each operation at most one action
    assert longest >= (1 if source == "all-1111" else 2)


@pytest.mark.parametrize("skip", [None, (2,), (3,), (4,), (5,)],
                         ids=["default", "skip2", "skip3", "skip4", "skip5"])
def test_registry_apply_equals_the_plain_transition_in_rank_order(skip):
    # both system-permission variants of every candidate, enabled or not.  A
    # grantAuto entry built with ``skip`` is checked against
    # grant_auto(..., skip) on the first 24 States of (1,1,1,1), each with
    # all 1,024 environments, and the samples.
    if skip is None:
        ops, reference, states = default_operations(), step, rank_order_states()
    else:
        ops = {"grantAuto": grant_auto_operation(skip=skip)}
        states = rank_order_states(24 * 1024)

        def reference(sp, sys, action):
            return grant_auto(sp, sys, action.perm, action.app, skip=skip)
    enabled = 0
    for sys in states:
        for op in ops.values():
            for action in op.candidates(sys):
                for sp in sp_variants(action):
                    out = op.apply(sp, sys, action)
                    assert out == reference(sp, sys, action), (op.id, action)
                    enabled += out.ok
    assert enabled > (100_000 if skip is None else 2_000)


STAGED = {**{op_id: lambda op_id=op_id: default_operations()[op_id]
             for op_id in ("grantAuto", "grant", "revoke", "revokeGroup")},
          **{f"grantAuto-skip{c}": lambda c=c: grant_auto_operation(skip=(c,))
             for c in range(1, 6)}}


def every_action(op_id, pools):
    """Every action of ``op_id`` over the pools: the candidates of any
    state, and the actions they prune."""
    if op_id == "revokeGroup":
        return [Action(op_id, group=g, app=a) for a in pools.apps for g in pools.groups]
    return [Action(op_id, perm=p, app=a) for a in pools.apps for p in pools.all_perms]


@pytest.mark.parametrize("case", STAGED)
def test_staged_split_conforms_to_apply(case):
    # at every representative of the operation's footprint at (1,1,1,1),
    # for every action, a candidate or not: the Environment part's variant
    # and the State part's successor State give what ``apply`` gives with
    # each system-permission set, the first enabled variant and its
    # successor
    op = STAGED[case]()
    apply, (env_part, state_part) = op.apply, op.apply.staged
    footprint = set(apply.reads) | set(op.candidates.reads)
    space = SystemSpace(Bounds(1, 1, 1, 1))
    actions = [(a, sp_variants(a)) for a in every_action(op.id, space.pools)]
    seen = collections.Counter()
    for _, sys in space.representatives(footprint):
        for action, sps in actions:
            variant = EMPTY if env_part is None else env_part(sys, action)
            nxt = state_part(sys, action)
            first = None
            for sp in sps:
                out = apply(sp, sys, action)
                # the empty set passes only when it is the variant, and the
                # action's permission whenever some variant does
                assert out.ok == (variant is not None and nxt is not None
                                  and (sp == variant or sp != EMPTY)), (action, sp)
                if out.ok and first is None:
                    first = sp
                    assert sp == variant
                    assert out.system == System(nxt, sys.environment)
                    assert out.system.environment is sys.environment
            seen["env" if variant is None else "state" if nxt is None else
                 "enabled, empty set" if first == EMPTY else "enabled, permission"] += 1
    assert seen["state"] and seen["enabled, empty set"], seen
    if env_part is not None:
        assert seen["env"] and (seen["enabled, permission"] or case == "grantAuto-skip2"), seen


# the one component each registry entry's candidates come from
CANDIDATES_READ = {"grantAuto": "manifest", "grant": "manifest",
                   "revoke": "perms", "revokeGroup": "grantedPermGroups"}


def test_registry_reuses_candidates_while_their_component_is_unchanged():
    # one registry for the whole stream: an entry whose component is the
    # very object it read at its last call gives the very tuple it gave then
    ops = default_operations()
    last = {}  # op id -> (component, candidates) at its last call
    calls = reused = 0
    for sys in rank_order_states():
        for op in ops.values():
            value = get_component(sys, CANDIDATES_READ[op.id])
            acts = op.candidates(sys)
            seen, given = last.get(op.id, (None, None))
            if seen is value:
                assert acts is given, op.id
                reused += 1
            calls += 1
            last[op.id] = (value, acts)
    # in rank order the read component changes far less often than the state
    assert reused > calls * 95 // 100
