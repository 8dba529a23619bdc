import json
import operator

import pytest
from hypothesis import given, settings, strategies as st

from conftest import NET, READ, WRITE, changed_components, make_system
from permcheck.kernel import EMPTY
from permcheck.model import (
    COMPONENTS,
    PERM_SET,
    Manifest,
    ParseError,
    Perm,
    SysImgApp,
    System,
    emit_state,
    get_component,
    parse_state,
    reusing,
    system_perms_from_doc,
    usr_def_perm,
    with_component,
)
from permcheck.statespace import Bounds, SystemSpace, make_pools

SPACE = SystemSpace(Bounds(2, 2, 2, 2))


class TestAccessors:
    @pytest.mark.parametrize("name", COMPONENTS)
    def test_get_after_set_and_frame(self, name):
        sys = System()
        value = "probe" if name.startswith("opaque") else frozenset(("x",))
        updated = with_component(sys, name, value)
        assert get_component(updated, name) == value
        assert changed_components(sys, updated) == [name]

    def test_perms_of_empty_system(self):
        assert get_component(System(), "perms") == EMPTY

    def test_set_then_get_granted_groups(self):
        rel = frozenset((("a1", frozenset(("g1",))),))
        sys = with_component(System(), "grantedPermGroups", rel)
        assert sys.state.grantedPermGroups == rel

    def test_updating_perms_leaves_environment_equal(self):
        sys = make_system(manifest=frozenset((("a1", Manifest(frozenset((READ,)))),)))
        updated = with_component(sys, "perms", frozenset((("a1", frozenset((READ,))),)))
        assert updated.environment == sys.environment

    def test_unknown_component(self):
        with pytest.raises(KeyError):
            get_component(System(), "nope")

    @pytest.mark.parametrize("reads", [("perms",), ("defPerms", "perms")])
    def test_reusing_keeps_its_result_while_each_read_is_the_same_object(self, reads):
        calls = []

        def body(*values):
            calls.append(values)
            return object()  # a new object per call, so reuse shows as `is`

        reused = reusing(reads, body)
        sys = make_system(perms=frozenset((("a1", frozenset((READ,))),)),
                          def_perms=frozenset((("a1", frozenset((WRITE,))),)))
        result = reused(sys)
        # a component it does not read changes: the same result, no call
        sys = with_component(sys, "cert", frozenset((("a1", "c1"),)))
        assert reused(sys) is result and len(calls) == 1
        for name in reads:
            # an equal value that is another object: the body runs again
            sys = with_component(sys, name, frozenset(list(get_component(sys, name))))
            fresh = reused(sys)
            assert fresh is not result and reused(sys) is fresh
            assert all(map(operator.is_, calls[-1],
                           (get_component(sys, n) for n in reads)))
            result = fresh
        assert len(calls) == 1 + len(reads)


class TestUsrDefPerm:
    def test_empty_sources(self):
        assert not usr_def_perm(System(), READ)

    def test_in_def_perms(self):
        sys = make_system(def_perms=frozenset((("a2", frozenset((READ, NET))),)))
        assert usr_def_perm(sys, READ)
        assert not usr_def_perm(sys, WRITE)

    def test_only_in_system_image(self):
        sys = make_system(system_image=frozenset((SysImgApp("a1", frozenset((WRITE,))),)))
        assert usr_def_perm(sys, WRITE)


POOL_2222 = make_pools(Bounds(2, 2, 2, 2)).all_perms


class TestPermHash:
    # the kept hash is the generated one, so every set of Perms iterates in
    # the order the recorded digests were taken in
    @pytest.mark.parametrize("perm", POOL_2222, ids=repr)
    def test_is_the_hash_of_the_field_tuple(self, perm):
        assert hash(perm) == hash((perm.id, perm.group, perm.level))

    @pytest.mark.parametrize("perm", POOL_2222, ids=repr)
    def test_equal_perms_built_apart_hash_equal(self, perm):
        twin = Perm(perm.id, perm.group, perm.level)
        (parsed,) = PERM_SET.parse(PERM_SET.emit(frozenset((perm,))), "perms")
        assert twin is not perm and parsed is not perm
        assert twin == parsed == perm
        assert hash(twin) == hash(parsed) == hash(perm)


class TestSerialization:
    def test_empty_state_document(self):
        doc = json.loads(emit_state(System()))
        assert doc == {
            "state": {"apps": [], "alreadyVerified": [], "grantedPermGroups": [],
                      "perms": [], "opaque5": "unused", "opaque6": "unused",
                      "opaque7": "unused", "opaque8": "unused", "opaque9": "unused"},
            "environment": {"manifest": [], "cert": [], "defPerms": [],
                            "systemImage": []},
        }

    def test_round_trip_f1(self, f1):
        assert parse_state(emit_state(f1["sys"])) == f1["sys"]

    def test_emit_is_canonical_fixed_point(self, f1):
        text = emit_state(f1["sys"])
        assert emit_state(parse_state(text)) == text

    def test_non_canonical_input_is_accepted(self, f1):
        doc = json.loads(emit_state(f1["sys"]))
        doc["state"]["apps"] = ["a1"]
        doc["environment"]["manifest"][0][1]["use"].reverse()
        assert parse_state(json.dumps(doc)) == f1["sys"]

    def test_duplicate_pair_rejected(self):
        doc = json.loads(emit_state(System()))
        perm = {"id": "p", "group": None, "level": "normal"}
        doc["state"]["perms"] = [["a1", [perm]], ["a1", [perm]]]
        with pytest.raises(ParseError):
            parse_state(json.dumps(doc))

    def test_duplicate_key_different_value_is_a_relation(self):
        # non-functional relations are representable; validity is checked
        # separately by the invariant clauses
        doc = json.loads(emit_state(System()))
        doc["state"]["perms"] = [["a1", []],
                                 ["a1", [{"id": "p", "group": None, "level": "normal"}]]]
        sys = parse_state(json.dumps(doc))
        assert len(sys.state.perms) == 2

    def test_duplicate_set_element_rejected(self):
        doc = json.loads(emit_state(System()))
        doc["state"]["apps"] = ["a1", "a1"]
        with pytest.raises(ParseError) as e:
            parse_state(json.dumps(doc))
        assert "apps" in str(e.value)

    def test_unknown_field_rejected(self):
        doc = json.loads(emit_state(System()))
        doc["state"]["extra"] = []
        with pytest.raises(ParseError):
            parse_state(json.dumps(doc))

    def test_missing_field_rejected(self):
        doc = json.loads(emit_state(System()))
        del doc["environment"]["cert"]
        with pytest.raises(ParseError):
            parse_state(json.dumps(doc))

    def test_bad_level_rejected(self):
        doc = json.loads(emit_state(System()))
        doc["environment"]["defPerms"] = [["a1", [{"id": "p", "group": None,
                                                   "level": "critical"}]]]
        with pytest.raises(ParseError) as e:
            parse_state(json.dumps(doc))
        assert "level" in str(e.value)

    def test_invalid_json_has_diagnostics(self):
        with pytest.raises(ParseError):
            parse_state("{not json")

    def test_null_group_round_trips(self):
        sys = make_system(def_perms=frozenset((("a1", frozenset((NET,))),)))
        again = parse_state(emit_state(sys))
        (perm,) = next(l for a, l in again.environment.defPerms if a == "a1")
        assert perm.group is None

    def test_system_perms_round_trip(self):
        sp = frozenset((READ, NET))
        doc = json.loads(json.dumps({"systemPerms": PERM_SET.emit(sp)}))
        assert system_perms_from_doc(doc) == sp

    @given(st.integers(0, SPACE.size - 1))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_on_generated_states(self, rank):
        sys = SPACE.unrank(rank)
        assert parse_state(emit_state(sys)) == sys
