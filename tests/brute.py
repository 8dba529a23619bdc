"""Independent brute-force evaluators used as oracles.

Everything here is written as a direct unfolding of the defining formula
(pairwise loops, membership characterizations), deliberately avoiding the
shapes the production code uses, so agreement is meaningful.
"""

from itertools import combinations

from permcheck.kernel import value_key

AMBIGUOUS = "ambiguous"


def relations_upto(pairs_pool, max_pairs):
    """Every relation with at most max_pairs pairs drawn from the pool."""
    out = []
    pool = sorted(pairs_pool, key=value_key)
    for k in range(max_pairs + 1):
        for combo in combinations(pool, k):
            out.append(frozenset(combo))
    return out


def sets_upto(pool, max_card):
    out = []
    pool = sorted(pool, key=value_key)
    for k in range(max_card + 1):
        for combo in combinations(pool, k):
            out.append(frozenset(combo))
    return out


# -- kernel oracles ------------------------------------------------------------

def o_dom(r, key_universe):
    return frozenset(x for x in key_universe if any(k == x for k, _ in r))


def o_is_pfun(r):
    for p in r:
        for q in r:
            if p != q and p[0] == q[0]:
                return False
    return True


def o_not_in_dom(r, x):
    return all(k != x for k, _ in r)


def o_comp(r, s):
    firsts = [x for x, _ in r]
    seconds = [z for _, z in s]
    out = set()
    for x in firsts:
        for z in seconds:
            if any(p == (x, y) and q == (y, z) for p in r for q in s
                   for y in [p[1]]):
                out.add((x, z))
    return frozenset(out)


def o_rel_apply(r, x):
    images = [y for k, y in r if k == x]
    if not images:
        return None
    if len(set(images)) > 1 or len(images) > 1:
        return AMBIGUOUS
    return images[0]


def o_foplus(f, x, y):
    candidates = set(f) | {(x, y)}
    return frozenset(q for q in candidates
                     if q == (x, y) or (q in f and q[0] != x))


def o_forall(domain, body):
    return all(body(e) for e in domain)


def o_exists(domain, body):
    hits = [e for e in domain if body(e)]
    if not hits:
        return None
    return min(hits, key=value_key)


# -- model / invariant oracles ---------------------------------------------------

def _def_sources(sys):
    pairs = [(a, l) for a, l in sys.environment.defPerms]
    sysimg = [(s.idSI, s.defPermsSI) for s in sys.environment.systemImage]
    return pairs, sysimg


def o_not_dup_perm(sys, which):
    defperms, sysimg = _def_sources(sys)
    source1 = defperms if which in (1, 3) else sysimg
    source2 = defperms if which == 1 else sysimg
    for a1, l1 in source1:
        for a2, l2 in source2:
            for p1 in l1:
                for p2 in l2:
                    if p1.id == p2.id and not (p1 == p2 and a1 == a2):
                        return False
    return True


def o_valid_clause(sys, clause_id):
    import permcheck.model as model
    if clause_id.startswith("allMapsCorrect."):
        return o_is_pfun(model.get_component(sys, clause_id.split(".", 1)[1]))
    return o_not_dup_perm(sys, int(clause_id.split(".", 1)[1]))
