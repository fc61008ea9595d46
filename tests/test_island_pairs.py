"""Bijection growth by island pairs: observers reachable only from reps are
paired by the island predicate, and `induced_heap_coupling` adds each pair to
the bijection under the rule `pair_reachable` applies (same class, no second
partner for either end)."""

from jcore.coupling import BUILTIN_COUPLINGS, CouplingFailure, induced_heap_coupling
from jcore.interp import Location

OWNER = Location("Observable", 0)


def _list_a(*observers):
    """Version A: the owner heads a plain list holding `observers`."""
    nodes = [Location("Node", i) for i in range(len(observers))]
    h = {OWNER: {"fst": nodes[0] if nodes else None}}
    for i, (n, ob) in enumerate(zip(nodes, observers)):
        h[n] = {"ob": ob, "nxt": nodes[i + 1] if i + 1 < len(nodes) else None}
    return h


def _list_b(*observers):
    """Version B: the owner holds a sentinel node ahead of the list."""
    nodes = [Location("Node2", i) for i in range(len(observers) + 1)]
    h = {OWNER: {"snt": nodes[0]}}
    for i, n in enumerate(nodes):
        h[n] = {"ob": observers[i - 1] if i else None, "nxt": nodes[i + 1] if i + 1 < len(nodes) else None}
    return h


def _couple(observer_pair, sigma, h_a, h_b):
    ct_a, ct_b = observer_pair
    for h in (h_a, h_b):
        for ob in [s["ob"] for s in list(h.values()) if s.get("ob") is not None]:
            h[ob] = {"count": 0} if ob.class_name == "AnObserver" else {}
    return induced_heap_coupling(ct_a, ct_b, sigma, h_a, h_b, BUILTIN_COUPLINGS["observer-sentinel-list"])


def test_island_pairs_grow_the_bijection(observer_pair):
    a0, b1 = Location("AnObserver", 0), Location("AnObserver", 1)
    sigma = {OWNER: OWNER}
    out = _couple(observer_pair, sigma, _list_a(a0), _list_b(b1))
    assert out == {OWNER: OWNER, a0: b1}
    assert sigma == {OWNER: OWNER}  # the caller's bijection is left as it was


def test_island_pairs_give_no_second_partner(observer_pair):
    a0, a2, b1 = Location("AnObserver", 0), Location("AnObserver", 2), Location("AnObserver", 1)
    out = _couple(observer_pair, {OWNER: OWNER}, _list_a(a0, a2), _list_b(b1, b1))
    assert out == CouplingFailure(
        "island 0", "island structure pairs AnObserver@2 with AnObserver@1, conflicting with the bijection")


def test_island_pairs_keep_classes(observer_pair):
    a0, b0 = Location("AnObserver", 0), Location("Observer", 0)
    out = _couple(observer_pair, {OWNER: OWNER}, _list_a(a0), _list_b(b0))
    assert out == CouplingFailure(
        "island 0", "island structure pairs AnObserver@0 with Observer@0, conflicting with the bijection")


def test_island_pairs_respect_the_given_bijection(observer_pair):
    a0, a5, b1 = Location("AnObserver", 0), Location("AnObserver", 5), Location("AnObserver", 1)
    h_a = {**_list_a(a0), a5: {"count": 0}}
    out = _couple(observer_pair, {OWNER: OWNER, a5: b1}, h_a, _list_b(b1))
    assert out == CouplingFailure(
        "island 0", "island structure pairs AnObserver@0 with AnObserver@1, conflicting with the bijection")
