import random
from contextlib import nullcontext

import pytest

from lagc.state import (
    EMPTY_STATE,
    initial_state,
    is_concrete_state,
    make_state,
    update,
    vargen,
)
from lagc.syntax import (
    ABin,
    ArithExp,
    ArithOp,
    Num,
    STAR,
    TRUE,
    Var,
    holding_nodes,
    occurrences,
)

from gens import rand_concrete_state, rand_state
from samples import SIGMA1, SIGMA2, WL_SWAP
from spec import domain, is_wellformed_state, symbolic_vars


def test_domain():
    assert domain(EMPTY_STATE) == frozenset()
    assert domain(SIGMA1) == {"x", "y"}
    assert domain(update(EMPTY_STATE, "v", Num(1))) == {"v"}


def test_update():
    one = update(EMPTY_STATE, "x", Num(2))
    assert one.lookup("x") == Num(2)
    assert update(SIGMA2, "x", Num(2)) == make_state(
        {"x": Num(2), "y": Num(2)}
    )
    twice = update(update(EMPTY_STATE, "x", Num(1)), "x", Num(9))
    assert twice == make_state({"x": Num(9)})


@pytest.mark.parametrize("held", [False, True], ids=["weak", "held"])
def test_update_is_make_state_of_the_merged_entries(held):
    rng = random.Random(29)
    with holding_nodes() if held else nullcontext():
        for _ in range(300):
            names = rng.sample(("a", "b", "x", "y", "z", "w"), rng.randint(0, 6))
            sigma = rand_state(rng, names)
            # a name the state has, or a new one, which may sort anywhere
            variable = rng.choice(names + ["c", "v", "zz"])
            value = rng.choice([STAR, Num(rng.randint(-9, 9))])
            merged = dict(sigma.entries)
            merged[variable] = value
            updated = update(sigma, variable, value)
            assert updated is make_state(merged)
            assert updated.entries == tuple(sorted(merged.items()))
            for name in set(merged) | {"absent"}:
                assert updated.lookup(name) is merged.get(name)
                assert (name in updated) == (name in merged)
            assert update(updated, variable, value) is updated


def test_make_state_takes_only_stored_expressions_and_star():
    # a stored expression is an arithmetic expression itself; anything else
    # would be taken now and fail later, when a step reads the value
    one = Num(1)
    for entries, name, kind in (
        ({"x": 0, "y": 0}, "x", "int"),
        ([("x", one), ("y", TRUE)], "y", "BoolLit"),
        ([("x", one), ("y", ArithExp(one))], "y", "ArithExp"),
        ({"x": STAR, "w": "1"}, "w", "str"),
        ({"x": STAR, "z": None}, "z", "NoneType"),
    ):
        with pytest.raises(TypeError) as caught:
            make_state(entries)
        assert str(caught.value) == f"make_state: unsupported {kind} for {name!r}"
    assert make_state({"x": one, "y": STAR}).as_dict() == {"x": one, "y": STAR}
    symbolic = {"v": Var("y"), "w": ABin(Var("y"), ArithOp.ADD, one), "y": STAR}
    assert make_state(symbolic).as_dict() == symbolic


def test_equality_ignores_insertion_order():
    a = make_state([("x", Num(1)), ("y", STAR)])
    b = make_state([("y", STAR), ("x", Num(1))])
    assert a == b and hash(a) == hash(b)


def test_hash_is_cached_and_independent_of_insertion_order():
    rng = random.Random(25)
    for _ in range(200):
        sigma = rand_state(rng)
        entries = list(sigma.entries)
        rng.shuffle(entries)
        shuffled = make_state(entries)
        first = hash(sigma)
        assert {sigma: "found"}.get(shuffled) == "found"
        assert hash(sigma) == first == hash(shuffled)
        assert shuffled == sigma


def test_symbolic_vars():
    assert symbolic_vars(SIGMA1) == {"y"}
    assert symbolic_vars(SIGMA2) == frozenset()
    assert symbolic_vars(EMPTY_STATE) == frozenset()


def test_wellformedness():
    assert is_wellformed_state(SIGMA1) and is_wellformed_state(SIGMA2)
    assert is_wellformed_state(make_state({"x0": STAR}))
    assert not is_wellformed_state(make_state({"x": Var("y")}))


def test_concreteness():
    assert not is_concrete_state(SIGMA1)
    assert is_concrete_state(SIGMA2)
    assert is_concrete_state(EMPTY_STATE)
    assert not is_concrete_state(make_state({"x": STAR}))


def test_concrete_states_are_wellformed_and_symbol_free():
    rng = random.Random(11)
    for _ in range(200):
        sigma = rand_concrete_state(rng)
        assert is_wellformed_state(sigma)
        assert symbolic_vars(sigma) == frozenset()


def test_concrete_update_preserves_concreteness():
    rng = random.Random(14)
    for _ in range(100):
        sigma = rand_concrete_state(rng)
        updated = update(sigma, rng.choice("xyzvw"), Num(rng.randint(-5, 5)))
        assert is_concrete_state(updated)


def test_vargen():
    assert vargen(SIGMA1, 0, 100, "$x::Scope") == "$x::Scope"
    assert vargen(SIGMA1, 0, 0, "$x::Input") == "$BOUND_EXCEEDED::$x::Input"
    taken = make_state({"$x::Scope": Num(0)})
    assert vargen(taken, 0, 100, "$x::Scope") == "c$x::Scope"
    crowded = make_state({"v": STAR, "cv": STAR, "ccv": STAR})
    assert vargen(crowded, 0, 100, "v") == "cccv"
    assert vargen(crowded, 0, 2, "v") == "$BOUND_EXCEEDED::v"


def test_vargen_results_are_fresh():
    rng = random.Random(12)
    for _ in range(200):
        sigma = rand_state(rng)
        name = vargen(sigma, 0, 50, rng.choice(("x", "v", "$x::Scope")))
        assert not name.startswith("$BOUND_EXCEEDED::")
        assert name not in domain(sigma)


def test_initial_state():
    assert initial_state(occurrences(WL_SWAP)) == make_state(
        {"x": Num(0), "y": Num(0), "z": Num(0)}
    )
    assert initial_state([]) == EMPTY_STATE
    assert initial_state(["x", "x", "y"]) == make_state(
        {"x": Num(0), "y": Num(0)}
    )

