"""Randomized property suites over the core semantic laws.

Each suite draws at least a thousand instances from seeded generators, so
failures are reproducible.
"""

import random

from lagc.compose import ExtConfig, WlConfig, compose_bounded_wl, method_table
from lagc.concretize import min_conc_map_trace
from lagc.evaluate import eval_arith, eval_bool, eval_exp, eval_sexp, is_concrete
from lagc.localeval import Pending, _then, parallel
from lagc.state import State, initial_state
from lagc.syntax import (
    ArithExp,
    BoolExp,
    BoolLit,
    LocPar,
    Method,
    MethodRef,
    Num,
    Program,
    Seq,
    Skip,
    occurrences,
)
from lagc.trace import is_concrete_trace

from gens import (
    rand_aexp,
    rand_bexp,
    rand_concrete_state,
    rand_concrete_trace,
    rand_ext_stmt,
    rand_state,
    rand_trace,
    rand_wl_stmt,
)
from spec import domain, free_vars, trace_symbolic_vars
from steps import bounded, process_step

N = 1000


def test_eval_preserves_concrete_values():
    rng = random.Random(101)
    for _ in range(N):
        sigma = rand_state(rng)
        num = Num(rng.randint(-999, 999))
        lit = BoolLit(rng.random() < 0.5)
        for item, evaluate in (
            (num, eval_arith),
            (lit, eval_bool),
            (ArithExp(num), eval_exp),
            (BoolExp(lit), eval_exp),
            (MethodRef("m"), eval_exp),
            (num, eval_sexp),
        ):
            assert is_concrete(item)
            result = evaluate(item, sigma)
            assert result == item
            assert is_concrete(result)


def test_eval_closes_under_concrete_states():
    rng = random.Random(102)
    for _ in range(N):
        sigma = rand_concrete_state(rng)
        expr = rand_aexp(rng)
        assert free_vars(expr) <= domain(sigma)
        assert isinstance(eval_arith(expr, sigma), Num)
        assert isinstance(eval_bool(rand_bexp(rng), sigma), BoolLit)


def test_symbolic_vars_homomorphic_over_concat():
    rng = random.Random(103)
    for _ in range(N):
        left, right = rand_trace(rng), rand_trace(rng)
        assert trace_symbolic_vars(left + right) == trace_symbolic_vars(
            left
        ) | trace_symbolic_vars(right)


def test_min_conc_map_domain_is_symbolic_vars():
    rng = random.Random(104)
    for _ in range(N):
        trace = rand_trace(rng)
        numeral = rng.randint(-3, 3)
        assert domain(min_conc_map_trace(trace, numeral)) == trace_symbolic_vars(trace)


def test_seq_successors_factor_through_first_statement():
    rng = random.Random(105)
    for _ in range(N):
        first = rand_wl_stmt(rng, rng.randint(1, 4))
        second = rand_wl_stmt(rng, rng.randint(1, 3))
        names = tuple(sorted(free_vars(first) | free_vars(second) | {"x"}))
        trace = rand_trace(rng) + (rand_state(rng, names),)
        config = WlConfig(trace, Pending(Seq(first, second)))
        direct = compose_bounded_wl(1, config)
        lifted = frozenset(
            WlConfig(c.trace, _then(c.marker, Pending(second)))
            for c in compose_bounded_wl(1, WlConfig(trace, Pending(first)))
        )
        assert direct == lifted


def test_locpar_successors_split_into_both_sides():
    rng = random.Random(106)
    for _ in range(N):
        left = rand_ext_stmt(rng, rng.randint(1, 3))
        right = rand_ext_stmt(rng, rng.randint(1, 3))
        names = tuple(sorted(free_vars(left) | free_vars(right) | {"x"}))
        trace = rand_concrete_trace(rng) + (rand_concrete_state(rng, names),)
        config = WlConfig(trace, Pending(LocPar(left, right)))
        direct = process_step(config)
        from_left = frozenset(
            WlConfig(c.trace, parallel(c.marker, Pending(right)))
            for c in process_step(WlConfig(trace, Pending(left)))
        )
        from_right = frozenset(
            WlConfig(c.trace, parallel(Pending(left), c.marker))
            for c in process_step(WlConfig(trace, Pending(right)))
        )
        assert direct == from_left | from_right


def test_composition_from_concrete_start_stays_concrete():
    rng = random.Random(107)
    methods = (Method("m0", "v", Skip()), Method("m1", "v", rand_wl_stmt(rng, 2)))
    for _ in range(N):
        program = Program(methods, rand_ext_stmt(rng, rng.randint(1, 4)))
        sigma = initial_state(occurrences(program))
        table = method_table(program.methods)
        start = ExtConfig((sigma,), (Pending(program.main),))
        for config in bounded(6, table, start):
            assert is_concrete_trace(config.trace)
            assert isinstance(config.trace[0], State)
            assert isinstance(config.trace[-1], State)
