"""Seeded fuzzing of the command line's exit-code contract.

Arbitrary bytes, soups of surface tokens, random well-formed programs,
deeply nested expressions and long ``;;`` chains go through ``lagc traces``
in process, twice each, under a small budget and at the interpreter's
default recursion limit, which is what the console script gets.
Every run must end in a documented exit code (0-5) without an exception
escaping, and both runs of one input must agree on the exit code and on
stdout.  ``derandomize`` fixes the examples, so the suite is reproducible.
"""

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lagc.cli import main
from lagc.render import pretty_program
from lagc.syntax import Method, Program

from gens import rand_ext_stmt

FLAGS = ["--max-rounds", "2", "--increment", "8", "--fresh-bound", "3"]

TOKENS = (
    "skip if then fi while do od co oc scope input guard end call program "
    "method main true false m0 v x y 0 1 42 := ;; || && <= >= == ! + - * ( ) ; { }"
).split()

FUZZ = settings(derandomize=True, database=None, deadline=None)


DEFAULT_RECURSION_LIMIT = 1000


@contextlib.contextmanager
def _default_recursion_limit():
    """Run at the interpreter's default limit, as the console script does.

    Hypothesis raises the limit while a ``@given`` test runs; the limit it
    set is restored afterwards.
    """
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(raised)


def _run_twice(data: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp, _default_recursion_limit():
        path = Path(tmp) / "fuzz.ext"
        path.write_bytes(data)
        outcomes = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["traces", str(path), *FLAGS])
            assert code in range(6), (data, code, err.getvalue())
            outcomes.append((code, out.getvalue()))
    assert outcomes[0] == outcomes[1], data
    return outcomes[0][0]


token_soup = st.lists(st.sampled_from(TOKENS), max_size=30).map(lambda t: " ".join(t).encode())


@settings(FUZZ, max_examples=200)
@given(st.one_of(st.binary(max_size=40), token_soup))
def test_any_file_gets_a_documented_exit_code(data):
    _run_twice(data)


@settings(FUZZ, max_examples=100)
@given(st.integers(min_value=0, max_value=2**32))
def test_random_programs_get_a_documented_exit_code(seed):
    rng = random.Random(seed)
    method = Method("m0", "v", rand_ext_stmt(rng, rng.randint(1, 4)))
    program = Program((method,), rand_ext_stmt(rng, rng.randint(1, 6)))
    _run_twice(pretty_program(program).encode())


# Each wraps a condition or an arithmetic expression in one more level.
CONDITION_LAYERS = ("({})", "!{}", "{} && y == 0", "x + 1 <= 2 && ({})", "(x) == 1 || ({})")
ARITH_LAYERS = ("({})", "1 + ({})", "({}) * 2", "{} - 1")


@st.composite
def deep_sources(draw):
    depth = draw(st.integers(min_value=0, max_value=600))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        cond = "x <= 1"
        for _ in range(depth):
            cond = rng.choice(CONDITION_LAYERS).format(cond)
        return f"x := 0 ;; if {cond} then y := 1 fi".encode()
    value = "x"
    for _ in range(depth):
        value = rng.choice(ARITH_LAYERS).format(value)
    return f"x := 0 ;; y := {value}".encode()


def test_deep_expressions_get_a_documented_exit_code():
    # shallow ones run, the deepest exhaust the recursion limit
    codes = set()

    @settings(FUZZ, max_examples=40)
    @given(deep_sources())
    def run(data):
        codes.add(_run_twice(data))

    run()
    assert {0, 5} <= codes, codes


@settings(FUZZ, max_examples=20)
@given(
    st.integers(min_value=0, max_value=3000),
    st.sampled_from(["x := x + 1", "skip", "co skip || x := 1 oc"]),
)
def test_long_sequences_get_a_documented_exit_code(length, statement):
    _run_twice(" ;; ".join(["x := 0", *[statement] * length]).encode())
