"""Seeded fuzzing of the command line's exit-code contract.

Arbitrary bytes, soups of surface tokens and random well-formed programs
go through ``lagc traces`` in process, twice each, under a small budget.
Every run must end in a documented exit code (0-5) without an exception
escaping, and both runs of one input must agree on the exit code and on
stdout.  ``derandomize`` fixes the examples, so the suite is reproducible.
"""

import contextlib
import io
import random
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


def _run_twice(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
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
