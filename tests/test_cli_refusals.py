"""The CLI refuses a modulus of the wrong shape at once, whatever its size:
N below 3, even N, and for QRP an a whose Jacobi symbol (a|N) is not +1,
with integers of up to 300 bits.  Each command exits 1 within a second
with one `error:` line that names the shape and nothing on stdout; an
exception other than the CLI's own would escape `main` and fail the test.
Before these checks came ahead of factorizing, an even 300-bit N ran rho
to its iteration cap for tens of seconds.
The examples are derandomized, as in test_public_surface.py."""

import io
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, example, given, settings, strategies as st

from residuo.arithmetic import jacobi
from residuo.cli import main


def bits(lo, hi):
    # Integers whose bit length is drawn evenly from lo to hi.
    return st.integers(lo, hi).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1))


BELOW_3 = st.one_of(st.integers(0, 2), bits(1, 300).map(lambda x: -x))
EVEN = bits(1, 299).map(lambda x: 2 * x)
ODD = bits(2, 300).map(lambda x: x | 1)
UNIT = st.one_of(st.integers(0, 300), bits(1, 300))
ORACLE = st.sampled_from(["factor", "definition", "zolotarev"])
METHOD = st.sampled_from(["t4", "c2"])
# A negative integer is refused by the argument parser.
BAD_N = r"N must be odd and >= 3|invalid nonnegative integer"

# The even 300-bit N that ran 31 s into "rho iteration cap exceeded".
EVEN_300_BITS = (random.Random(1).getrandbits(298) | 1 << 298) * 2

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def refused(argv, shape):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(x) for x in argv])
    elapsed = time.perf_counter() - start
    assert code == 1, err.getvalue()
    assert elapsed < 1, argv
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert re.search(shape, lines[0]), lines[0]


@SETTINGS
@given(n=st.one_of(BELOW_3, EVEN), oracle=ORACLE)
@example(n=EVEN_300_BITS, oracle="factor")
def test_semiprime_bits_refuses_n(n, oracle):
    refused(["semiprime-bits", "--n", n, "--oracle", oracle], BAD_N)


@SETTINGS
@given(n=st.one_of(BELOW_3, EVEN), a=UNIT, oracle=ORACLE, method=METHOD)
@example(n=EVEN_300_BITS, a=3, oracle="factor", method="t4")
def test_qrp_refuses_n(n, a, oracle, method):
    # Corollary C2 reads N mod 4 first, which an even N also fails.
    shape = BAD_N + ("|N must be 3 mod 4" if method == "c2" else "")
    refused(["qrp", "--n", n, "--a", a, "--method", method, "--oracle", oracle], shape)


@SETTINGS
@given(n=ODD, a=UNIT, oracle=ORACLE, method=METHOD)
def test_qrp_refuses_jacobi(n, a, oracle, method):
    if method == "c2":
        n |= 3
    assume(jacobi(a % n, n) != 1)
    argv = ["qrp", "--n", n, "--a", a, "--method", method, "--oracle", oracle]
    refused(argv, r"Jacobi symbol \(\d+\|\d+\) must be \+1")
