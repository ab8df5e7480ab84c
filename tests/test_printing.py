"""The decimal conversion of analyze's JSON writer, cli._decimal, against
str(), on the interpreter that runs the tests: the sizes at which it halves
depend on the Python version."""

import json
import random
import re
import sys
from json.encoder import encode_basestring_ascii

import pytest

from cubicha import cli
from cubicha.arith import DEFAULT_TRIAL_DIVISION_LIMIT
from cubicha.cli import _decimal, _write_json, analyze_document


@pytest.fixture(autouse=True)
def no_int_str_cap():
    # main lifts Python's cap on int <-> str conversion for its process
    cli._lift_int_str_cap()


def bounds():
    """The bit lengths at which the rule changes, on this interpreter."""
    out = [cli._HALVE_MIN_BITS, 1 << 15, 1 << 17]
    return out + [cli._HALVE_MAX_BITS] if cli._HALVE_MAX_BITS < 1 << 22 else out


def written(obj) -> str:
    chunks = []
    _write_json(obj, chunks.append, {}, {}, encode_basestring_ascii, "\n")
    return "".join(chunks)


def test_halving_engages_by_size():
    # str() below the lower bound and from the upper one on, else halving,
    # whose powers of ten are left in ``powers``
    rng = random.Random(3201)
    for bits, halves in [
        (cli._HALVE_MIN_BITS, False),
        (cli._HALVE_MIN_BITS + 1, True),
        (20000, True),
        (cli._HALVE_MAX_BITS - 1, True),
        (cli._HALVE_MAX_BITS, False),
    ]:
        if bits >= 1 << 22:
            continue
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        powers = {}
        assert _decimal(n, powers) == str(n), bits
        assert bool(powers) is halves, (bits, sorted(powers))
        assert all(p == 10**k and k & (k - 1) == 0 for k, p in powers.items()), bits
    expected = 1 << 15 if sys.version_info >= (3, 13) else 1 << 17 if sys.version_info >= (3, 12) else sys.maxsize
    assert cli._HALVE_MAX_BITS == expected


def test_zero_and_sizes_at_the_bounds():
    # 0, and the least, the greatest and seeded values of each bit length
    # next to a bound of the rule
    rng = random.Random(3202)
    assert _decimal(0, {}) == "0"
    checked = 0
    for bound in bounds():
        for bits in (bound - 1, bound, bound + 1):
            for n in (1 << (bits - 1), (1 << bits) - 1, *(rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(3))):
                assert n.bit_length() == bits
                assert _decimal(n, {}) == str(n), bits
                checked += 1
    assert checked >= 45


def test_powers_of_ten_and_their_neighbours():
    # the low half of a split starts with zeros: 10^k and 10^k + 1 have
    # nothing but zeros below the top, and runs of zeros sit across the
    # split points, which are powers of two of digits
    powers = {}
    cases = 0
    for k in (1204, 1205, 2047, 2048, 2049, 4096, 5000, 8192, 9865, 16384, 39457):
        p = 10**k
        for n in (p - 1, p, p + 1, 7 * p + 3, p * p + p, (p + 1) * 10**2048 + 1):
            assert _decimal(n, powers) == str(n), k
            cases += 1
    zeros = int("9" + "0" * 6000 + "1" + "0" * 4095 + "5" + "0" * 1000)
    assert _decimal(zeros, powers) == str(zeros)
    assert cases == 66 and powers


def test_negative_values_through_the_writer():
    # the writer prints the sign and converts the absolute value once
    rng = random.Random(3203)
    values = [0, -1, -(10**5000), -(10**5000) + 1, *(-rng.getrandbits(b) for b in (4001, 9000, 30000, 140000))]
    doc = {"ints": values, "mixed": [[v, -v] for v in values], "key": values[3]}
    assert written(doc) == json.dumps(doc, indent=2)


@pytest.mark.slow
def test_seeded_sizes_up_to_1_2m_bits():
    rng = random.Random(3204)
    sizes = sorted(int(4000 * 75 ** rng.random()) for _ in range(10)) + [1_200_000]
    powers = {}
    for bits in sizes:
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        assert _decimal(n, powers) == str(n), bits
    assert sizes[-2] > 100_000


def dumps_converting_once(doc) -> str:
    """json.dumps(doc, indent=2), with str() taken once per distinct
    absolute value of an int: each int goes through json.dumps as a string
    "@i@" that names it, which is then replaced by its digits.  No string
    of the document may hold an "@"."""
    index = {}

    def mark(x):
        if isinstance(x, str) and "@" in x:
            raise ValueError(x)
        if isinstance(x, dict):
            return {mark(k): mark(v) for k, v in x.items()}
        if isinstance(x, list):
            return [mark(v) for v in x]
        if isinstance(x, int) and not isinstance(x, bool):
            return f"@{'-' if x < 0 else ''}{index.setdefault(abs(x), len(index))}@"
        return x

    marked = json.dumps(mark(doc), indent=2)
    texts = [str(n) for n in index]
    return re.sub(r'"@(-?)(\d+)@"', lambda m: m[1] + texts[int(m[2])], marked)


def test_converting_once_is_json_dumps():
    doc = {"a": [1, -1, 10**400, -(10**400), True, None, "x"], "b": {"c": [[2]], "d": 0, "e": []}}
    assert dumps_converting_once(doc) == json.dumps(doc, indent=2)
    with pytest.raises(ValueError):
        dumps_converting_once({"a": ["@0@"]})


@pytest.mark.slow
@pytest.mark.parametrize("a, b", [(-8814, 7559), (-8856, -2114), (-7627, 7559)])
def test_tail_fields_print_as_json_dumps(a, b):
    # the slowest fields known at |a|, |b| <= 10^4, with Pell units of
    # 520,296 to 1,155,501 bits
    doc, code = analyze_document(a, b, "strict", DEFAULT_TRIAL_DIVISION_LIMIT)
    assert code == 0
    units = [cert["fundamental"] for cert in doc["freeness"]["pell"] if cert["fundamental"]]
    assert max(x.bit_length() for unit in units for x in unit) > 500_000
    assert written(doc) == dumps_converting_once(doc)
