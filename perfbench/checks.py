"""Checks of the program's answers that do not trust the program.

The index, the case label and |d_beta| are recomputed here in plain integer
code.  Maximality entries are refereed by the program's independent
Dedekind-criterion implementation.  Decided columns must match the golden
records in ``data/``; a golden UNDECIDED may turn into a decided answer only
if that answer passes the referee.

Every check returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

from math import gcd

UNDECIDED = ("UNDECIDED", "UNDECIDED_FACTORIZATION", "undecided")

_INDEX_FACTOR = {"CASE1": 2, "CASE2": 18, "CASE3": 54}


def valuation(n: int, p: int) -> int:
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def case_label(a: int, b: int) -> str:
    """The case label from the 3-adic and 2-adic valuations of (a, b)."""
    v3a, v3b = valuation(a, 3), valuation(b, 3)
    major = "CASE1" if v3a == 0 else "CASE2" if v3a <= v3b else "CASE3"
    minor = "V2GE" if valuation(a, 2) >= valuation(b, 2) else "V2LT"
    return f"{major}/{minor}"


def expected_index(a: int, b: int) -> int:
    """I_W = {2, 18, 54} * gcd(a, b) by the 3-adic classification."""
    return _INDEX_FACTOR[case_label(a, b).split("/")[0]] * gcd(a, b)


def d_beta(a: int, b: int, b1: int, b2: int, b3: int) -> int:
    """Determinant of the W-action on beta = b1 + b2*alpha + b3*alpha^2."""
    return 2 * (3 * b1 + 2 * a * b3) * (3 * a * b2 * b2 - 9 * b * b2 * b3 + a * a * b3 * b3)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (a proof below 3.3e24)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in bases:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_field(a, b, case, iw, verdict, generator, golden) -> list[str]:
    """Case, index and freeness columns of one field.

    ``golden`` is the golden (case, iw, maximal, verdict) record or None.
    """
    problems = []
    if case != case_label(a, b):
        problems.append(f"case {case} != {case_label(a, b)}")
    if iw != expected_index(a, b):
        problems.append(f"I_W {iw} != {expected_index(a, b)}")
    if verdict == "FREE":
        if not generator or len(generator) != 3:
            problems.append("FREE without a generator")
        elif abs(d_beta(a, b, *generator)) != iw:
            problems.append(f"|d_beta| of generator {generator} != I_W {iw}")
    elif generator:
        problems.append(f"{verdict} with a generator")
    if golden is None:
        problems.append("field missing from the golden record")
        return problems
    g_case, g_iw, _, g_verdict = golden
    if (case, iw) != (g_case, g_iw):
        problems.append(f"case/index {case}/{iw} != golden {g_case}/{g_iw}")
    if g_verdict not in UNDECIDED and verdict != g_verdict:
        problems.append(f"verdict {verdict} != golden {g_verdict}")
    if g_verdict in UNDECIDED and verdict == "NOT_FREE":
        # the only referee for a new verdict is a verified generator
        problems.append("golden UNDECIDED turned NOT_FREE without a referee")
    return problems


def check_maximality(a, b, status, per_prime, delta_factors, golden_status, dedekind) -> list[str]:
    """Maximality verdict and its per-prime table.

    ``dedekind(p)`` is the referee: True iff p does not divide the index of
    Z[alpha] in the ring of integers.  ``delta_factors`` is None when the
    output carries no factorization; then a golden UNDECIDED cannot turn
    decided.
    """
    problems = []
    delta = 4 * a**3 - 27 * b**2
    failing = [p for p, _, ok in per_prime if not ok] if per_prime is not None else None
    if per_prime is not None:
        for p, label, ok in per_prime:
            if ok != dedekind(p):
                problems.append(f"prime {p} ({label}) says {ok}, Dedekind says {not ok}")
        if (status == "NOT_MAXIMAL") != bool(failing):
            problems.append(f"status {status} but failing primes {failing}")
    norm = {"true": "MAXIMAL", "false": "NOT_MAXIMAL", "undecided": "UNDECIDED_FACTORIZATION"}
    status, golden_status = norm.get(status, status), norm.get(golden_status, golden_status)
    if golden_status not in UNDECIDED:
        if status != golden_status:
            problems.append(f"maximality {status} != golden {golden_status}")
        return problems
    if status in UNDECIDED:
        return problems
    # golden UNDECIDED became decided: the referee must confirm it
    if delta_factors is None:
        return problems + ["golden UNDECIDED turned decided without a factorization"]
    factors = dict(delta_factors)
    product = 1
    for p, e in factors.items():
        product *= p**e
        if not is_probable_prime(p):
            problems.append(f"delta factor {p} is not prime")
    if product != abs(delta):
        problems.append("delta factorization is incomplete")
    squares = [p for p, e in factors.items() if e >= 2 or p in (2, 3)]
    refereed = all(dedekind(p) for p in squares)
    if refereed != (status == "MAXIMAL"):
        problems.append(f"new verdict {status} disagrees with Dedekind over {squares}")
    return problems


def check_analyze(a, b, code, doc, golden, dedekind) -> list[str]:
    """The JSON document of ``cubicha analyze`` for one field."""
    problems = []
    if doc.get("input") != {"a": a, "b": b} or doc.get("valid") is not True:
        return [f"document is not a valid analysis of ({a}, {b})"]
    if doc["delta"] != 4 * a**3 - 27 * b**2 or doc["g"] != gcd(a, b):
        problems.append("delta or g is wrong")
    case = f"{doc['case']['major']}/{doc['case']['minor']}"
    free, maxi = doc["freeness"], doc["maximality"]
    if free["index_iw"] != doc["index_iw"]:
        problems.append("freeness and order disagree on I_W")
    problems += check_field(a, b, case, doc["index_iw"], free["verdict"], free["generator"], golden)
    problems += check_maximality(
        a, b, maxi["status"], maxi["per_prime"], maxi["delta_factors"],
        golden[2] if golden else "UNDECIDED", dedekind,
    )
    undecided = free["verdict"] in UNDECIDED or maxi["status"] in UNDECIDED
    if code != (3 if undecided else 0):
        problems.append(f"exit code {code} for a {'un' if undecided else ''}decided field")
    return problems

