"""A same-order oracle: two trinomials that generate one order get one
verdict.

Freeness over the associated order in the unique Hopf-Galois structure,
and maximality, depend only on the order Z[alpha] as a subset of L, not on
the generator alpha.  For theta = u + v*alpha + w*alpha^2 of trace 0 the
discriminant of theta is I(v, w)^2 * delta, I the index form, so when it
equals delta, Z[theta] = Z[alpha], and theta's characteristic polynomial
x^3 - a'x + b' is a second trinomial for the same order.  a' usually
differs from a, so the pair poses other targets N and another side-condition
modulus 6|a'| on the same |D|.  The search has its own characteristic
polynomial and calls nothing in cubicha but validate and combined_verdict.
"""

import sympy as sp

from cubicha import combined_verdict, validate
from cubicha.errors import ValidationError


def charpoly(a, b, v, w):
    """(a', b') for the characteristic polynomial x^3 - a'x + b' of
    theta = u + v*alpha + w*alpha^2, alpha^3 = a*alpha - b, with u = -2aw/3
    so that theta has trace 0; needs 3 | a*w.  By Newton's identities on the
    power sums 3, 0, 2a, -3b, 2a^2, ... of alpha, a' = tr(theta^2)/2 and
    b' = -tr(theta^3)/3, which with q = a*w/3 expand to these."""
    q = a * w // 3
    return (
        a * v * v - 3 * b * v * w + 3 * q * q,
        b * v**3 - 2 * a * q * v * v + a * b * v * w * w + 2 * q**3 - b * b * w**3,
    )


def test_charpoly_annihilates_theta():
    # theta^3 - a'theta + b' reduces to 0 modulo alpha^3 - a*alpha + b, as
    # a polynomial in a, b, v and the integer q = a*w/3
    a, b, v, q, alpha = sp.symbols("a b v q alpha", integer=True)
    w = 3 * q / a
    ap, bp = charpoly(a, b, v, w)
    theta = -2 * q + v * alpha + w * alpha**2
    value = sp.expand(a**3 * (theta**3 - ap * theta + bp))
    assert sp.rem(value, alpha**3 - a * alpha + b, alpha) == 0


def same_order_pairs(box, reach):
    """The fields (a, b) of [-box, box]^2 paired with each trinomial
    (a', b') of an element theta of trace 0, |v|, |w| <= reach, whose
    discriminant is delta; the generator itself and its mirror -alpha,
    with (|a'|, |b'|) = (|a|, |b|), are left out.  Also the count of
    partners that validate rejects."""
    pairs, rejected = [], 0
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            try:
                k = validate(a, b)
            except ValidationError:
                continue
            for w in range(-reach, reach + 1):
                if a * w % 3:
                    continue
                for v in range(-reach, reach + 1):
                    ap, bp = charpoly(a, b, v, w)
                    if 4 * ap**3 - 27 * bp * bp != k.delta or (abs(ap), abs(bp)) == (abs(a), abs(b)):
                        continue
                    try:
                        pairs.append((k, validate(ap, bp)))
                    except ValidationError:
                        rejected += 1
    return pairs, rejected


def test_pairs_share_every_verdict():
    pairs, rejected = same_order_pairs(40, 10)
    assert (len(pairs), rejected) == (1228, 4)
    verdicts = {}

    def verdict(k):
        if (k.a, k.b) not in verdicts:
            v = combined_verdict(k)
            verdicts[k.a, k.b] = (v.freeness.verdict, v.maximality.status, v.order.index_iw)
        return verdicts[k.a, k.b]

    seen = set()
    for k, partner in pairs:
        assert partner.delta == k.delta, (k, partner)
        assert verdict(partner) == verdict(k), (k, partner)
        seen.add(verdict(k)[:2] + (k.delta > 0,))
    # every combination of FREE/NOT_FREE and MAXIMAL/NOT_MAXIMAL, and both
    # signs of delta, though not each with each
    assert {s[0] for s in seen} == {"FREE", "NOT_FREE"}
    assert {s[1] for s in seen} == {"MAXIMAL", "NOT_MAXIMAL"}
    assert {s[:2] for s in seen} == {(f, m) for f in ("FREE", "NOT_FREE") for m in ("MAXIMAL", "NOT_MAXIMAL")}
    assert {s[2] for s in seen} == {True, False}
