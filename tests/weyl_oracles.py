"""Test oracles on the whole enumerated group.

The library counts W_P through the degrees and never lists it; these
list it by filtering ``WeylGroup.elements``, so the factorization
W(L) = W^P(L) W_P(L) and |W^P| |W_P| = |W| are checked against an
enumeration that shares no code with ``parabolic_degrees``.
"""

from g2pair.motive import LPolynomial


def parabolic_elements(group, nodes):
    """Elements of the standard parabolic subgroup W_P.  Canonical words
    of W_P elements only use letters of P, so membership is a word test."""
    p = set(group.normalize_parabolic(nodes))
    return tuple(w for w in group.elements if set(w.word) <= p)


def subgroup_length_poly(group, nodes):
    """Length generating polynomial of the parabolic subgroup W_P itself."""
    return LPolynomial((w.length, 1) for w in parabolic_elements(group, nodes))
