"""Test oracles on the whole enumerated group and on root-lattice matrices.

The library counts W_P through the degrees and never lists it; these
list it by filtering ``WeylGroup.elements``, so the factorization
W(L) = W^P(L) W_P(L) and |W^P| |W_P| = |W| are checked against an
enumeration that shares no code with ``parabolic_degrees``.

The library never multiplies matrices either: an element is its point
w(rho).  ``element_matrix`` derives the action on the root lattice from
the canonical word, one simple reflection at a time, and
``element_by_matrix`` finds an element from a matrix through the point
it sends 2 rho to, so descents, lengths, products and reflections can be
checked against matrix arithmetic.
"""

from functools import cache

from g2pair.motive import LPolynomial
from g2pair.rootsys import matvec


def parabolic_elements(group, nodes):
    """Elements of the standard parabolic subgroup W_P.  Canonical words
    of W_P elements only use letters of P, so membership is a word test."""
    p = set(group.normalize_parabolic(nodes))
    return tuple(w for w in group.elements if set(w.word) <= p)


def subgroup_length_poly(group, nodes):
    """Length generating polynomial of the parabolic subgroup W_P itself."""
    return LPolynomial((w.length, 1) for w in parabolic_elements(group, nodes))


def element_matrix(w):
    """Action of w on the root lattice (columns are the images of the
    simple roots), from its word."""
    return _word_matrix(w.group.root_system, w.word)


@cache
def _word_matrix(rs, word):
    # keyed by the root system's value: elements of two types with the
    # same word and point compare equal
    cols = []
    for j in range(1, rs.rank + 1):
        v = rs.simple_root(j)
        for i in reversed(word):
            v = rs.reflect(i, v)
        cols.append(v)
    return tuple(zip(*cols))


def apply(w, v):
    """w(v) for v in simple-root coordinates."""
    return matvec(element_matrix(w), v)


def element_by_matrix(group, m):
    """The element acting on the root lattice by m: m sends 2 rho (root
    coordinates, the sum of the positive roots) to 2 w(rho), whose weight
    coordinates name w."""
    rs = group.root_system
    two_rho = tuple(map(sum, zip(*rs.positive_roots)))
    two_y = matvec(rs.cartan.entries, matvec(m, two_rho))
    found = group._at(tuple(c // 2 for c in two_y))
    if element_matrix(found) != m:
        raise ValueError("matrix does not belong to this group")
    return found


def inversion_length(group, w):
    """Number of positive roots w sends negative: l(w) by a second route."""
    m = element_matrix(w)
    return sum(
        1 for beta in group.root_system.positive_roots if all(x <= 0 for x in matvec(m, beta))
    )


def reflect_then_slice_orbit(group, nodes):
    """The orbit of omega_P, P = ``nodes``, breadth first in (length, word)
    order, by the plain canonical-parent rule: reflect every candidate
    t = s_i mu with mu_i > 0 and keep it when no t_j with j < i is
    negative.  Reflections come straight from the Cartan matrix, so this
    shares no code with ``WeylGroup.orbit`` and its first-descent test."""
    a = group.root_system.cartan.entries
    rank = len(a)
    words = [()]
    points = [tuple(0 if i in nodes else 1 for i in range(1, rank + 1))]
    start = 0
    while start < len(points):
        end = len(points)
        for i in range(rank):
            for k in range(start, end):
                mu = points[k]
                if mu[i] > 0:
                    t = tuple(mu[j] - mu[i] * a[j][i] for j in range(rank))
                    if min(t[:i], default=0) >= 0:
                        words.append((i + 1,) + words[k])
                        points.append(t)
        start = end
    return words, points
