"""Test oracles: the element API the library no longer carries, the
whole enumerated group, and root-lattice matrices.

The library makes an element only where the benchmark's tracer needs
one; no verb lists W, inverts, orders or tests a right descent.  Those
live here, on the library's constructor ``WeylGroup._at`` and its
folding of words onto points: ``elements`` lists W from the walk of rho,
handing the walk's words to the group's table of made elements so that
equal elements stay the same object, and ``inverse_point`` gives
w^-1(rho), on whose signs the right descents are read.  The Schubert
lookups by element (``basis_index``, ``sigma``, ``terms``,
``coefficient``) find cells by their canonical words, and ``lift`` pulls
a class back to a finer quotient the same way.  ``chevalley`` is the
divisor product as the library made it before its layer accumulator:
the ring's covers summed into a dict, the result validated and sorted by
the constructor.

The library counts W_P through the degrees and never lists it; these
list it by filtering ``elements``, so the factorization
W(L) = W^P(L) W_P(L) and |W^P| |W_P| = |W| are checked against an
enumeration that shares no code with ``parabolic_degrees``.

The library never multiplies matrices either: an element is its point
w(rho).  ``element_matrix`` derives the action on the root lattice from
the canonical word, one simple reflection at a time, and
``element_by_matrix`` finds an element from a matrix through the point
it sends 2 rho to, so descents, lengths, products and reflections can be
checked against matrix arithmetic.

The root-lattice arithmetic those matrices rest on is kept here too, in
the form the library used before its root data moved onto RootSystem:
``matvec``, ``simple_root``, ``reflect`` (s_i from row i of the Cartan
matrix), the symmetrized ``bilinear`` form and ``coroot_coordinates``
through it.  None of it reads RootSystem.weights, RootSystem.coroots or
rootsys.reflect_weight, so the tests of those stay code-disjoint.
"""

from functools import cache
from operator import mul
from typing import NamedTuple

from g2pair.motive import LPolynomial
from g2pair.rootsys import check_node
from g2pair.schubert import CohomologyElement
from g2pair.weyl import WeylElement


def matvec(m, v):
    n = len(v)
    return tuple(sum(m[r][k] * v[k] for k in range(n)) for r in range(n))


def simple_root(rs, i):
    """alpha_i in simple-root coordinates, i in 1..rank."""
    return tuple(1 if k == i - 1 else 0 for k in range(rs.rank))


def reflect(rs, i, v):
    """s_i(v) = v - <v, alpha_i_check> alpha_i for any lattice vector v, the
    pairing read off row i of the Cartan matrix."""
    c = sum(x * y for x, y in zip(rs.cartan.entries[i - 1], v))
    return v[:i - 1] + (v[i - 1] - c,) + v[i:]


def bilinear(cartan, v, w):
    """Symmetric form with (alpha_i, alpha_j) = d_i a[i][j]."""
    d, a, n = cartan.symmetrizer, cartan.entries, cartan.rank
    return sum(d[i] * a[i][j] * v[i] * w[j] for i in range(n) for j in range(n))


def coroot_coordinates(rs, beta):
    """beta_check in simple-coroot coordinates, c_j = b_j (alpha_j, alpha_j)
    / (beta, beta) = 2 b_j d_j / (beta, beta), through the full bilinear
    form; a non-root or a non-integral coroot is refused."""
    if beta not in rs.positive_roots and tuple(-x for x in beta) not in rs.positive_roots:
        raise ValueError(f"{beta} is not a root of this system")
    d, norm = rs.cartan.symmetrizer, bilinear(rs.cartan, beta, beta)
    coords = []
    for j in range(rs.rank):
        num = beta[j] * 2 * d[j]
        if num % norm:
            raise ValueError("coroot is not integral; invalid root data")
        coords.append(num // norm)
    return tuple(coords)


@cache
def elements(group):
    """Every element, from the walk of rho, in (length, word) order.  An
    element the group has already made must carry the walk's word."""
    flag = group.quotient(())
    words, ys = flag.words(), flag.points()
    made = group._made
    for word, y in zip(words, ys):
        if y not in made:
            made[y] = WeylElement(word, y, group)
        assert made[y].word == word, (made[y], word)
    out = tuple(made[y] for y in ys)
    if len(out) != group.order:
        raise AssertionError(f"orbit of rho has {len(out)} points, the degrees give {group.order}")
    if len(out) > 1 and out[-2].length == out[-1].length:
        raise AssertionError("longest element is not unique; group is not finite Weyl")
    return out


def identity(group):
    return group._at(group._rho)


def generator(group, i):
    check_node(i, group.rank)
    return group.from_word((i,))


def longest_element(group):
    """w0, the element with w0(rho) = -rho."""
    return group._at(tuple(-c for c in group._rho))


@cache
def _inverse_point(group, word):
    return group._fold(word[::-1], group._rho)


def inverse_point(w):
    """w^-1(rho), the point of the reversed word."""
    return _inverse_point(w.group, w.word)


def inverse(w):
    return w.group._at(inverse_point(w))


def order(w):
    k, cur = 1, w
    while cur.word:
        cur = cur * w
        k += 1
    return k


def has_right_descent(w, i):
    """l(w s_i) < l(w), i.e. w sends alpha_i to a negative root, i.e.
    <w^-1 rho, alpha_i_check> < 0."""
    return inverse_point(w)[i - 1] < 0


class LengthBijection(NamedTuple):
    """Pairing of two coset-representative lists by sorted position.

    ``pairs`` is None when the length multisets disagree; the two length
    tuples stay available either way so a failure names the mismatch.
    """

    left: tuple
    right: tuple
    lengths_left: tuple
    lengths_right: tuple
    pairs: tuple | None

    @property
    def ok(self):
        return self.pairs is not None


def length_bijection(group, left_nodes, right_nodes):
    left = group.min_coset_reps(left_nodes)
    right = group.min_coset_reps(right_nodes)
    ll = tuple(map(len, group.quotient(left_nodes).words()))
    lr = tuple(map(len, group.quotient(right_nodes).words()))
    pairs = tuple(zip(left, right)) if ll == lr else None
    return LengthBijection(left=left, right=right, lengths_left=ll, lengths_right=lr, pairs=pairs)


def basis_index(ring, w):
    """The cell of w in a Schubert ring, by its canonical word, or None."""
    return ring.words.index(w.word) if w.word in ring.words else None


def sigma(ring, w):
    k = basis_index(ring, w)
    if k is None:
        raise ValueError(f"{w.name} is not a minimal representative here")
    return CohomologyElement(ring, {k: 1})


def terms(x):
    """(cell as an element, coefficient) pairs of a cohomology class."""
    return tuple((x.ring.basis[k], c) for k, c in x.coefficients().items())


def coefficient(x, w):
    k = basis_index(x.ring, w)
    return 0 if k is None else x.coefficients().get(k, 0)


def lift(x, flag):
    """Pullback of x to the finer ring ``flag``: each cell keeps its
    canonical word."""
    index = {w: k for k, w in enumerate(flag.words)}
    return CohomologyElement(flag, {index[x.ring.words[k]]: c for k, c in x.coefficients().items()})


def chevalley(ring, d, x):
    """d times x by the Chevalley rule, one dict of sums over the ring's
    covers; reads neither the layer offsets nor the ring's last divisor."""
    if x.ring is not ring:
        raise ValueError("element belongs to a different ring")
    ring.check_divisor(d)
    lam = [d.weights[j - 1] for j in ring.free_nodes]
    values = [sum(map(mul, lam, part)) for part in ring.table.classes]
    out = {}
    for k, c in x.coefficients().items():
        for j, i in ring._covers(k):
            m = values[i]
            if m:
                out[j] = out.get(j, 0) + c * m
    return CohomologyElement(ring, out)


def parabolic_elements(group, nodes):
    """Elements of the standard parabolic subgroup W_P.  Canonical words
    of W_P elements only use letters of P, so membership is a word test."""
    p = set(group.normalize_parabolic(nodes))
    return tuple(w for w in elements(group) if set(w.word) <= p)


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
        v = simple_root(rs, j)
        for i in reversed(word):
            v = reflect(rs, i, v)
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
    shares no code with the walk of ``WeylGroup.quotient`` and its
    first-descent test."""
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
    return tuple(words), tuple(points)
