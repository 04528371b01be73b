"""Identities of the graded character that need no external data.

Each path contributes q^{deg} e^{wt(1)}, where wt(1) is its endpoint.  Three
facts hold in every type and are checked on small shapes:

* every degree slice of the endpoint multiset is invariant under W;
* at q = 1 the character is multiplicative over the fundamental weights;
* on A_{N-1} with lambda = m varpi_1, (deg, endpoint) is distributed like
  (-maj, content) over words in [N]^m;
* the paths of degree 0 number dim V(lambda): every segment energy is then 0,
  so every segment is a Bruhat path and the path is a classical LS path,
  which Littelmann's character formula counts.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import cached_context, evaluate
from qbruhat.cartan import pair
from qbruhat.degree import degree, degree_lines
from qbruhat.qls import DEFAULT_CAP, enumerate_hat


def graded_endpoints(type_name: str, mults: tuple[int, ...]) -> Counter:
    """Multiset of (degree, endpoint coordinates) over all paths of the shape."""
    ctx = cached_context(type_name, mults)
    g = ctx.graph
    out: Counter = Counter()
    for eta in enumerate_hat(g):
        end = evaluate(g, eta, F(1))
        assert all(c.denominator == 1 for c in end)
        out[(degree(eta, g), tuple(int(c) for c in end))] += 1
    return out


def endpoints(type_name: str, mults: tuple[int, ...]) -> Counter:
    out: Counter = Counter()
    for (_, end), n in graded_endpoints(type_name, mults).items():
        out[end] += n
    return out


@pytest.mark.parametrize(
    "type_name,mults",
    [
        ("G2", (1, 1)),
        ("B3", (1, 1, 1)),
        ("C3", (0, 2, 1)),
        ("F4", (1, 0, 0, 0)),
        ("D4", (0, 1, 0, 0)),
        ("A3", (2, 0, 1)),
    ],
)
def test_degree_slices_are_w_invariant(type_name, mults):
    rs = cached_context(type_name, mults).rs
    slices: dict[int, Counter] = {}
    for (deg, end), n in graded_endpoints(type_name, mults).items():
        slices.setdefault(deg, Counter())[end] += n
    assert len(slices) > 1
    for deg, ends in slices.items():
        for i in range(rs.rank):  # the simple root alpha_{i+1} sits at index i
            moved = Counter({rs.reflect_weight(e, i): n for e, n in ends.items()})
            assert moved == ends, (deg, i + 1)


def convolve(a: Counter, b: Counter) -> Counter:
    out: Counter = Counter()
    for x, m in a.items():
        for y, n in b.items():
            out[tuple(p + q for p, q in zip(x, y))] += m * n
    return out


@pytest.mark.parametrize(
    "type_name,mults",
    [("B3", (1, 1, 1)), ("G2", (2, 1)), ("A3", (2, 0, 1)), ("C3", (0, 2, 1)), ("D4", (1, 1, 0, 0))],
)
def test_character_is_multiplicative_at_q1(type_name, mults):
    rank = len(mults)
    product = Counter({(0,) * rank: 1})
    for i, m in enumerate(mults):
        fundamental = tuple(int(j == i) for j in range(rank))
        for _ in range(m):
            product = convolve(product, endpoints(type_name, fundamental))
    assert endpoints(type_name, mults) == product


def maj(word: tuple[int, ...]) -> int:
    return sum(j + 1 for j in range(len(word) - 1) if word[j] > word[j + 1])


def content(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    """sum of eps_k = varpi_k - varpi_{k-1} over the letters, in A_{n-1} weight coordinates."""
    acc = [0] * (n - 1)
    for k in word:
        if k <= n - 1:
            acc[k - 1] += 1
        if k >= 2:
            acc[k - 2] -= 1
    return tuple(acc)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 3)])
def test_type_a_energy_is_minus_maj(n, m):
    mults = (m,) + (0,) * (n - 2)
    words = Counter(
        (-maj(w), content(w, n)) for w in itertools.product(range(1, n + 1), repeat=m)
    )
    assert graded_endpoints(f"A{n - 1}", mults) == words


def weyl_dimension(type_name: str, mults: tuple[int, ...]) -> int:
    """dim V(lambda) = prod over beta > 0 of <lambda + rho, beta^vee> / <rho, beta^vee>."""
    rs = cached_context(type_name, mults).rs
    shifted = tuple(m + r for m, r in zip(mults, rs.rho))
    dim = F(1)
    for c in rs.positive_coroots:
        dim *= F(pair(shifted, c), pair(rs.rho, c))
    assert dim.denominator == 1
    return int(dim)


@pytest.mark.parametrize(
    "type_name,mults,dim",
    [
        ("G2", (2, 2), 729),
        ("B3", (1, 0, 2), 189),
        ("D4", (1, 1, 1, 1), 4096),
        ("A3", (2, 2, 2), 729),
        ("B3", (2, 1, 1), 1512),
        ("C3", (0, 2, 1), 616),
    ],
)
def test_degree_zero_rows_number_the_dimension(type_name, mults, dim):
    # degree 0 forces every segment energy to 0, so this counts the zero-energy entries of the segment tables
    lines = degree_lines(cached_context(type_name, mults).graph, DEFAULT_CAP)
    assert sum(line.rsplit(",", 1)[1] == "0" for line in lines[1:]) == weyl_dimension(type_name, mults) == dim
