"""Known answers: two 2-reflective K3 lattices whose chamber walls are classical.

Both lattices are even, unimodular and hyperbolic, and their chamber of
(-2)-classes is a Coxeter polytope with a known diagram, so the true wall
set does not depend on any computation of this repository:

* rank 10: -C(E10), the negated Cartan matrix of E10 = T_{2,3,7}.  The
  ample class rho = G^{-1} (1, ..., 1) pairs 1 with every basis vector,
  and the walls are the 10 basis vectors, E10's Coxeter diagram
  (Vinberg 1972, "On the groups of unit elements of certain quadratic
  forms").
* rank 18: U + E8(-1) + E8(-1) in the basis (f, o, theta^1, theta^2) of
  an elliptic K3 with two II* fibres: f^2 = 0, f.o = 1, o^2 = -2.  The
  ample class h = 61 f + 30 o + delta + delta, delta = G_{E8}^{-1} (1, ...,
  1), pairs 1 with each of the 19 walls: o, f - sum m_i theta_i for each
  E8 (m the highest-root coefficients) and the 16 theta's (Vinberg 1975
  found 19 walls for II_{1,17}).

Here E_n is the Dynkin diagram T_{2,3,n-3}: a chain 0-1-...-(n-2), with
node n-1 joined to node 2.  Every wall has a bound-1 ample pairing, so the
walls found at bound 1 and above are the whole answer.  The documents set
`wall_test_limit` to the rank, past its default cap of 8.  Each case also
runs in two random bases, where the walls must be the expected ones
carried along.
"""
import json
import random

import pytest

from ihscone.cli import main
from ihscone.lattice import Lattice, pairing
from tests.helpers import transported


def _neg_cartan(n):
    """-C(E_n), E_n = T_{2,3,n-3}: -2 on the diagonal, 1 on each edge."""
    edges = {(i, i + 1) for i in range(n - 2)} | {(2, n - 1)}
    return tuple(
        tuple(-2 if i == j else int((i, j) in edges or (j, i) in edges) for j in range(n))
        for i in range(n)
    )


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


E10 = _neg_cartan(10)
RHO = (76, 153, 231, 195, 160, 126, 93, 61, 30, 115)

E8 = _neg_cartan(8)
DELTA = (-46, -91, -135, -110, -84, -57, -29, -68)
HIGHEST_ROOT = (2, 4, 6, 5, 4, 3, 2, 3)


def _u_e8_e8():
    """U + E8(-1) + E8(-1), its ample class h and its 19 walls."""
    gram = [[0] * 18 for _ in range(18)]
    gram[0][1] = gram[1][0] = 1
    gram[1][1] = -2
    for start in (2, 10):
        for i in range(8):
            for j in range(8):
                gram[start + i][start + j] = E8[i][j]
    ample = (61, 30) + DELTA + DELTA
    walls = [_unit(18, i) for i in range(1, 18)]
    for start in (2, 10):
        fibre = [0] * 18
        fibre[0] = 1
        fibre[start:start + 8] = [-m for m in HIGHEST_ROOT]
        walls.append(tuple(fibre))
    return tuple(map(tuple, gram)), ample, walls


CASES = {
    "E10": (E10, RHO, [_unit(10, i) for i in range(10)], (1,)),
    "U+E8+E8": (*_u_e8_e8(), (1, 2, 3)),
}


def test_the_cases_are_what_the_docstring_says():
    lat = Lattice(E10)
    assert pairing(lat, RHO, RHO) == 1240
    assert all(pairing(lat, RHO, _unit(10, i)) == 1 for i in range(10))
    gram, ample, walls = _u_e8_e8()
    lat = Lattice(gram)
    assert pairing(lat, ample, ample) == 620
    assert sum(HIGHEST_ROOT) == 29 and len(walls) == 19
    assert all(pairing(lat, w, w) == -2 and pairing(lat, w, ample) == 1 for w in walls)


def _walls(tmp_path, capsys, gram, ample, bound):
    doc = {
        "gram": [list(row) for row in gram],
        "type": "K3",
        "ample": list(ample),
        "bound": {"max_ample_pairing": bound, "wall_test_limit": len(gram)},
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    return [tuple(map(int, w)) for w in report["chamber_walls"]]


def _is_tree(lat, walls):
    """The walls' Gram matrix: -2 on the diagonal, 0 or 1 off it, and its
    edges (the 1 entries) form a tree."""
    k = len(walls)
    gram = [[pairing(lat, v, w) for w in walls] for v in walls]
    if any(gram[i][i] != -2 for i in range(k)):
        return False
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if gram[i][j]]
    if any(gram[i][j] != 1 for i, j in edges) or len(edges) != k - 1:
        return False
    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in range(k):
            if gram[i][j] == 1 and j not in reached:
                reached.add(j)
                todo.append(j)
    return len(reached) == k


@pytest.mark.parametrize("name", CASES)
def test_walls_are_the_classical_ones(tmp_path, capsys, name):
    gram, ample, walls, bounds = CASES[name]
    rng = random.Random(2022)
    bases = [(Lattice(gram), ample, walls)]
    for _ in range(2):
        # as many shears as the rank: twice as many, the default, give
        # rank-18 entries in the hundreds, where the search, with no reduced
        # basis, takes over 20 s
        lat, (moved_ample, *moved_walls) = transported(
            rng, Lattice(gram), [ample, *walls], ops=len(gram)
        )
        bases.append((lat, moved_ample, moved_walls))
    for lat, amp, expected in bases:
        for bound in bounds:
            found = _walls(tmp_path, capsys, lat.gram, amp, bound)
            assert set(found) == set(expected), (name, bound)
            assert len(found) == len(expected)
            assert _is_tree(lat, found), (name, bound)
