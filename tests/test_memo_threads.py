"""The per-process memos give the same bytes when threads race on them."""

import itertools
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np

from funcalg import colombeau, gelfand

THREADS = 4


def _pairs():
    s4, q8 = gelfand.symmetric(4), gelfand.quaternion()
    stabilizer = [i for i, p in enumerate(itertools.permutations(range(4))) if p[3] == 3]
    return [(s4, stabilizer), (s4, [s4.id]), (q8, [q8.id]),
            (gelfand.dihedral(5), [0, 5]), (gelfand.cyclic(6), [0])]


def _work():
    """Bytes of every result, a non-Gelfand pair giving its error text."""
    out = []
    for group, k in _pairs():
        out.append(repr(gelfand.is_gelfand_pair(group, k)))
        for seed in (0, 3):
            try:
                out.append([phi.tobytes() for phi in gelfand.spherical_functions(group, k, seed)])
            except gelfand.NotGelfandPairError as exc:
                out.append(str(exc))
    m = colombeau.build_mollifier(4)
    k_grid = np.linspace(-1.0, 1.0, 101)
    for alpha in (3, 1, 4, 2):
        out.append(colombeau.seminorm_net(colombeau.catalog("exp"), m, alpha,
                                          k_grid=k_grid).values.tobytes())
    return out


def _clear():
    gelfand.cache_clear()
    colombeau.Mollifier.quadrature_weights.cache_clear()


def test_threads_match_a_single_thread():
    _clear()
    want = _work()
    _clear()
    start = Barrier(THREADS)

    def race():
        start.wait()                     # every thread meets the cleared memos together
        return _work()

    with ThreadPoolExecutor(THREADS) as pool:
        results = [f.result() for f in [pool.submit(race) for _ in range(THREADS)]]
    assert all(got == want for got in results)
