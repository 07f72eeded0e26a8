"""The Hadamard route's statistics: the sampled A and B are unbiased, and
their spread is the binomial spread that the shot count implies.

A case is a SampledRun, UCC-LiH at 10,000 shots or HE on the CMF h_eff
rows at 1,000 shots, at the initial angles or at the angles of the exact
route's second iteration, called once per seed set (n of them: 30 for
UCC-LiH, 60 for HE, whose entries sum more jobs of small weight).  HE runs
the 50 table rows.  Every A job of UCC-LiH is known, so only its 2 B entries
of each row r >= 1 hold a drawn job: it runs the 50 rows and the first 10
again, 60 rows and 118 entries, as 50 would leave 98.  A repeated row draws
from its own seed (s, r), so its draws are independent of the first copy's.
A drawn job k of a row, of weight w_k and ancilla <Z> z_k (the same run
without shots), draws Binomial(shots, (1 + z_k) / 2); a known job, one
whose <Z> is constant on the 3^gamma grid (grid_spread), adds z_k itself.
So each entry e of A (i <= j) and B has the ExactRun value mu_e as
its mean and the predicted variance v_e = sum_k w_k^2 (1 - z_k^2) / shots
over its drawn jobs.  Two statistics pool the entries with v_e > 0 of a
case, E of them, and one bounds each entry:

    chi2  = sum_e n (mean_e - mu_e)^2 / v_e          ~ chi^2(E)
    ratio = sum_e s_e^2 / v_e / E                     ~ chi^2(nu) / nu
    t_e   = |mean_e - mu_e| / sqrt(v_e / n)           ~ |N(0, 1)|

mean_e and s_e^2 (ddof 1) over the seed sets, and nu = 2 / var(ratio), its
predicted variance including each entry's binomial excess kurtosis.  Each
bound is its distribution's 1e-6 tail, fixed before any draw; for the
largest t_e that tail is family-wise, 1e-6 / E per entry (Bonferroni), and
the normal law holds there as each mean's skewness is at most 0.15.  The
pooled chi2 spreads one entry's shift over about 1,000 HE entries: a single
HE weight flipped moves its entry by 5 to 6 standard errors at 30 seed sets,
which every statistic passes, and by about 7 to 8 at 60, which t_e fails.  A
job whose |z| is 1 up to rounding puts every shot on one outcome, so an
entry made of such jobs and known jobs alone (v_e = 0) equals mu_e in every
draw.

Each angle set also checks its jobs one by one.  A known job repeats its
exact value in every seed set.  A drawn job varies, where its count could
take one value in all n seed sets with probability at most TAIL / jobs: the
probability of its binomial mode to the power n - 1 bounds that.  A job
marked known by mistake loses its noise, and no entry statistic resolves
that: UCC-LiH's B(0, ZII) carries about 3% of its entry's predicted
variance at these angles.

Row 0 keeps one seed in every seed set and stays out of the statistics: it
must repeat byte for byte, because each row draws from its own stream alone.
"""

import warnings

import numpy as np
import pytest
from scipy.special import chdtri, ndtri
from scipy.stats import binom

from conftest import grid_spread
from vqite import (EnergyMap, QiteConfig, build_hardware_efficient, build_ucc_lih,
                   cmf_reduce_rows, run_qite_rows)
from vqite.mclachlan import KNOWN_SPREAD, ExactRun, SampledRun, _jobs

TAIL = 1e-6
ROUNDING = 1e-14    # 1 - z^2 up to this is |z| = 1 as rounded


@pytest.fixture(scope="module")
def families(lih_table):
    """(builder, Hamiltonian stack, shots, seed sets, initial angles, mid-run
    angles) per family."""
    h = lih_table.hamiltonians(range(50))
    eff = cmf_reduce_rows(h)
    cases = {"ucc-lih": (build_ucc_lih, lih_table.hamiltonians([*range(50), *range(10)]),
                         10_000, 30, (1.0, 1.0), None),
             "cmf-he": (build_hardware_efficient, eff.h_eff, 1000, 60, (0.5,) * 6,
                        EnergyMap(eff, h))}
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # energy rises of the exact run
        for name, (builder, rows, shots, n, theta0, energy_map) in cases.items():
            mid = run_qite_rows(rows, builder, QiteConfig(theta0), energy_map).theta[2]
            out[name] = builder, rows, shots, n, np.array([theta0] * len(rows.coeffs)), mid
    return out


def entries(a, b):
    """The (B, E_row) entries of stacked A (i <= j) and B, row by row."""
    i, j = np.triu_indices(a.shape[-1])
    return np.concatenate([a[:, i, j], b], axis=1)


def per_entry(values, entry, rows, gamma):
    """The job values summed into their entries: entries() of the A and B they add up to."""
    flat = np.bincount(entry, values, rows * gamma * (gamma + 1))
    cut = rows * gamma * gamma
    return entries(flat[:cut].reshape(rows, gamma, gamma), flat[cut:].reshape(rows, gamma))


def angle_set(family, angles, seed_sets):
    """(predicted variance, fourth cumulant, exact value, draws over the
    seed sets) of each entry of a family's run at one angle set, after
    checking its jobs: each known one repeats its exact value in every seed
    set, and each drawn one of a row r >= 1 whose count could repeat in
    every seed set with probability at most TAIL / jobs varies."""
    builder, h, shots, _, theta0, mid = family
    run = ExactRun(builder(theta0 if angles == "initial" else mid), h)
    _, a, b, _ = run()
    exact, rows, gamma = entries(a, b), len(a), a.shape[-1]
    free = SampledRun(run, None, [None] * rows)
    z, (_, entry, weight, _, _) = free()[0], free.table
    row, i, k, _ = _jobs(gamma, h.words, h.coeffs)
    drawn = grid_spread(builder, gamma, h.words, h.n_qubits)[0][i, k] > KNOWN_SPREAD
    spread = np.where(drawn & (1.0 - z * z > ROUNDING), 1.0 - z * z, 0.0)
    var = per_entry(weight ** 2 * spread / shots, entry, rows, gamma)
    # fourth cumulant of w (2 count / shots - 1): 4 w^4 (1 - z^2) (1 - 1.5 (1 - z^2)) / shots^3
    k4 = per_entry(4 * weight ** 4 * spread * (1 - 1.5 * spread) / shots ** 3, entry, rows, gamma)

    def draw(s):    # row r >= 1 of seed set s draws from (s, r), row 0 from (0, 0)
        values, a, b = SampledRun(run, shots, [(0, 0)] + [(s, r) for r in range(1, rows)])()
        return values, entries(a, b)

    values, draws = map(np.array, zip(*(draw(s) for s in seed_sets)))
    assert (draws[:, 0] == draws[0, 0]).all()       # row 0's one seed: the same bytes
    assert (values[:, ~drawn] == z[~drawn]).all()
    # P(one count in every seed set) <= P(the mode)^(n - 1), the mode floor((shots + 1) p)
    p = np.clip((1.0 + z) / 2.0, 0.0, 1.0)
    repeat = binom.pmf(np.floor((shots + 1) * p), shots, p) ** (len(seed_sets) - 1)
    varies = np.flatnonzero(drawn & (row >= 1) & (repeat <= TAIL / len(z)))
    stuck = varies[(values[:, varies] == values[0, varies]).all(axis=0)]
    assert stuck.size == 0, list(zip(row[stuck].tolist(), i[stuck].tolist(), k[stuck].tolist()))
    return var[1:], k4[1:], exact[1:], draws[:, 1:]


@pytest.mark.parametrize("angles", ["initial", "mid-run"])
@pytest.mark.parametrize("family", ["ucc-lih", "cmf-he"])
def test_sampled_entries_have_the_binomial_mean_and_spread(families, family, angles):
    n = families[family][3]
    var, k4, exact, draws = angle_set(families[family], angles, range(1, n + 1))
    fixed = var == 0
    assert np.abs(draws[:, fixed] - exact[fixed]).max(initial=0.0) <= 1e-12
    draws, exact, var, k4 = draws[:, ~fixed], exact[~fixed], var[~fixed], k4[~fixed]
    count = var.size
    assert count >= 100, count

    chi2 = (n * (draws.mean(axis=0) - exact) ** 2 / var).sum()
    assert chi2 <= chdtri(count, TAIL), (chi2, count)
    ratio = (draws.var(axis=0, ddof=1) / var).mean()
    nu = 2 * count ** 2 / (2 * count / (n - 1) + (k4 / var ** 2).sum() / n)
    assert chdtri(nu, 1 - TAIL) / nu <= ratio <= chdtri(nu, TAIL) / nu, (ratio, nu)
    t = np.abs(draws.mean(axis=0) - exact) / np.sqrt(var / n)
    assert t.max() <= -ndtri(TAIL / count / 2), (t.max(), t.argmax(), count)
