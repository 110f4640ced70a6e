"""Exact jobs of workload `algebra`: integer K-theory through intlinalg,
ktheory and cuntz.

* Cuntz-Krieger jobs: K0 = coker(I - A^T) and K1 = ker(I - A^T) for a
  random 0/1 matrix A with n from 8 to 40, about two ones per row up to
  n = 32 and 1.5 above;
* Smith-form jobs on small dense and rectangular matrices with entries in
  [-9, 9];
* CLI `ktheory` and `cuntz` sweeps, and library dimension-drop batches.

These three layers are measured nowhere else.  Smith-form entry growth
depends on the input, and `intlinalg.snf_max_bits` shows it.  Inputs on
which the seed's Smith form blows up past any deadline (about three ones
per row at n >= 24, two per row at n >= 36, dense 6 x 6 and larger, 4 x 6
with entries in [-9, 9]) are not in this workload, because every
operation of a benchmark workload has to succeed; they are recorded as
baselines in `perfbench/README.md`.
"""

from __future__ import annotations

import math
import os

import numpy as np

import cstarlab.cli as cli
import cstarlab.intlinalg as intlinalg
import cstarlab.ktheory as ktheory
from common import Job, expect, int_matmul, read_report

#: (n, expected ones per row) of the Cuntz-Krieger jobs
CK_JOBS = ((8, 2.0), (12, 2.0), (16, 2.0), (20, 2.0), (24, 2.0), (28, 2.0), (32, 2.0),
           (36, 1.5), (40, 1.5))
DENSE_SHAPES = ((3, 3), (4, 4), (5, 5), (3, 5), (5, 3))
DENSE_RANGE = 9
SWEEP_SIZES = (8, 12, 16, 20)
DROP_PAIRS = 16
DROP_MAX = 60


def check_smith(m: list[list[int]], snf) -> int:
    """Check U m V = D, the divisibility chain and unimodularity; return the rank."""
    rows, cols = len(m), len(m[0])
    u, d, v = snf.u.to_lists(), snf.d.to_lists(), snf.v.to_lists()
    expect((len(u), len(v)) == (rows, cols), "transform shapes differ")
    expect(bool((int_matmul(int_matmul(u, m), v) == np.array(d, dtype=object)).all()),
           "U m V != D")
    diag = [d[i][i] for i in range(min(rows, cols))]
    expect(all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j),
           "D is not diagonal")
    rank = sum(1 for x in diag if x != 0)
    expect(all(x > 0 for x in diag[:rank]) and not any(diag[rank:]),
           "D is not a nonnegative diagonal with zeros last")
    expect(all(diag[i + 1] % diag[i] == 0 for i in range(rank - 1)), "divisibility chain broken")
    expect(abs(intlinalg.det_bareiss(snf.u)) == 1 and abs(intlinalg.det_bareiss(snf.v)) == 1,
           "transforms are not unimodular")
    return rank


def snf_job(kind: str, m: list[list[int]]) -> Job:
    mat = intlinalg.IntMatrix.from_rows(m)

    def run():
        return (intlinalg.smith_normal_form(mat), intlinalg.cokernel(mat),
                intlinalg.kernel_rank(mat))

    def check(out):
        snf, coker, kernel = out
        rank = check_smith(m, snf)
        torsion = tuple(x for x in snf.d.diagonal()[:rank] if x > 1)
        expect((coker.free_rank, coker.torsion) == (mat.rows - rank, torsion),
               "cokernel differs from the Smith form")
        expect(kernel == mat.cols - rank, "kernel rank differs from the Smith form")
        if mat.rows == mat.cols:
            det = intlinalg.det_bareiss(mat)
            if det:
                expect(coker.free_rank == 0 and math.prod(coker.torsion) == abs(det),
                       "cokernel order differs from |det|")
            else:
                expect(coker.free_rank >= 1, "singular matrix with finite cokernel")

    return Job(kind, run, check)


def _cyclic(g: int) -> str:
    return "0" if g == 1 else f"Z/{g}"


def ktheory_cli_job(workdir: str, size: int) -> Job:
    path = os.path.join(workdir, "ktheory.jsonl")
    argv = ["ktheory", "--max-size", str(size), "--output", path]

    def check(status):
        expect(status == 0, f"ktheory exited {status}")
        recs = read_report(path)
        expect(recs[0] == {"model": "toeplitz", "k0": "Z", "k1": "0", "index_of_shift": -1},
               "shift algebra record differs")
        expected = [{"model": "dimension_drop", "p": p, "q": q, "k0": "Z",
                     "k1": _cyclic(math.gcd(p, q))}
                    for p in range(1, size + 1) for q in range(p, size + 1)]
        expect(recs[1:] == expected, "dimension-drop records differ")

    return Job("cli.ktheory", lambda: cli.run(argv), check)


def cuntz_cli_job(workdir: str, size: int) -> Job:
    path = os.path.join(workdir, "cuntz.jsonl")
    argv = ["cuntz", "--max-size", str(size), "--output", path]

    def check(status):
        expect(status == 0, f"cuntz exited {status}")
        recs = read_report(path)
        expected = [{"p": p, "q": q, "gcd": math.gcd(p, q), "k1_trivial": math.gcd(p, q) == 1,
                     "unit_check": True}
                    for p in range(1, size + 1) for q in range(p, size + 1)]
        expect(recs[:-1] == expected, "K1-triviality records differ")
        expect(recs[-1] == {"dim_function_half_indicator": "1/2"}, "dimension value differs")

    return Job("cli.cuntz", lambda: cli.run(argv), check)


def drop_job(pairs: list[tuple[int, int]]) -> Job:
    def check(groups):
        for (p, q), (k0, k1) in zip(pairs, groups, strict=True):
            g = math.gcd(p, q)
            expect((k0.free_rank, k0.torsion) == (1, ()), f"K0 of ({p}, {q}) is not Z")
            expect((k1.free_rank, k1.torsion) == (0, () if g == 1 else (g,)),
                   f"K1 of ({p}, {q}) is not Z/{g}")

    return Job("ktheory.dimension_drop",
               lambda: [ktheory.k_dimension_drop(p, q) for p, q in pairs], check)


def ck_matrix(rng, n: int, row_weight: float = 2.0) -> list[list[int]]:
    a = (rng.random((n, n)) < row_weight / n).astype(int)
    return (np.eye(n, dtype=int) - a.T).tolist()


def cycle(seed: int, index: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, index, 5])
    jobs = [snf_job("intlinalg.cuntz_krieger", ck_matrix(rng, n, w)) for n, w in CK_JOBS]
    for rows, cols in DENSE_SHAPES:
        m = rng.integers(-DENSE_RANGE, DENSE_RANGE + 1, (rows, cols)).tolist()
        jobs.append(snf_job("intlinalg.dense", m))
    size = SWEEP_SIZES[index % len(SWEEP_SIZES)]
    jobs.append(ktheory_cli_job(workdir, size))
    jobs.append(cuntz_cli_job(workdir, size))
    pairs = [tuple(int(x) for x in rng.integers(1, DROP_MAX + 1, 2)) for _ in range(DROP_PAIRS)]
    jobs.append(drop_job(pairs))
    return jobs


def warmup(workdir: str) -> list[Job]:
    rng = np.random.default_rng(0)
    return [snf_job("intlinalg.cuntz_krieger", ck_matrix(rng, 6)),
            snf_job("intlinalg.dense", [[2, 4], [6, 8]]),
            ktheory_cli_job(workdir, 3), cuntz_cli_job(workdir, 3), drop_job([(2, 4)])]
