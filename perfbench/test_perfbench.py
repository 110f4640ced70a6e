"""Tests of the benchmark itself: every oracle check rejects a corrupted
result, the tracer is transparent, and deadline overruns count as failures.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import cstarlab.cli as cli
import cstarlab.intlinalg as intlinalg
import cstarlab.sampler as sampler
import cstarlab.transport as transport
import cstarlab.walk as walk
import exact
import run
import spectral
import towers
import walks
from common import CheckFailed, Job, bottleneck
from tracer import Tracer


def passes_then_rejects(job, corrupt):
    """Run `job`, check it passes, then check that `corrupt` makes it fail.

    `corrupt(out)` returns the corrupted output; jobs whose output is a
    report file corrupt that file and return the status unchanged.  Reports
    are deleted by the check, so the job runs twice.
    """
    job.check(job.run())
    out = job.run()
    with pytest.raises(CheckFailed):
        job.check(corrupt(out))


def edit_report(path, index, edit):
    """Apply `edit` to JSON-lines record `index` (header lines excluded)."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    rec = json.loads(lines[body[index]])
    edit(rec)
    lines[body[index]] = json.dumps(rec, sort_keys=True)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def report_corruptor(path, index, edit):
    def corrupt(status):
        edit_report(path, index, edit)
        return status
    return corrupt


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.45, 0.65])
def test_sample_check_rejects_wrong_estimate(tmp_path, p):
    job = walks.sample_job(str(tmp_path), p, 1, "faces", 400, 400, 5)

    def edit(rec):
        rec["estimate"] = 0.25 if rec["estimate"] > 0.5 else 0.9
        rec["ci"] = [rec["estimate"] - 0.01, rec["estimate"] + 0.01]

    passes_then_rejects(job, report_corruptor(str(tmp_path / "sample.jsonl"), 1, edit))


def test_sample_check_rejects_wrong_diagnostics(tmp_path):
    job = walks.sample_job(str(tmp_path), 0.6, 2, "vertices", 200, 300, 6)

    def edit(rec):
        rec["diagnostics"]["max_dimension"] += 1

    passes_then_rejects(job, report_corruptor(str(tmp_path / "sample.jsonl"), 1, edit))


def test_sample_check_rejects_wrong_class(tmp_path):
    job = walks.sample_job(str(tmp_path), 0.7, 1, "barycenter", 200, 200, 7)

    def edit(rec):
        rec["trace_space_class"] = rec["descriptor"]["trace_space"] = "poulsen"

    passes_then_rejects(job, report_corruptor(str(tmp_path / "sample.jsonl"), 1, edit))


def test_walk_check_rejects_wrong_trial(tmp_path):
    job = walks.walk_job(str(tmp_path), 0.5, 2, 30, 400, 8)

    def edit(rec):
        rec["final_state"] += 2  # keeps the parity, so only the reference walk sees it

    passes_then_rejects(job, report_corruptor(str(tmp_path / "walk.jsonl"), 1, edit))


def test_walk_check_rejects_wrong_frequency(tmp_path):
    job = walks.walk_job(str(tmp_path), 0.5, 1, 30, 400, 9)

    def edit(rec):
        rec["frequency_hit_zero"] = 0.0

    passes_then_rejects(job, report_corruptor(str(tmp_path / "walk.jsonl"), -1, edit))


def test_sup_check_rejects_shifted_law():
    job = walks.sup_job(0.45, 1, 5, 2000, 10)

    def corrupt(out):
        sups, resolved = out
        sups = sups.copy()
        sups[1::4] = 6
        return sups, resolved

    passes_then_rejects(job, corrupt)


def test_sup_check_rejects_wrong_first_trial():
    job = walks.sup_job(0.45, 1, 5, 500, 11)

    def corrupt(out):
        sups, resolved = out
        sups = sups.copy()
        sups[0] = 6 if sups[0] != 6 else 1
        return sups, resolved

    passes_then_rejects(job, corrupt)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", towers.SCHEMES)
def test_write_check_rejects_broken_collapse(tmp_path, scheme):
    archive = towers.Archive()
    job = towers.write_job(str(tmp_path), archive, 0.7, scheme, 120, 12)

    def edit(rec):
        for m in rec["tower"]["maps"]:
            if m["kind"] == "collapse" and len(m["vector"]) >= 3:
                m["vector"] = m["vector"][1:] + m["vector"][:1]
                if scheme == "barycenter":
                    m["vector"][0] += 1e-9
                    m["vector"][1] -= 1e-9
                break

    passes_then_rejects(job, report_corruptor(str(tmp_path / "tower.jsonl"), 1, edit))


def test_write_check_rejects_wrong_dims(tmp_path):
    archive = towers.Archive()
    job = towers.write_job(str(tmp_path), archive, 0.65, "faces", 100, 13)

    def edit(rec):
        rec["tower"]["dims"][-1] += 2

    passes_then_rejects(job, report_corruptor(str(tmp_path / "tower.jsonl"), 1, edit))


@pytest.mark.parametrize("part", [0, 1, 2])
def test_read_check_rejects_corruption(tmp_path, part):
    archive = towers.Archive()
    write = towers.write_job(str(tmp_path), archive, 0.7, "faces", 300, 14)
    write.check(write.run())
    job = towers.read_job(archive, [1, 2])

    def corrupt(out):
        tower, image, radius = out
        if part == 0:
            tower = tower.truncate(tower.top_level - 1)
        elif part == 1:
            image = image[::-1].copy()
            image[0] += 1e-9
        else:
            radius += 1e-9
        return tower, image, radius

    passes_then_rejects(job, corrupt)


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ensemble,n", [("hermitian", 3), ("unitary", 3), ("normal", 3)])
def test_orbit_check_rejects_wrong_value(ensemble, n):
    a, b = spectral.random_pair(np.random.default_rng(n), ensemble, n)
    job = spectral.orbit_job(ensemble, a, b, 15)
    passes_then_rejects(job, lambda res: dataclasses.replace(res, value=res.value + 1e-4))


def test_orbit_check_rejects_non_unitary_certificate():
    a, b = spectral.random_pair(np.random.default_rng(1), "normal", 4)
    job = spectral.orbit_job("normal", a, b, 16)
    passes_then_rejects(job, lambda res: dataclasses.replace(res, unitary=1.01 * res.unitary))


@pytest.mark.parametrize("n,complex_", [(6, False), (40, False), (6, True), (40, True)])
def test_matching_check_rejects_wrong_value(n, complex_):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    if complex_:
        a, b = a + 1j * rng.standard_normal(n), b + 1j * rng.standard_normal(n)
    passes_then_rejects(spectral.matching_job(a, b), lambda v: float(np.nextafter(v, 0)))


def test_winf_checks_reject_wrong_value():
    rng = np.random.default_rng(3)
    passes_then_rejects(spectral.winf_job(rng, 12), lambda v: v + 1e-12)
    a, b = spectral.random_pair(rng, "normal", 4)
    passes_then_rejects(spectral.winf_pair_job(a, b), lambda v: v + 1e-6)


def test_reference_bottleneck_matches_brute_force():
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert bottleneck(a, b) == transport.bottleneck_brute_force(a, b)


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _replace_snf(out, **parts):
    snf, coker, kernel = out
    return dataclasses.replace(snf, **parts), coker, kernel


def test_snf_check_rejects_wrong_diagonal():
    job = exact.snf_job("intlinalg.dense", [[2, 4, 4], [-6, 6, 12], [10, -4, -16]])

    def corrupt(out):
        d = out[0].d.to_lists()
        d[0][0] *= 2
        return _replace_snf(out, d=intlinalg.IntMatrix.from_rows(d))

    passes_then_rejects(job, corrupt)


def test_snf_check_rejects_non_unimodular_transform():
    m = [[2, 0], [0, 3]]
    job = exact.snf_job("intlinalg.dense", m)

    def corrupt(out):
        # U = diag(1, 2), V = I, D = U m: still U m V = D, but U is not unimodular
        u = intlinalg.IntMatrix.from_rows([[1, 0], [0, 2]])
        return _replace_snf(out, u=u, v=intlinalg.IntMatrix.identity(2),
                            d=intlinalg.IntMatrix.from_rows([[2, 0], [0, 6]]))

    passes_then_rejects(job, corrupt)


def test_snf_check_rejects_broken_chain():
    job = exact.snf_job("intlinalg.dense", [[2, 0], [0, 3]])

    def corrupt(out):
        # diag(2, 3) is a valid diagonalisation but not a divisibility chain
        eye = intlinalg.IntMatrix.identity(2)
        return _replace_snf(out, u=eye, v=eye, d=intlinalg.IntMatrix.from_rows([[2, 0], [0, 3]]))

    passes_then_rejects(job, corrupt)


def test_ck_check_rejects_wrong_cokernel():
    rng = np.random.default_rng(5)
    job = exact.snf_job("intlinalg.cuntz_krieger", exact.ck_matrix(rng, 12))

    def corrupt(out):
        snf, coker, kernel = out
        return snf, intlinalg.FGAbelianGroup(coker.free_rank + 1, coker.torsion), kernel

    passes_then_rejects(job, corrupt)


def test_ck_check_rejects_wrong_kernel_rank():
    rng = np.random.default_rng(6)
    job = exact.snf_job("intlinalg.cuntz_krieger", exact.ck_matrix(rng, 10))
    passes_then_rejects(job, lambda out: (out[0], out[1], out[2] + 1))


def test_drop_check_rejects_wrong_k1():
    job = exact.drop_job([(3, 5), (4, 6)])

    def corrupt(groups):
        return groups[:1] + [(groups[1][0], intlinalg.FGAbelianGroup.zero())]

    passes_then_rejects(job, corrupt)


def test_cli_sweep_checks_reject_wrong_records(tmp_path):
    job = exact.ktheory_cli_job(str(tmp_path), 6)

    def edit_k1(rec):
        rec["k1"] = "0"

    # record 8 is the (2, 2) dimension drop, whose K1 is Z/2
    passes_then_rejects(job, report_corruptor(str(tmp_path / "ktheory.jsonl"), 8, edit_k1))

    job = exact.cuntz_cli_job(str(tmp_path), 6)

    def edit_trivial(rec):
        rec["k1_trivial"] = not rec["k1_trivial"]

    passes_then_rejects(job, report_corruptor(str(tmp_path / "cuntz.jsonl"), 4, edit_trivial))


# ---------------------------------------------------------------------------
# tracer and loop
# ---------------------------------------------------------------------------

def test_tracer_is_transparent_and_nests_spans(tmp_path):
    tracer = Tracer()
    original = walk.batch_hits_zero
    tracer.install()
    try:
        assert walk.batch_hits_zero is not original
        assert sampler.batch_hits_zero is walk.batch_hits_zero
        tracer.begin_job(0)
        params = walk.WalkParams.point(0.6, start=1)
        traced = sampler.estimate_prob_jiang_su(params, 50, 60, 3)
        status = cli.run(["walk", "--p", "0.5", "--length", "20", "--trials", "2",
                          "--output", str(tmp_path / "w.jsonl")])
        with pytest.raises(walk.InvalidParamsError):
            walk.batch_hits_zero(params, 0, 1, 1)
        tracer.end_job()
    finally:
        tracer.uninstall()
    assert walk.batch_hits_zero is original
    assert traced == sampler.estimate_prob_jiang_su(params, 50, 60, 3)
    assert status == 0
    names = tracer._names
    spans = list(zip(tracer.span_name, tracer.span_parent))

    def chain(idx):
        out = []
        while idx >= 0:
            out.append(names[spans[idx][0]])
            idx = spans[idx][1]
        return out

    chains = [chain(i) for i, (name, _) in enumerate(spans) if names[name] == "rng.stream"]
    assert ["rng.stream", "walk.batch_hits_zero", "sampler.estimate_prob_jiang_su"] in chains
    assert any(c[-1] == "cli.run" and "walk.sample_trajectory" in c for c in chains)
    assert tracer.group_calls["rng.stream"] == 50 + 2
    assert tracer.counts["walk.trials"] == 50 + 2
    assert tracer.counts["walk.uniforms"] == 50 * 61 + 2 * 20
    for layer in ("rng", "walk", "sampler", "cli"):
        assert 0 < tracer.self_s[layer] <= tracer.busy_s[layer] + 1e-9


def test_deadline_overrun_counts_as_failure(monkeypatch):
    import signal

    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        outcome = run.Outcome()

        def spin():
            end = time.perf_counter() + 5
            while time.perf_counter() < end:
                pass

        run.execute(Job("spin", spin, lambda out: None), outcome)
        run.execute(Job("ok", lambda: 1, lambda out: None), outcome)
        run.execute(Job("wrong", lambda: 1, lambda out: exact.expect(False, "no")), outcome)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcome.attempted == 3 and outcome.failed == 2 and outcome.wrong == 1
    assert 0.05 <= outcome.latencies[0] < 1.0


def test_metric_names_match_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    outcome = run.Outcome()
    outcome.run_cycle([0.5, 0.25], lambda latency: outcome.add("k", latency))
    assert outcome.cycle_rates == [2 / 0.75]
    e2e = run.end_to_end(outcome, [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    tracer = Tracer()
    layers = run.per_layer(tracer, outcome, outcome)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        kinds = {job.kind for job in run.Workload(name).warmup("unused")}
        assert kinds == {job.kind for job in run.Workload(name).cycle(0, 0, "unused")}
