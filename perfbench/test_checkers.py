"""Each checker accepts the program's output and rejects a corrupted copy.

    python3 -m pytest perfbench/test_checkers.py     (or)
    python3 perfbench/test_checkers.py

Run from the root of a mukailab checkout.  The first tests corrupt one
output per checker or property by hand; the last one runs every job of
every workload once and corrupts one number in each verified output.
"""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checkers as C  # noqa: E402
import workloads as W  # noqa: E402


def rejects(verify, canon):
    try:
        verify(canon)
    except C.REJECTIONS:
        return True
    return False


def checked_job(jobs, kind, pick=0):
    job = [j for j in jobs if j.kind == kind][pick]
    canon = job.canon(job.run())
    job.verify(canon)            # the true output passes
    return job, canon


def cli_jobs():
    return W.cli_batch(random.Random(11))


def replace_json(canon, edit):
    code, out, err = canon
    doc = json.loads(out)
    edit(doc)
    return code, json.dumps(doc, sort_keys=True) + "\n", err


def test_euler_recurrence_matches_the_product():
    # coefficients of prod (1 - q^m)^-12 by direct series multiplication
    direct = [1] + [0] * 12
    for _ in range(12):
        for m in range(1, 13):
            for n in range(m, 13):
                direct[n] += direct[n - m]
    assert C.euler_numbers(12, 12) == direct
    job, canon = checked_job(W.series_hecke(random.Random(3)), "series.euler_hilb")
    bad = list(canon)
    bad[5] += 1
    assert rejects(job.verify, bad)


def test_gram_pairing_rejects_a_wrong_pair():
    job, canon = checked_job(cli_jobs(), "cli.pair", pick=1)   # JSON output
    assert rejects(job.verify, replace_json(canon, lambda d: d.update(pair=str(F(d["pair"]) + 1))))


def test_euclid_sequence_rejects_a_wrong_rank():
    job, canon = checked_job(W.reduce_isometry(random.Random(5)), "reductions.euclid")
    steps, final = canon[0]
    bad_steps = [(m, (a[0] + 1, a[1]) if m == "fm_swap" else a) for m, a in steps]
    assert rejects(job.verify, [(bad_steps, final)] + canon[1:])


def test_wall_scan_rejects_a_missing_or_moved_wall():
    job, canon = checked_job(W.wall_chambers(random.Random(7)), "walls.small")
    walls, unique, located, path = canon
    assert rejects(job.verify, (walls[:-1], unique, located, path))
    moved = walls[:-1] + [walls[-1][:1] + (walls[-1][1] + 1,) + walls[-1][2:]]
    assert rejects(job.verify, (moved, unique, located, path))


def test_crossings_reject_a_point_off_its_wall():
    job, canon = checked_job(W.wall_chambers(random.Random(7)), "walls.large")
    walls, unique, located, path = canon
    assert path
    t, i, plane = path[0]
    assert rejects(job.verify, (walls, unique, located, [(t + F(1, 10 ** 6), i, plane)] + path[1:]))
    assert rejects(job.verify, (walls, unique, located, path[1:]))


def test_sign_vectors_reject_a_flipped_sign():
    job, canon = checked_job(W.wall_chambers(random.Random(7)), "walls.small")
    walls, unique, located, path = canon
    signs = located[0]
    flipped = ("-" if signs[0] == "+" else "+",) + signs[1:]
    assert rejects(job.verify, (walls, unique, [flipped] + located[1:], path))
    # crossing times must be exactly where the signs change
    alpha, alpha2 = (F(-1, 3), F(1, 7)), (F(2, 3), F(1, 7))
    planes = [((1, 0), 0)]
    C.check_crossings(planes, alpha, alpha2, [(F(1, 3), 0)])
    assert rejects(lambda c: C.check_crossings(planes, alpha, alpha2, c), [])


def test_pairing_preserved_rejects_a_bad_image():
    jobs = W.reduce_isometry(random.Random(5))
    for kind in ("transforms.twist", "transforms.enriques_reflection", "transforms.composite"):
        job, (ok, images) = checked_job(jobs, kind)
        r, c, t = images[0]
        assert rejects(job.verify, (ok, [(r + 1, c, t)] + images[1:]))
        assert rejects(job.verify, (False, images))


def test_reduction_trace_rejects_a_changed_square_or_n():
    jobs = W.reduce_isometry(random.Random(5))
    job, (states, final, n, hodge) = checked_job(jobs, "reductions.enriques")
    assert states
    r, c, t = states[0]
    assert rejects(job.verify, ([(r, c, t + 1)] + states[1:], final, n, hodge))
    assert rejects(job.verify, (states, final, n + 1, hodge))
    job, steps = checked_job(jobs, "reductions.rank_one")
    (r, c, t), gram = steps[-1]
    assert rejects(job.verify, steps[:-1] + [((r + 1, c, t), gram)])


def test_hilbert_series_rejects_wrong_euler_number_and_asymmetry():
    jobs = W.series_hecke(random.Random(3))
    job, polys = checked_job(jobs, "series.hilb_series", pick=1)   # Enriques, symmetric data
    bad = [dict(p) for p in polys]
    bad[2][(0, 0)] += 1
    assert rejects(job.verify, bad)
    skew = [dict(p) for p in polys]
    skew[2][(2, 1)] = skew[2].get((2, 1), 0) + 1     # same sum, no longer x <-> y symmetric
    skew[2][(1, 1)] -= 1
    assert rejects(job.verify, skew)


def test_hecke_cosets_and_terms_reject_corruption():
    job, (terms, cosets) = checked_job(W.series_hecke(random.Random(3)), "partition.hecke_zr")
    assert rejects(job.verify, (terms, cosets + 1))
    key = sorted(terms)[0]
    assert rejects(job.verify, (terms | {key: terms[key] + 1}, cosets))


def test_evidence_identity_rejects_a_changed_side():
    job, canon = checked_job(W.series_hecke(random.Random(3)), "partition.evidence")
    lhs, rhs, nl, nr = canon[1]
    key = sorted(lhs)[-1]
    assert rejects(job.verify, [canon[0], (lhs | {key: lhs[key] * 2}, rhs, nl, nr)])


def test_known_faults_fail_every_time():
    faults = [j for j in cli_jobs() if j.known_fault]
    assert len(faults) == 2
    for job in faults:
        try:
            canon = job.canon(job.run())
        except KeyError:
            continue
        assert rejects(job.verify, canon)


def corrupt(value):
    """A copy of plain data with one number (or one digit) changed."""
    if isinstance(value, bool):
        return not value, True
    if isinstance(value, (int, F)):
        return value + 1, True
    if isinstance(value, str):
        for k in range(len(value) - 1, -1, -1):
            if value[k].isdigit():
                return value[:k] + str((int(value[k]) + 1) % 10) + value[k + 1:], True
        return value, False
    if isinstance(value, dict):
        items = sorted(value.items())
        for k, (key, v) in enumerate(items):
            new, done = corrupt(v)
            if done:
                return dict(items[:k] + [(key, new)] + items[k + 1:]), True
        return value, False
    if isinstance(value, (list, tuple)):
        for k in range(len(value)):
            new, done = corrupt(value[k])
            if done:
                out = list(value)
                out[k] = new
                return type(value)(out), True
    return value, False


def test_every_verifier_rejects_a_corrupted_output():
    for name, build in W.WORKLOADS.items():
        for job in build(random.Random(23)):
            if job.known_fault:
                continue
            canon = job.canon(job.run())
            job.verify(canon)
            if job.kind.startswith("cli."):
                code, out, err = canon
                new_out, done = corrupt(out)        # a changed value, else a changed exit code
                bad = (code, new_out, err) if done else (code + 1, out, err)
                done = True
            else:
                bad, done = corrupt(canon)
            assert done, job.kind
            assert rejects(job.verify, bad), "%s accepted %r" % (job.kind, bad)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for n, f in tests:
        f()
        print("ok", n)
