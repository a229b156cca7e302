"""Tests of the benchmark itself: seeded generation, the oracles, tracing,
the result contract.

    python3 bench/selftest.py

Kept out of the repository's pytest suite (the file name does not match
test_*.py); it needs only the standard library and this checkout.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_lieforge()
import jobs  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
from lieforge import expr_core, systems  # noqa: E402


def _job(name: str, seed: int, prefix: str):
    # two decks hold every profile of the exact workload
    for deck in jobs.build(name, seed, 2):
        for job in deck:
            if job.label.startswith(prefix):
                return job
    raise LookupError(prefix)


class Generation(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for name in jobs.WORKLOADS:
            a = [[j.label for j in d] for d in jobs.build(name, 3, 3)]
            b = [[j.label for j in d] for d in jobs.build(name, 3, 3)]
            c = [[j.label for j in d] for d in jobs.build(name, 4, 3)]
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)
            # the first decks do not depend on how many are built
            d = [[j.label for j in d] for d in jobs.build(name, 3, 1)]
            self.assertEqual(a[:1], d, name)

    def test_deck_mix_is_fixed(self):
        # every deck has the same number of jobs of each kind
        def kinds(deck):
            return sorted(j.label.split()[0] for j in deck)
        for name in jobs.WORKLOADS:
            decks = jobs.build(name, 5, 4)
            self.assertTrue(all(kinds(d) == kinds(decks[1]) for d in decks[1:]), name)
            # the first discover deck has the member-4 README job on top
            self.assertEqual(len(decks[0]), len(decks[1]) + (name == "discover"), name)

    def test_readme_defaults_once_per_run(self):
        decks = jobs.build("discover", 2, 4)
        labels = [j.label for deck in decks for j in deck]
        first = {j.label for j in decks[0]}
        for key in jobs.README_DEFAULTS:
            label = "find m{} d{} t{} e{}".format(*key)
            self.assertEqual(labels.count(label), 1, label)
            self.assertIn(label, first)

    def test_no_repeated_inputs(self):
        # these labels carry every seeded parameter of their jobs
        for name, kinds in (("discover", {"find"}), ("exact", {"brackets", "family"})):
            labels = [j.label for deck in jobs.build(name, 6, 8) for j in deck
                      if j.label.split()[0] in kinds]
            self.assertEqual(len(labels), len(set(labels)), name)


class Oracles(unittest.TestCase):
    def test_perturbed_nullspace_vector(self):
        job = _job("discover", 1, "find m2 d2 t0 e0")
        text, (det, fields) = job.run()
        self.assertIsNone(job.check((det, fields)))
        self.assertEqual(json.loads(text)["dimension"], 7)
        bad = fields[0].scale(1)
        slot = next(iter(bad.xi or bad.eta))
        target = bad.xi if slot in bad.xi else bad.eta
        target[slot] = target[slot] + expr_core.Expr.rational(Fraction(1, 3)) * \
            expr_core.sym("t").as_expr()
        self.assertIsNotNone(job.check((det, [bad] + fields[1:])))
        vec = {0: Fraction(1)}
        rows = [{0: Fraction(2), 1: Fraction(1)}]
        self.assertIsNotNone(oracles.nullspace_annihilates(rows, [vec]))
        self.assertIsNone(oracles.nullspace_annihilates(
            rows, [{0: Fraction(1), 1: Fraction(-2)}]))

    def test_dependent_nullspace_vectors(self):
        job = _job("discover", 1, "find m2 d2 t0 e0")
        _, (det, fields) = job.run()
        duplicate = fields[:-1] + [fields[0].scale(2)]
        self.assertIsNotNone(job.check((det, duplicate)))
        combined = fields[:-1] + [fields[0].add(fields[1])]
        self.assertIsNotNone(job.check((det, combined)))
        vecs = [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)},
                {0: Fraction(1), 1: Fraction(-1)}]
        self.assertEqual(oracles.rank(vecs), 2)
        self.assertEqual(oracles.rank(vecs[:2] + [{2: Fraction(3)}]), 3)

    def test_wrong_dimension(self):
        job = _job("discover", 1, "find m2 d2 t0 e0")
        _, (det, fields) = job.run()
        self.assertIsNotNone(job.check((det, fields[:-1])))

    def test_flipped_verdicts(self):
        for prefix in ("combo", "family", "profile rational-trig"):
            job = _job("exact", 1, prefix)
            _, rep = job.run()
            self.assertIsNone(job.check(rep), job.label)
            if hasattr(rep, "statuses"):  # profile report: zero is derived
                rep.statuses = ["Nonzero" if rep.zero else "Zero"] * len(rep.statuses)
            else:
                rep.zero = not rep.zero
            self.assertIsNotNone(job.check(rep), job.label)

    def test_known_defect_is_flagged(self):
        job = _job("exact", 1, "profile tan (sin/cos)")
        self.assertTrue(job.known_defect)

    def test_signature_change(self):
        job = _job("exact", 1, "brackets m")
        _, (table, jacobi, sig) = job.run()
        self.assertIsNone(job.check((table, jacobi, sig)))
        if sig is not None:
            sig.center_dim += 1
            self.assertIsNotNone(job.check((table, jacobi, sig)))
        two_dim = [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]
        self.assertIsNone(oracles.jacobi_numeric(two_dim))
        n = 3
        c = [[[0.0] * n for _ in range(n)] for _ in range(n)]
        c[0][1][2], c[1][0][2] = 1.0, -1.0
        c[1][2][0], c[2][1][0] = 1.0, -1.0
        c[2][0][2], c[0][2][2] = 1.0, -1.0
        self.assertIsNotNone(oracles.jacobi_numeric(c))

    def test_shifted_rk4_value(self):
        job = _job("numeric", 1, "rk4")
        _, traj = job.run()
        self.assertIsNone(job.check(traj))
        traj.values["G"][1000] += 1e-3
        self.assertIsNotNone(job.check(traj))

    def test_fig1_closed_form(self):
        job = _job("numeric", 1, "fig1")
        _, (rows, feats) = job.run()
        self.assertIsNone(job.check((rows, feats)))
        s, F, G = rows[7]
        rows[7] = (s, F * (1 + 1e-6), G)
        self.assertIsNotNone(job.check((rows, feats)))

    def test_residual_tolerances(self):
        self.assertIsNotNone(oracles.below(2e-9, 1e-9, "x"))
        self.assertIsNotNone(oracles.below(math.nan, 1e-9, "x"))
        self.assertIsNone(oracles.order_one_residual(0.8))
        self.assertIsNotNone(oracles.order_one_residual(1e-12))
        self.assertIsNotNone(oracles.order_one_residual(math.inf))

    def test_split_mismatch(self):
        job = _job("exact", 1, "split")
        _, (rhs, v_rhs, w_rhs) = job.run()
        self.assertIsNone(job.check((rhs, v_rhs, w_rhs)))
        self.assertIsNotNone(job.check((rhs, w_rhs, v_rhs)))


class Tracing(unittest.TestCase):
    def test_install_wraps_aliases_and_restores(self):
        orig = expr_core.derive
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            self.assertIsNot(systems.derive, orig)
            x = expr_core.sym("x")
            tracer.run_job(0, "t", lambda: systems.total_derivative(
                x.as_expr() * x.as_expr(), "x"))
        finally:
            spans.uninstall(patches)
        self.assertIs(systems.derive, orig)
        self.assertIs(expr_core.derive, orig)
        calls, self_s, incl = tracer.stat("expr_core.derive")
        self.assertGreaterEqual(calls, 1)
        td_calls, td_self, td_incl = tracer.stat("systems.total_derivative")
        self.assertEqual(td_calls, 1)
        self.assertLessEqual(td_self, td_incl)
        self.assertLessEqual(incl, td_incl)


class Loop(unittest.TestCase):
    def test_runs_every_deck_once(self):
        job = jobs.Job("fake", lambda: ("out", None), lambda payload: None)
        results, whole = run.timed_loop([[job, job], [job], [job, job]], seconds=60)
        self.assertEqual(whole, 3)
        self.assertEqual([r.deck for r in results], [0, 0, 1, 2, 2])
        self.assertTrue(all(r.outcome == "ok" for r in results))
        self.assertEqual(run.decks_to_run("numeric", 30),
                         round(30 / jobs.DECK_SECONDS["numeric"]))

    def test_known_defect_and_failure_outcomes(self):
        def boom():
            raise ValueError("boom")
        ok = jobs.Job("ok", lambda: ("out", 1), lambda payload: None)
        bad = jobs.Job("bad", lambda: ("out", 1), lambda payload: "wrong")
        known = jobs.Job("known", lambda: ("out", 1), lambda payload: "wrong",
                         known_defect="listed")
        raising = jobs.Job("raising", boom, lambda payload: None,
                           known_defect="listed")
        outcomes = [run.fresh_run(j).outcome for j in (ok, bad, known, raising)]
        self.assertEqual(outcomes, ["ok", "failed", "known-defect", "failed"])


class Statistics(unittest.TestCase):
    def test_tail_has_ten_jobs_beyond(self):
        times = [float(i) for i in range(1, 101)]
        value, pct = run.tail(times)
        self.assertEqual(sum(t > value for t in times), 10)
        self.assertEqual(pct, 90.0)
        self.assertEqual(run.tail([1.0, 2.0]), (2.0, 100.0))

    def test_normalise_divides_out_machine_speed(self):
        def result(seconds, cal):
            res = run.Result("j", seconds, "", None, None)
            res.cal = cal
            return res
        fast = [result(1.0, run.CAL_REF_S) for _ in range(5)]
        slow = [result(2.0, 2 * run.CAL_REF_S) for _ in range(5)]
        run.normalise(fast)
        run.normalise(slow)
        for a, b in zip(fast, slow):
            self.assertAlmostEqual(a.norm, 1.0)
            self.assertAlmostEqual(b.norm, 1.0)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_spec())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(jobs.WORKLOADS))

    def test_trace_counts_and_digest_repeat_across_processes(self):
        outs, digests = [], []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
                 "exact", "--seed", "5", "--seconds", "1", "--trace", "1"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            doc = json.loads((run.OUT_DIR / "exact-seed5-trace1.json").read_text())
            digests.append(doc["output_digest"])
        self.assertEqual(digests[0], digests[1])
        for name, unit in run.per_layer_spec():
            if unit == "count":
                self.assertEqual(outs[0]["metrics"][name], outs[1]["metrics"][name],
                                 name)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "exact",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
