"""Outputs must not depend on the iteration order of sets of atoms.  Atoms
hash by identity, so that order follows the memory addresses at which they
were interned, not PYTHONHASHSEED: one test interns a seeded, shuffled
batch of atoms between padding allocations before the golden tests run, in
a process with PYTHONHASHSEED=1 beside a plain one with 2, another reverses
what `atoms_of` yields to `equals_zero`, and a third requires the same term
order of reduced expressions in two processes with different hash seeds and
allocation padding."""

import json
import os
import subprocess
import sys
from pathlib import Path

from lieforge import expr_core
from lieforge.expr_core import Expr, ZeroStatus, jet, recip_e, root, sym

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TESTS = ["tests/test_cli.py::test_readme_command_stdout_pinned",
                "tests/test_numeric_golden.py", "tests/test_determining_golden.py",
                "tests/test_span_solver.py::test_structure_tables_pinned"]

# argv: seed ("none": key order, no padding), then the pytest arguments to
# run once the atoms are interned; prints the set order of those atoms first
PRIME = """
import json, random, sys
from itertools import combinations_with_replacement
from lieforge.expr_core import jet, root, sym

makers = [lambda n=n: sym(n) for n in "tsxcqk"] + [lambda: root("c")]
for dep in ("u", "ub", "v", "w"):
    for order in range(6):
        for idx in combinations_with_replacement("tx", order):
            makers.append(lambda dep=dep, idx=idx: jet(dep, idx))
for dep in ("f", "g", "F", "G"):
    for order in range(5):
        makers.append(lambda dep=dep, order=order: jet(dep, ("s",) * order))
padding = []
if sys.argv[1] != "none":
    rng = random.Random(int(sys.argv[1]))
    rng.shuffle(makers)
atoms = []
for make in makers:
    if sys.argv[1] != "none":
        padding.append([tuple(range(rng.randint(0, 6)))
                        for _ in range(rng.randint(0, 3))])
    atoms.append(make())
print(json.dumps([a.key for a in set(atoms)]), flush=True)
if len(sys.argv) > 2:
    import pytest
    sys.exit(pytest.main(sys.argv[2:]))
"""


# argv: padding seed; prints a hash of the term lists of the reduced rhs
# gradients, recomputed through the reducer of member 2's residual map, with
# the map's packed partials, seeded pieces, ring shifts and needed jets
PARTS = """
import hashlib, random, sys
rng = random.Random(int(sys.argv[1]))
padding = [[0] * rng.randint(0, 6) for _ in range(rng.randint(0, 400))]
from lieforge.expr_core import Jet, atoms_of, gradient, sym
for name in rng.sample([f"p{i}" for i in range(40)], 40):
    padding.append([0] * rng.randint(0, 5))
    sym(name)
from lieforge.hierarchy import catalogue_member
from lieforge.symmetry import _ResidualMap
S = catalogue_member(2)
rmap = _ResidualMap(S)

def terms(e):
    return [(tuple((a.key, k) for a, k in m), str(q)) for m, q in e._terms.items()]

syms, grads = [sym(i) for i in S.jet.independents], []
for lead, rhs in S.equations():
    jets = [a for a in atoms_of(rhs) if isinstance(a, Jet)]
    grads.append((lead.key, [a.key for a in jets],
                  [terms(rmap.reducer.reduce(-d)) for d in gradient(rhs, syms + jets)]))
partials = [[(J.key, list(h.items()), d) for J, h, d in p] for p in rmap.partials]
pieces = [(k, [(list(t.items()), d) for t, d in v]) for k, v in rmap.pieces.items()]
shift = sorted((a.key, s) for a, s in rmap.ring.shift.items())
print(hashlib.sha256(repr((grads, partials, pieces, shift,
                           [J.key for J in rmap.needed])).encode()).hexdigest())
"""


def _run(script, seed, *args, hash_seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, "-c", script, seed, *args],
                          cwd=ROOT, env=env, capture_output=True, text=True)


def test_goldens_do_not_follow_atom_allocation_order():
    plain = _run(PRIME, "none", hash_seed="2")
    shuffled = _run(PRIME, "20261018", "-q", "-p", "no:cacheprovider", *GOLDEN_TESTS,
                    hash_seed="1")
    assert plain.returncode == 0, plain.stderr
    assert shuffled.returncode == 0, shuffled.stdout + shuffled.stderr
    plain_order = json.loads(plain.stdout.splitlines()[0])
    shuffled_order = json.loads(shuffled.stdout.splitlines()[0])
    # the same atoms, iterated in another order: the priming took effect
    assert sorted(map(str, plain_order)) == sorted(map(str, shuffled_order))
    assert plain_order != shuffled_order


def test_reduced_term_order_is_reproducible():
    runs = [_run(PARTS, "1", hash_seed="0"), _run(PARTS, "2", hash_seed="3")]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout


def test_equals_zero_samples_do_not_follow_set_order(monkeypatch):
    v, x, r = jet("v").as_expr(), sym("x").as_expr(), root("c").as_expr()
    vx = jet("v", ("x",)).as_expr()
    exprs = [recip_e(v + x) * (v + x) - Expr.one(),
             recip_e(r + vx) * (r * r + vx * r) - r,
             recip_e(v + x) * v * vx - Expr.one()]
    atoms_of = expr_core.atoms_of
    inputs = []

    class RecordingPlan(expr_core.NumericPlan):
        def __init__(self, plan_exprs, plan_inputs):
            inputs.append(list(plan_inputs))
            super().__init__(plan_exprs, inputs[-1])

    monkeypatch.setattr(expr_core, "NumericPlan", RecordingPlan)
    verdicts = []
    for reverse in (False, True):
        monkeypatch.setattr(expr_core, "atoms_of", lambda e, recurse=True: sorted(
            atoms_of(e, recurse), key=lambda a: a.key, reverse=reverse))
        verdicts.append([expr_core.equals_zero(e) for e in exprs])
    assert verdicts[0] == verdicts[1] == [ZeroStatus.PROBABLY_ZERO,
                                          ZeroStatus.PROBABLY_ZERO,
                                          ZeroStatus.NONZERO]
    assert inputs[:len(exprs)] == inputs[len(exprs):]
