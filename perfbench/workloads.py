"""The four workloads: inputs made from a seed, their operations, and checks.

Inputs are generated here without calling rankone, so every commit receives
the same inputs for the same seed.  Tensors travel to rankone as JSON-style
documents read by ``rankone.io.tensor_from_document``.  Every check compares
an output with a property of the construction or with a computation in
``exact.py``; none compares with a stored copy of an earlier output.

A run is made of rounds.  Each round draws fresh inputs from its own random
stream, so patterns never repeat across rounds and the per-pattern caches in
rankone are hit only where a workload means them to be (``complete``).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, prod

import exact


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def document(dims, entries: dict) -> dict:
    return {
        "dims": list(dims),
        "entries": [{"index": list(e), "value": fmt(v)} for e, v in sorted(entries.items())],
    }


def random_factors(rng, dims):
    """Nonzero rational factor vectors with random signs."""
    return [
        [Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 7)) for _ in range(d)]
        for d in dims
    ]


def outer(factors, idx) -> Fraction:
    return prod((factors[j][i - 1] for j, i in enumerate(idx)), start=Fraction(1))


def _problem(problems, ok, message):
    if not ok:
        problems.append(message)


class Workload:
    """Defaults: one tensor document per case, analyze as the operation."""

    def load(self, rk, case):
        return rk.io.tensor_from_document(case["doc"])

    def run(self, rk, tensor):
        return rk.analyze(tensor)

    def finish(self):
        """Checks deferred to after the timed phase; problems found."""
        return []


# ---------------------------------------------------------------------------
# decide: analyze on complex-completable tensors
# ---------------------------------------------------------------------------

# (label, dims, observed count or None for the even-index search, kind).
DECIDE_SLOTS = (
    ("signs3", (3, 3, 3), None, "signs"),
    ("cube3", (3, 3, 3), 14, "plain"),
    ("mat8", (8, 8), 24, "plain"),
    ("zero4", (4, 4, 4), 32, "zero"),
    ("quad3", (3, 3, 3, 3), 30, "plain"),
    ("cube4", (4, 4, 4), 32, "plain"),
    ("cube5", (5, 5, 5), 62, "plain"),
)
DECIDE_SMOKE = (
    ("signs3", (3, 3, 3), None, "signs"),
    ("mat4", (4, 4), 7, "plain"),
    ("zero3", (3, 3, 3), 12, "zero"),
)


def _sign_flip_breaking_reals(rng, dims, observed):
    """Entry sign flips that keep complex completability and break real.

    A half-integer phase vector psi/2 on the parameters multiplies entry e
    by i**s_e with s_e = sum of psi over its levels; when every s_e is even
    the flips (-1)**(s_e/2) stay on the complex variety.  Returns the
    flipped entries, or None when every such flip is also real.
    """
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d)
    rows = [[offs[j] + i - 1 for j, i in enumerate(e)] for e in observed]
    choices = list(itertools.product((0, 1), repeat=offs[-1]))
    rng.shuffle(choices)
    masks = [exact.incidence_mask(dims, e) for e in observed]
    for psi in choices:
        s = [sum(psi[r] for r in row) for row in rows]
        if any(x % 2 for x in s):
            continue
        bits = [(x // 2) % 2 for x in s]
        if not exact.gf2_solvable(masks, bits):
            return frozenset(e for e, b in zip(observed, bits) if b)
    return None


def _decide_case(rng, dims, k, kind):
    cells = exact.grid(dims)
    factors = random_factors(rng, dims)
    flips = frozenset()
    if kind == "signs":
        while True:
            observed = rng.sample(cells, rng.randint(8, 11))
            if exact.saturation_index(dims, observed) % 2:
                continue
            flips = _sign_flip_breaking_reals(rng, dims, observed)
            if flips is not None:
                break
    else:
        observed = rng.sample(cells, k)
    if kind == "zero":
        j = rng.randrange(len(dims))
        level = rng.choice([e[j] for e in observed])
        factors[j][level - 1] = Fraction(0)
    entries = {e: outer(factors, e) * (-1 if e in flips else 1) for e in observed}
    return {"dims": dims, "entries": entries, "real": kind != "signs", "doc": document(dims, entries)}


class Decide(Workload):
    """One operation is analyze on every tensor of a round, one per slot.

    Slot costs differ by a factor of 30, so a median over single calls
    would fall between slots and jump with their mix; a round's total
    does not.
    """

    name = "decide"

    def cases(self, rng, smoke):
        slots = DECIDE_SMOKE if smoke else DECIDE_SLOTS
        return [[_decide_case(rng, dims, k, kind) for _, dims, k, kind in slots]]

    def load(self, rk, batch):
        return [rk.io.tensor_from_document(case["doc"]) for case in batch]

    def run(self, rk, tensors):
        return [rk.analyze(t) for t in tensors]

    def check(self, batch, reports):
        return [p for case, report in zip(batch, reports) for p in _check_decision(case, report)]


def _check_decision(case, report):
    dims, entries = case["dims"], case["entries"]
    observed = list(entries)
    p = []
    _problem(p, report.zero_consistent is True, "not zero-consistent")
    _problem(p, report.complex_completable is True, "not complex-completable")
    core_dims, core = exact.greedy_strip(dims, entries)
    real = exact.real_sign_solvable(core_dims, core)
    _problem(p, real == case["real"], "construction: real completability")
    _problem(p, report.real_completable == real, "real_completable")
    got = frozenset(report.finitely_completable_entries or ())
    _problem(p, set(observed) <= got, "closure misses observed entries")
    _problem(p, got == exact.closure(dims, observed), "closure differs from span test")
    if len(dims) == 2:
        _problem(p, got == exact.bipartite_closure(dims, observed), "closure differs from components")
    index = exact.saturation_index(core_dims, list(core))
    _problem(p, report.saturation_index == index, "saturation index")
    full = len(exact.closure(core_dims, list(core))) == prod(core_dims)
    _problem(p, report.uniquely_completable_complex == (full and index == 1), "unique over C")
    _problem(p, report.uniquely_completable_real == (full and index % 2 == 1 and real), "unique over R")
    return p


# ---------------------------------------------------------------------------
# witness: analyze on tensors that violate a 2x2 binomial
# ---------------------------------------------------------------------------

WITNESS_DIMS = (3, 3, 3)
WITNESS_SIZES = (10, 11, 12)
WITNESS_SMOKE = (8,)


def _witness_case(rng, size):
    dims = WITNESS_DIMS
    cells = exact.grid(dims)
    full_rank = sum(dims) - len(dims) + 1
    while True:
        a, b = sorted(rng.sample(range(len(dims)), 2))
        i2 = rng.sample(range(1, dims[a] + 1), 2)
        j2 = rng.sample(range(1, dims[b] + 1), 2)
        base = [rng.randint(1, d) for d in dims]
        square = []
        for i in i2:
            for j in j2:
                e = list(base)
                e[a], e[b] = i, j
                square.append(tuple(e))
        rest = [c for c in cells if c not in square]
        observed = square + rng.sample(rest, size - 4)
        # Full rank fixes how many column subsets the circuit listing scans.
        if exact.Span(exact.incidence_column(dims, e) for e in observed).dim == full_rank:
            break
    factors = random_factors(rng, dims)
    entries = {e: outer(factors, e) for e in observed}
    entries[square[rng.randrange(4)]] *= rng.choice((2, 3, Fraction(1, 2)))
    if exact.binomial_holds(entries, square, (1, -1, -1, 1)):
        raise RuntimeError("scaled square still satisfies its binomial")
    return {"dims": dims, "entries": entries, "doc": document(dims, entries)}


class Witness(Workload):
    name = "witness"

    def cases(self, rng, smoke):
        return [_witness_case(rng, s) for s in (WITNESS_SMOKE if smoke else WITNESS_SIZES)]

    def check(self, case, report):
        dims, entries = case["dims"], case["entries"]
        p = []
        _problem(p, report.complex_completable is False, "reported complex-completable")
        c = report.failing_circuit
        if c is None:
            return p + ["no failing circuit"]
        support, vector = tuple(map(tuple, c.support)), tuple(int(u) for u in c.vector)
        _problem(p, len(support) == len(vector) >= 2, "circuit shape")
        _problem(p, len(set(support)) == len(support) and set(support) <= set(entries), "support outside E")
        g = 0
        for u in vector:
            g = gcd(g, u)
        _problem(p, g == 1 and all(vector), "vector not primitive with full support")
        _problem(p, exact.integer_kernel_relation_holds(dims, support, vector), "not a kernel vector")
        _problem(p, not exact.binomial_holds(entries, support, vector), "binomial holds")
        return p


# ---------------------------------------------------------------------------
# complete: completions of patterns that recur with several value sets
# ---------------------------------------------------------------------------

COMPLETE_DIMS = (3, 3, 3)
COMPLETE_PATTERNS = ("even", "even", "odd")  # index parity of each pattern
COMPLETE_VALUE_SETS = 3
COMPLETE_SMOKE = (("even",), 2)


def _complete_pattern(rng, parity):
    dims = COMPLETE_DIMS
    cells = exact.grid(dims)
    while True:
        observed = sorted(rng.sample(cells, rng.randint(7, 10)))
        index = exact.saturation_index(dims, observed)
        if (index % 2 == 0) != (parity == "even"):
            continue
        unknown = sorted(exact.closure(dims, observed) - set(observed))
        if len(unknown) >= 2:
            return observed, unknown, index


class Complete(Workload):
    name = "complete"

    def cases(self, rng, smoke):
        parities, repeats = COMPLETE_SMOKE if smoke else (COMPLETE_PATTERNS, COMPLETE_VALUE_SETS)
        dims = COMPLETE_DIMS
        out = []
        for parity in parities:
            observed, unknown, index = _complete_pattern(rng, parity)
            for _ in range(repeats):
                factors = random_factors(rng, dims)
                full = {c: outer(factors, c) for c in exact.grid(dims)}
                entries = {e: full[e] for e in observed}
                out.append({
                    "dims": dims, "entries": entries, "full": full, "unknown": unknown,
                    "index": index, "doc": document(dims, entries),
                })
        return out

    def load(self, rk, case):
        return rk.io.tensor_from_document(case["doc"]), case["unknown"]

    def run(self, rk, loaded):
        tensor, unknown = loaded
        completions = rk.enumerate_real_completions(tensor)
        values = [rk.complete_entry(tensor, idx) for idx in unknown]
        return completions, dict(zip(unknown, values)), rk.count_complex_completions(tensor)

    def check(self, case, out):
        completions, entry_values, count = out
        dims, entries, full, unknown = case["dims"], case["entries"], case["full"], case["unknown"]
        p = []
        _problem(p, count == case["index"], "count_complex_completions differs from Smith index")
        _problem(p, 1 <= len(completions) <= count, "number of completions")
        generating = False
        for c in completions:
            _problem(p, sorted(c.values) == unknown, "completion covers other entries")
            if sorted(c.values) != unknown:
                continue
            generating |= all(_value_is(c.values[i], full[i], entries) for i in unknown)
            _problem(p, all(_value_is(c.witness[e], v, entries) for e, v in entries.items()),
                     "witness does not restrict to the observed entries")
            _problem(p, _rank_one(dims, c.witness, entries), "witness has a nonzero minor")
        _problem(p, generating, "generating tensor is not among the completions")
        for idx, vals in entry_values.items():
            _problem(p, any(_value_is(v, full[idx], entries) for v in vals),
                     f"complete_entry misses the generating value at {idx}")
        return p


def _value_is(m, value: Fraction, base: dict) -> bool:
    """Exact test that a published value (sign, exponents) equals value."""
    if isinstance(m, Fraction):
        return m == value
    if value == 0 or m.sign != (1 if value > 0 else -1):
        return False
    k = exact.clearing_multiple(m.exponents)
    return exact.monomial_power(m.exponents, base, k) == abs(value) ** k


def _rank_one(dims, witness: dict, base: dict) -> bool:
    """Every 2x2 minor of every flattening vanishes (single-axis exchanges).

    Entries are compared as (sign, integer exponent vector) pairs; equal
    vectors give equal values, and unequal ones are compared by value.
    """
    obs = sorted(base)
    k = exact.clearing_multiple(*(w.exponents for w in witness.values() if not isinstance(w, Fraction)))
    enc = {
        c: None if isinstance(w, Fraction) else
        (w.sign, tuple(int(Fraction(w.exponents.get(e, 0)) * k) for e in obs))
        for c, w in witness.items()
    }
    cells = exact.grid(dims)
    for a, u in enumerate(cells):
        for v in cells[a + 1:]:
            for j in range(len(dims)):
                if u[j] == v[j]:
                    continue
                u2 = u[:j] + (v[j],) + u[j + 1:]
                v2 = v[:j] + (u[j],) + v[j + 1:]
                left, right = (enc[u], enc[v]), (enc[u2], enc[v2])
                if None in left or None in right:
                    if (None in left) != (None in right):
                        return False
                    continue
                if left[0][0] * left[1][0] != right[0][0] * right[1][0]:
                    return False
                diff = [p + q - r - s for p, q, r, s in zip(left[0][1], left[1][1], right[0][1], right[1][1])]
                if any(diff):
                    if exact.monomial_power({e: Fraction(x, k) for e, x in zip(obs, diff)}, base, k) != 1:
                        return False
    return True


# ---------------------------------------------------------------------------
# region: diagonal descriptions, antidiagonal membership, Jacobian factors
# ---------------------------------------------------------------------------

SLOW_FORMATS = ((2, 5), (2, 6))
REGION_FORMATS = tuple(
    (n, d) for d in range(1, 7) for n in range(2, 65) if n**d <= 64 and (n, d) not in SLOW_FORMATS
)
REGION_SMOKE_FORMATS = ((2, 1), (2, 2), (3, 2), (2, 3))
JACOBIAN_DIMS = ((2, 2, 2), (3, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3))
ANTIDIAG_POINTS = 40
JACOBIAN_TRIALS = 20
MARGIN = 1e-6


def _rational(rng, lo=1, hi=12):
    return Fraction(rng.randint(lo, hi), rng.randint(hi, 4 * hi))


def _diagonal_points(rng, n, d):
    """Two points x = y**n (one on the boundary) and two generic points."""
    pts = []
    y = [_rational(rng) / d for _ in range(d - 1)]
    y.append(1 - sum(y))
    pts.append(([v**n for v in y], True))
    y = [_rational(rng, 1, 9) * Fraction(rng.choice((3, 5)), 2 * d) for _ in range(d)]
    pts.append(([v**n for v in y], sum(y) <= 1))
    while len(pts) < 4:
        scale = rng.choice((0.8, 1.25))
        r = [rng.random() + 0.05 for _ in range(d)]
        total = sum(r)
        x = [Fraction(scale * v / total) ** n for v in r]
        x = [v.limit_denominator(10**12) for v in x]
        gap = exact.root_sum_minus_one(x, n)
        if abs(gap) > MARGIN:
            pts.append((x, gap < 0))
    return pts


def _jacobian_pattern(rng, dims):
    cells = exact.grid(dims)
    m = sum(d - 1 for d in dims)
    labels = [(j, k) for j, d in enumerate(dims, start=1) for k in range(1, d)]
    while True:
        observed = rng.sample(cells, m)
        used = {(j + 1, i) for e in observed for j, i in enumerate(e)}
        if len(used) != sum(dims):
            continue  # some maximal slice is never observed
        rows = [[1 if e[j - 1] == k else 0 for j, k in labels] + [1] for e in observed]
        if exact.Span(rows).dim == m:
            return observed


class Region(Workload):
    name = "region"

    def __init__(self):
        self.antidiag = []

    def cases(self, rng, smoke):
        formats = REGION_SMOKE_FORMATS if smoke else REGION_FORMATS
        diag = [(n, d, _diagonal_points(rng, n, d)) for n, d in formats]
        anti = []
        while len(anti) < (8 if smoke else ANTIDIAG_POINTS):
            # Sums below 0.7 give a mix of members and non-members.
            s = Fraction(rng.randint(1, 70), 100)
            w = [rng.randint(1, 20) for _ in range(3)]
            anti.append(tuple(s * v / sum(w) for v in w))
        jac = [(dims, _jacobian_pattern(rng, dims), rng.randrange(10**6)) for dims in JACOBIAN_DIMS]
        checks = [rng.randrange(10**6) for _ in jac]
        return [{"diag": diag, "anti": anti, "jac": jac, "check_seeds": checks}]

    def load(self, rk, case):
        return case

    def run(self, rk, case):
        _clear_cache(rk.build_description)  # every operation expands each format afresh
        diag = []
        for n, d, pts in case["diag"]:
            rk.build_description(n, d)
            diag.append([rk.diagonal_membership(n, d, x) for x, _ in pts])
        anti = [rk.simplex_membership_antidiag222(*pt) for pt in case["anti"]]
        jac = []
        for dims, observed, seed in case["jac"]:
            param = rk.simplex_parametrization(rk.IndexDomain(dims), observed)
            fact = rk.linear_factor(param)
            jac.append((fact, rk.jacobian_identity_check(param, fact, trials=JACOBIAN_TRIALS, seed=seed)))
        return diag, anti, jac

    def check(self, case, out):
        diag, anti, jac = out
        p = []
        for (n, d, pts), got in zip(case["diag"], diag):
            for (x, member), verdict in zip(pts, got):
                _problem(p, verdict == member, f"diagonal ({n},{d}) at {[fmt(v) for v in x]}")
        self.antidiag.extend(zip(case["anti"], anti))
        for (dims, observed, _), (fact, ok), seed in zip(case["jac"], jac, case["check_seeds"]):
            _problem(p, ok is True, f"identity check failed for {dims}")
            _problem(p, _factorization_holds(dims, observed, fact, seed), f"det(J) differs for {dims}")
        return p

    def finish(self):
        """Antidiagonal verdicts against sympy's root count of the cubic."""
        import sympy

        x = sympy.Symbol("x")
        p = []
        for (a, b, c), verdict in self.antidiag:
            e1, e2, e3 = a + b + c, a * b + a * c + b * c, a * b * c
            cubic = sympy.Poly(
                x**3 + sympy.Rational(e1 - 1) * x**2 + sympy.Rational(e2) * x + sympy.Rational(e3), x
            )
            # Every e3 > 0, so no root sits at 0 and [0, 1] counts (0, 1].
            member = int(cubic.count_roots(0, 1)) >= 1
            _problem(p, verdict == member, f"antidiagonal at {fmt(a)}, {fmt(b)}, {fmt(c)}")
        self.antidiag.clear()
        return p


def _clear_cache(fn) -> None:
    """Empty the lru_cache of fn, also when a traced wrapper hides it."""
    while fn is not None:
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
            return
        fn = getattr(fn, "__wrapped__", None)


def _factorization_holds(dims, observed, fact, seed) -> bool:
    """det(J) == linear factor * prod form**(alpha - 1) at own random points."""
    rng = random.Random(seed)
    alpha = {}
    for e in observed:
        for j, i in enumerate(e, start=1):
            alpha[(j, i)] = alpha.get((j, i), 0) + 1
    lf = fact.linear_factor
    names = [tuple(int(s) for s in v[2:].split("_")) for v in lf.variables]
    for _ in range(5):
        point = {
            (j, k): Fraction(rng.randint(-500, 500), rng.randint(1, 30))
            for j, d in enumerate(dims, start=1) for k in range(1, d)
        }
        forms = dict(point)
        for j, d in enumerate(dims, start=1):
            forms[(j, d)] = 1 - sum(point[(j, k)] for k in range(1, d))
        rhs = sum(
            (Fraction(c) * prod((point[names[v]] ** x for v, x in enumerate(exps) if x), start=Fraction(1))
             for exps, c in lf.terms.items()),
            start=Fraction(0),
        )
        for jk, a in alpha.items():
            rhs *= forms[jk] ** (a - 1)
        if exact.jacobian_determinant(dims, observed, point) != rhs:
            return False
    return True


WORKLOADS = {w.name: w for w in (Decide, Witness, Complete, Region)}
