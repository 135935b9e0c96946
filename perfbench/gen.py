"""Seeded inputs for the benchmark workloads.

Everything here is pure and stdlib-only: the same seed gives the same
inputs, and nothing calls into ``qcblowup``.  Classes are drawn from the
staircase of the coordinate system they are posed in, written down in
closed form below (the test suite checks the closed form against the
program's own staircases), so the inputs do not depend on the code being
measured.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

#: Instances of the gw-session working set (the ROADMAP ladder).
LADDER = ((8, 1), (11, 3), (16, 5), (20, 4))
#: Instances of the cli-oneshot sweep; larger ones are measured by the
#: other two workloads.
SWEEP_INSTANCES = ((4, 0), (6, 1), (8, 1), (11, 3))

#: gw-session: queries per instance in one pass, of which BLOWUP_PER_PASS
#: are posed in blow-up coordinates (one query in ten).
QUERIES_PER_INSTANCE = 30
BLOWUP_PER_PASS = 3
#: Timed passes per second of ``--seconds`` (a pass takes about half a
#: second at the baseline).
PASSES_PER_SECOND = 2
#: Timed passes generated: those of a run of BENCHMARK.json's run_seconds.
#: A longer run starts over at the first pass.
SESSION_PASSES = PASSES_PER_SECOND * json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
#: Seed of the pass shapes: the coordinates, class degrees, curve class and
#: term counts of every query slot of a pass.  A query's cost follows its
#: shape, so fixing the shapes gives every run the same mix of costly and
#: cheap queries; the run's seed draws the classes and the order.
SHAPE_SEED = 0
#: Untimed passes first, so that the normal-form memos are filled.
WARMUP_PASSES = 12
SAMPLE_PER_INSTANCE = 6

#: cli-oneshot: sweeps generated per seed.
CLI_SWEEPS = 3

#: The seed whose program outputs are recorded in expected.json.
DEFAULT_SEED = 1

VARS = {"bundle": ("xi", "h"), "blowup": ("k", "eta")}


def dims(m: int, p: int) -> tuple[int, int, int]:
    """(n, r, top degree) of the blow-up of P^m along P^p."""
    n, r = m - p - 1, p + 2
    return n, r, n + r - 1


def staircase(m: int, p: int, coords: str) -> list[tuple[int, int]]:
    """Exponent pairs of the staircase monomials, in the variable order of
    ``VARS[coords]``.

    Bundle (xi, h): xi^b h^a with b < r and a <= n, cut out by the leading
    terms xi^r and h^(n+1).  Blow-up (k, eta): k^a for a <= n, and
    k^a eta^b for a <= p and 1 <= b <= m - 2a, cut out by k^(n+1),
    k^(p+1) eta and k^a eta^(m+1-2a).
    """
    n, r, _ = dims(m, p)
    if coords == "bundle":
        return [(b, a) for b in range(r) for a in range(n + 1)]
    if coords == "blowup":
        return [(a, 0) for a in range(n + 1)] + [
            (a, b) for a in range(p + 1) for b in range(1, m - 2 * a + 1)
        ]
    raise ValueError(f"unknown coordinates {coords!r}")


def _by_degree(monos: list[tuple[int, int]]) -> dict[int, list[tuple[int, int]]]:
    out: dict[int, list[tuple[int, int]]] = {}
    for mono in monos:
        out.setdefault(sum(mono), []).append(mono)
    return out


def render(terms: list[tuple[int, tuple[int, int]]], names: tuple[str, str]) -> str:
    """Canonical-format text of a sum of coefficient * monomial terms."""
    pieces = []
    for coeff, mono in terms:
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e
        ]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        sign = "-" if coeff < 0 else "+"
        pieces.append((sign, "*".join(factors)))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def draw_class(rng: random.Random, monos: list[tuple[int, int]], names, terms: int) -> str:
    """An integer combination of ``terms`` (at most all) of ``monos`` with
    coefficients in +-{1, 2, 3}."""
    chosen = rng.sample(monos, min(terms, len(monos)))
    return render([(rng.choice((-3, -2, -1, 1, 2, 3)), mono) for mono in chosen], names)


def admissible_curves(m: int, p: int, da: int, db: int) -> list[tuple[int, int]]:
    """Curve classes (a, b) whose degree budget da + db - (r a + n b) lies
    in 0..top, so that a third class of the complementary degree exists."""
    n, r, top = dims(m, p)
    total = da + db
    return [
        (a, b)
        for a in range(total // r + 1)
        for b in range(total // n + 1)
        if 0 <= total - (r * a + n * b) <= top
    ]


def draw_query(rng: random.Random, m: int, p: int, coords: str,
               shape: random.Random | None = None) -> dict:
    """One admissible three-point query posed in ``coords``.  ``shape``
    (default ``rng``) draws the degrees of the first two classes, the curve
    class and the term count of each class; ``rng`` draws the monomials and
    coefficients."""
    shape = shape or rng
    n, r, top = dims(m, p)
    names = VARS[coords]
    by_deg = _by_degree(staircase(m, p, coords))
    da, db = shape.randint(1, top), shape.randint(1, top)
    a, b = shape.choice(admissible_curves(m, p, da, db))
    dg = top - (da + db - (r * a + n * b))
    terms = [shape.randint(1, 3) for _ in range(3)]
    return {
        "m": m,
        "p": p,
        "coords": coords,
        "curve": [a, b],
        "alpha": draw_class(rng, by_deg[da], names, terms[0]),
        "beta": draw_class(rng, by_deg[db], names, terms[1]),
        "gamma": draw_class(rng, by_deg[dg], names, terms[2]),
    }


def session_inputs(seed: int) -> dict:
    """gw-session inputs: WARMUP_PASSES untimed passes, SESSION_PASSES timed passes and the
    indices (into the first timed pass) of the Frobenius-symmetry sample.

    Each pass holds QUERIES_PER_INSTANCE queries per ladder instance, exactly
    BLOWUP_PER_PASS of them in blow-up coordinates, shuffled together, so
    every pass has the same mix whatever the seed; the shapes of its
    queries come from SHAPE_SEED.
    """
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)

    def one_pass() -> list[dict]:
        queries = []
        for m, p in LADDER:
            kinds = ["blowup"] * BLOWUP_PER_PASS + ["bundle"] * (
                QUERIES_PER_INSTANCE - BLOWUP_PER_PASS
            )
            queries += [draw_query(rng, m, p, coords, shape) for coords in kinds]
        rng.shuffle(queries)
        return queries

    warmup = [q for _ in range(WARMUP_PASSES) for q in one_pass()]
    passes = [one_pass() for _ in range(SESSION_PASSES)]
    sample = []
    for m, p in LADDER:
        own = [i for i, q in enumerate(passes[0]) if (q["m"], q["p"]) == (m, p)]
        sample += sorted(rng.sample(own, SAMPLE_PER_INSTANCE))
    return {"ladder": [list(mp) for mp in LADDER], "warmup": warmup, "passes": passes,
            "sample": sorted(sample)}


def cli_sweeps(seed: int) -> list[list[list[str]]]:
    """cli-oneshot inputs: CLI_SWEEPS sweeps, each the argument lists of one
    ``present`` (blow-up quantum), ``present`` (bundle classical),
    ``integrate``, ``gw`` and ``basis --coords bundle`` command per sweep
    instance, in shuffled order.

    ``integrate`` gets one to three top-degree monomials in xi and h from
    outside the staircase (the staircase has a single top-degree monomial,
    whose integral is read off without reduction).
    """
    rng = random.Random(seed)
    sweeps = []
    for _ in range(CLI_SWEEPS):
        sweep = []
        for m, p in SWEEP_INSTANCES:
            inst = ["--m", str(m), "--p", str(p)]
            n, r, top = dims(m, p)
            tops = [(b, top - b) for b in range(top + 1)]
            q = draw_query(rng, m, p, "bundle")
            sweep += [
                ["present", *inst, "--coords", "blowup", "--quantum", "--json"],
                ["present", *inst, "--coords", "bundle", "--json"],
                ["integrate", *inst,
                 f"--class={draw_class(rng, tops, VARS['bundle'], rng.randint(1, 3))}",
                 "--json"],
                ["gw", *inst, f"--class={q['curve'][0]},{q['curve'][1]}",
                 f"--alpha={q['alpha']}", f"--beta={q['beta']}", f"--gamma={q['gamma']}",
                 "--json"],
                ["basis", *inst, "--coords", "bundle", "--json"],
            ]
        rng.shuffle(sweep)
        sweeps.append(sweep)
    return sweeps


def gw_args_query(args: list[str]) -> dict:
    """The query of a ``gw`` argument list produced by :func:`cli_sweeps`."""
    opts = dict(arg[2:].split("=", 1) for arg in args if "=" in arg)
    m, p = int(args[args.index("--m") + 1]), int(args[args.index("--p") + 1])
    a, b = (int(v) for v in opts["class"].split(","))
    return {"m": m, "p": p, "coords": "bundle", "curve": [a, b],
            "alpha": opts["alpha"], "beta": opts["beta"], "gamma": opts["gamma"]}
