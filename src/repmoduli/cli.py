"""Batch verification driver.

Runs the exact and numerical check suites over selected group families and
writes a machine-readable report.  Exit status: 0 when every record passes,
1 on a check failure, 2 on a usage error.  Every flag can be preset through
an environment variable with the REPMODULI_ prefix (e.g. REPMODULI_SEED).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone

# one BLAS thread unless the user chose otherwise: the matrices here are at
# most 63 x 63, too small for threads to pay; set before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import __version__  # noqa: E402
from .chars import (  # noqa: E402
    TableMismatch, check_column_orthogonality, check_row_orthogonality,
    centralizer_checks, rho0_character, table_for, theta_balance,
)
from .groups import (  # noqa: E402
    _prime_power, build_subgroup, first, psl2_model, stored_fusion,
    fusion_table,
)
from .numerics import Tolerances  # noqa: E402
from .oscomplex import (  # noqa: E402
    brown_presentation, build_orbit_graph, moduli_dimension_report,
    euler_identity,
)

ENV_PREFIX = "REPMODULI_"
ALL_CHECKS = ("tables", "fusion", "centralizers", "moduli-dim", "euler",
              "brown", "numerics")
NUMERICS_BOUND = 83     # the largest q whose numerics run


class UsageError(ValueError):
    pass


@dataclass
class VerificationConfig:
    family: str
    qs: list
    k: int = 0
    checks: tuple = ALL_CHECKS
    seed: int = 0
    tol: Tolerances = field(default_factory=Tolerances)
    fmt: str = "json"
    out: str = ""


@dataclass
class Record:
    name: str
    anchor: str
    inputs: str
    expected: str
    computed: str
    passed: bool
    millis: int

    def to_json(self):
        return {"name": self.name, "anchor": self.anchor,
                "inputs": self.inputs, "expected": self.expected,
                "computed": self.computed, "pass": self.passed,
                "millis": self.millis}


@dataclass
class VerificationReport:
    header: dict
    records: list

    @property
    def ok(self):
        return all(r.passed for r in self.records)

    def to_json(self):
        return {"header": self.header,
                "records": [r.to_json() for r in self.records],
                "pass": self.ok}

    def to_text(self):
        lines = [f"repmoduli {self.header['version']} "
                 f"seed={self.header['seed']}"]
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status} {r.name} expected={r.expected} "
                         f"computed={r.computed} ({r.millis} ms)")
        lines.append("OVERALL " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def classify_q(family, q):
    """Map (family, q) to the internal table family; UsageError if invalid."""
    if family in ("psl2", "sz"):
        try:
            p, n = _prime_power(q)
        except ValueError:
            p, n = 0, 0
    if family == "psl2":
        if p == 2 and n >= 2:
            return "psl2_even"
        if p > 2 and q % 8 == 3 and q > 3:
            return "psl2_odd"
        raise UsageError(f"q={q} is not in scope for PSL2 "
                         "(need 2^n, n>=2, or a prime power = 3 mod 8)")
    if family == "sz":
        if p == 2 and n >= 3 and n % 2 == 1:
            return "sz"
        raise UsageError(f"q={q} is not in scope for Sz (need 2^n, odd n>=3)")
    if family == "dihedral":
        if q % 2 == 1 and q >= 3:
            return "dihedral"
        raise UsageError("dihedral tables need an odd n >= 3")
    if family == "cyclic":
        if q >= 1:
            return "cyclic"
        raise UsageError("cyclic tables need n >= 1")
    raise UsageError(f"unknown family {family!r}")


class PrerequisiteFailed(RuntimeError):
    """An input that a record needs could not be built."""


def _error(e):
    return f"error: {type(e).__name__}: {e}"


def _guarded(name, anchor, inputs, expected, compute):
    """The record of compute(), which passes when str(compute()) equals
    str(expected), timed alone.  An exception that compute raises fails
    this record and no other."""
    t0 = time.perf_counter()
    try:
        computed = str(compute())
        passed = computed == str(expected)
    except Exception as e:
        computed, passed = _error(e), False
    return Record(name, anchor, inputs, str(expected), computed, passed,
                  int((time.perf_counter() - t0) * 1000))


def _prerequisite(what, build):
    """A getter for build(), which runs on first use.  If build raised,
    every use raises PrerequisiteFailed naming `what` and that error."""
    memo = []

    def get():
        if not memo:
            try:
                memo.append((build(), None))
            except Exception as e:
                memo.append((None, f"{what} failed: "
                                   f"{type(e).__name__}: {e}"))
        value, failure = memo[0]
        if failure is not None:
            raise PrerequisiteFailed(failure)
        return value
    return get


def _skip(name, anchor, inputs, reason):
    return Record(name, anchor, inputs, "skipped", reason, True, 0)


def _table_stack(fam, q):
    """(family, q) of every table that the tables check builds."""
    if fam == "psl2_odd":
        return [("sl2_odd", q), ("psl2_odd", q)]
    return [(fam, 2 * q if fam == "dihedral" else q)]


def _orthogonal(check, table):
    """True, or the first mismatch the orthogonality check raises."""
    try:
        return check(table)
    except TableMismatch as e:
        return f"mismatch: {e}"


def check_tables(fam, q, cfg):
    return [_guarded(f"tables/{kind}/{family}-q{n}",
                     f"tables/orthogonality/{family}-q{n}",
                     f"{family} q={n}", True,
                     lambda family=family, n=n, check=check:
                     _orthogonal(check, table_for(family, n)))
            for family, n in _table_stack(fam, q)
            for kind, check in (("rows", check_row_orthogonality),
                                ("columns", check_column_orthogonality))]


def check_fusion(fam, q, cfg):
    name = f"fusion/{fam}-q{q}"
    if fam not in ("psl2_even", "psl2_odd"):
        return [_skip(name, name, f"q={q}", "skipped: class-data model")]
    # a row per distinct stabilizer of the orbit graph
    graph = build_orbit_graph(fam, q)
    rows = list(dict.fromkeys((c.sub.tag, c.sub.param)
                              for c in graph.vertices + graph.edges))

    def run():
        model = psl2_model(q)
        bad = [tag for tag, param in rows
               if fusion_table(model, build_subgroup(model, tag, param)) !=
               stored_fusion(fam, q, tag, param, model.class_labels)]
        return f"mismatch at {bad}" if bad else \
            f"{len(rows)} subgroup rows equal"

    return [_guarded(name, name, f"q={q}",
                     f"{len(rows)} subgroup rows equal", run)]


def check_centralizers(fam, q, cfg):
    if fam == "dihedral":
        return [_guarded(f"centralizers/theta-balance-n{q}",
                         f"theta-balance/dihedral-n{q}", f"n={q}",
                         (True, True), lambda: theta_balance(q))]
    if fam == "cyclic":
        return [_skip(f"centralizers/cyclic-n{q}", "centralizers/cyclic",
                      f"n={q}", "skipped: no distinguished character")]
    return [_guarded(f"centralizers/{fam}-q{q}/{part}",
                     f"centralizers/{fam}/part-{part}", f"q={q}",
                     expected, compute)
            for part, expected, compute in
            centralizer_checks(table_for(fam, q))]


def _dimensions(rep):
    return f"dim {rep.dim_quotient}, " + ("equal" if rep.equal else "unequal")


def check_moduli_dim(fam, q, cfg):
    if fam not in ("psl2_even", "psl2_odd", "sz"):
        return [_skip(f"moduli-dim/{fam}-q{q}", "moduli-dim", f"q={q}",
                      "skipped: no orbit graph for this family")]
    table = table_for(fam, q)
    degree = rho0_character(table).degree
    # expected: the paper's target (k + 1) deg(rho0)^2, computed apart from
    # the report under check
    return [_guarded(f"moduli-dim/{fam}-q{q}/k{k}", f"moduli-dim/{fam}",
                     f"q={q} k={k}", f"dim {(k + 1) * degree ** 2}, equal",
                     lambda k=k: _dimensions(moduli_dimension_report(
                         build_orbit_graph(fam, q, k=k), table)))
            for k in range(4)]


def check_euler(fam, q, cfg):
    name = f"euler/{fam}-q{q}"
    if fam not in ("psl2_even", "psl2_odd", "sz"):
        return [_skip(name, name, f"q={q}",
                      "skipped: no orbit graph for this family")]
    table = table_for(fam, q)
    n = len(table.chars)

    def run():
        # equal class weights are the relation for every ordered pair
        lhs, rhs = euler_identity(build_orbit_graph(fam, q), table)
        for label, a, b in zip(table.labels, lhs, rhs):
            if a != b:
                return f"fails at ({label}): class weight {a} != {b}"
        return f"{n * n} ordered pairs equal"

    return [_guarded(name, name, f"q={q}, one free 2-cell orbit",
                     f"{n * n} ordered pairs equal", run)]


def check_brown(fam, q, cfg):
    name = f"brown/{fam}-q{q}"
    if fam not in ("psl2_even", "psl2_odd"):
        return [_skip(name, name, f"q={q}", "skipped: class-data model")]
    # a type (i) relation per tree edge, |G_e| of type (ii) per edge
    expected = sum(e.in_tree + e.sub.order
                   for e in build_orbit_graph(fam, q, k=cfg.k).edges)

    def run():
        model = psl2_model(q)
        # brown_presentation raises unless every conjugated edge stabilizer
        # lies in its target vertex group
        pres = brown_presentation(
            build_orbit_graph(fam, q, k=cfg.k, model=model), model)
        return f"{len(pres.relations())} relations verified"

    return [_guarded(name, name, f"q={q} k={cfg.k}",
                     f"{expected} relations verified", run)]


def check_numerics(fam, q, cfg):
    base = f"numerics/{fam}-q{q}"
    if fam == "sz":
        return [_skip(base, base, f"q={q}", "skipped: class-data model")]
    if fam not in ("psl2_even", "psl2_odd"):
        return [_skip(base, base, f"q={q}",
                      "skipped: no distinguished character")]
    if q > NUMERICS_BOUND:
        return [_skip(base, base, f"q={q}",
                      "skipped: beyond numerics bound")]

    import numpy as np
    from .chars import centralizer_dim, fusion_for
    from .numerics import (
        commutant_rank, gauge_defect, identity_moduli_point,
        realize_irreducible, rho_tau_eval, spectral_split,
        word_differential_checks,
    )
    from .oscomplex import random_closed_path, random_kernel_word, random_word

    records = []
    seed = cfg.seed
    inputs = f"q={q} seed={seed}"
    table = table_for(fam, q)
    target = rho0_character(table)
    model = psl2_model(q)
    tol = cfg.tol

    def record(part, anchor, expected, compute):
        records.append(_guarded(f"{base}/{part}", f"{base}/{anchor}", inputs,
                                expected, compute))

    realized = _prerequisite("realization", lambda: realize_irreducible(
        model, table, target, seed=seed, tol=tol))

    def presentation():
        graph = build_orbit_graph(fam, q, k=cfg.k, model=model)
        return graph, brown_presentation(graph, model)

    setting = _prerequisite("orbit graph", presentation)

    # realize_irreducible raises ToleranceExceeded on any defect above tol
    record("realization", "realization",
           f"degree {target.degree}, defects within tolerance",
           lambda: f"degree {realized().degree}, defects within tolerance")

    def spectral():
        rep, (graph, _) = realized(), setting()
        ghat0 = first(graph.edges[0].sub.elements,
                      lambda g: model.element_order(g) ==
                      graph.edges[0].sub.order)
        ghat1 = first(graph.edges[1].sub.elements,
                      lambda g: model.element_order(g) == 2)
        _, m0 = spectral_split(rep, ghat0, tol=tol)
        _, m1 = spectral_split(rep, ghat1, tol=tol)
        return sorted(m0.values()), (m1.get(0, 0), m1.get(1, 0))

    if fam == "psl2_even":
        expect = ([1] * (q - 1), (q // 2 - 1, q // 2))
    else:
        expect = ([1] * ((q - 1) // 2), ((q + 1) // 4, (q - 3) // 4))
    record("spectral", "spectral-multiplicities", expect, spectral)

    def stabilizers():
        graph, _ = setting()
        return [node.sub for node in list(graph.vertices) +
                [e for e in graph.edges if not e.free]]

    exact_ranks = _prerequisite("centralizer dimensions", lambda: [
        centralizer_dim(target, fusion_for(table, sub))
        for sub in stabilizers()])

    def ranks():
        rep = realized()
        return [commutant_rank(rep, sub.elements, seed=seed + exact, tol=tol)
                for sub, exact in zip(stabilizers(), exact_ranks())]

    try:
        expected_ranks = exact_ranks()
    except PrerequisiteFailed as e:
        expected_ranks = str(e)
    record("commutant-ranks", "commutant-ranks", expected_ranks, ranks)

    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)

    def gauge_invariance():
        rep, (graph, pres) = realized(), setting()
        words = [[random_word(pres, rng, 6) for _ in range(50)]
                 for _ in range(20)]
        worst = gauge_defect(pres, rep, nrng, words, tol)
        return "within tolerance" if worst <= tol.moduli_word \
            else f"defect {worst:.2e}"

    def universal_point():
        # draws from `rng` after gauge_invariance, as one sequence
        rep, (graph, pres) = realized(), setting()
        one = identity_moduli_point(graph, rep.degree)
        words = [random_kernel_word(pres, rng) for _ in range(100)]
        universal = np.max(np.abs(rho_tau_eval(pres, rep, one, words) -
                                  np.eye(rep.degree)))
        return "within tolerance" if universal <= tol.universal \
            else f"defect {universal:.2e}"

    def differential():
        rep, (graph, pres) = realized(), setting()
        rng = random.Random(seed + 1)
        paths = [random_closed_path(graph, rng) for _ in range(10)]
        worst_rel = 0.0
        for f, _, err in word_differential_checks(
                pres, rep, paths, range(seed, seed + 10), tol=tol):
            worst_rel = np.maximum(worst_rel,
                                   err / (1 + float(np.max(np.abs(f)))))
        return "within tolerance" if worst_rel <= tol.jacobian_rel \
            else f"relative error {worst_rel:.2e}"

    record("gauge-invariance", "gauge-invariance", "within tolerance",
           gauge_invariance)
    record("universal-point", "universal-point", "within tolerance",
           universal_point)
    record("word-differential", "word-differential", "within tolerance",
           differential)
    return records


CHECK_RUNNERS = {
    "tables": check_tables,
    "fusion": check_fusion,
    "centralizers": check_centralizers,
    "moduli-dim": check_moduli_dim,
    "euler": check_euler,
    "brown": check_brown,
    "numerics": check_numerics,
}


def run(cfg: VerificationConfig) -> VerificationReport:
    """Every check of every q, one q after another on one thread.
    psl2_model keeps the matrix model of the latest q, so the checks of a
    q share one model."""
    records = []
    for q in cfg.qs:
        fam = classify_q(cfg.family, q)
        for check in cfg.checks:
            try:
                records += CHECK_RUNNERS[check](fam, q, cfg)
            except Exception as e:      # a crashed check is a failing record
                records.append(Record(
                    f"{check}/{fam}-q{q}", f"{check}/{fam}-q{q}", f"q={q}",
                    "completes", _error(e), False, 0))
    records.sort(key=lambda r: r.name)
    header = {
        "version": __version__,
        "seed": cfg.seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "family": cfg.family,
        "q": list(cfg.qs),
        "k": cfg.k,
        "checks": list(cfg.checks),
    }
    return VerificationReport(header, records)


def _env_default(name, fallback=None):
    return os.environ.get(ENV_PREFIX + name, fallback)


def build_parser():
    p = argparse.ArgumentParser(
        prog="repmoduli",
        description="exact and numerical verification batches over "
                    "PSL2(q), Sz(q), dihedral and cyclic tables")
    p.add_argument("--family", default=_env_default("FAMILY"),
                   choices=["psl2", "sz", "dihedral", "cyclic"],
                   required=_env_default("FAMILY") is None)
    p.add_argument("--q", default=_env_default("Q"), required=_env_default("Q") is None,
                   help="comma-separated list of q values (or n for "
                        "dihedral/cyclic)")
    p.add_argument("--k", type=int, default=_env_default("K", "0"),
                   help="free edge orbits attached at the root")
    p.add_argument("--checks", default=_env_default("CHECKS", ",".join(ALL_CHECKS)),
                   help="comma-separated subset of: " + ", ".join(ALL_CHECKS))
    p.add_argument("--seed", type=int, default=_env_default("SEED", "0"))
    p.add_argument("--tol", action="append", default=None,
                   metavar="NAME=VALUE",
                   help="tolerance override, repeatable "
                        "(e.g. --tol character=1e-5)")
    p.add_argument("--format", dest="fmt",
                   default=_env_default("FORMAT", "json"),
                   choices=["json", "text"])
    p.add_argument("--out", default=_env_default("OUT", ""),
                   help="output path (default: stdout)")
    p.add_argument("--jobs", type=int, default=_env_default("JOBS", "1"),
                   help="must be 1: the checks run on one thread")
    return p


def parse_config(argv=None) -> VerificationConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            qs = [int(x) for x in str(args.q).split(",") if x != ""]
        except ValueError:
            raise UsageError(f"q must be comma-separated integers, "
                             f"got {args.q!r}")
        if not qs:
            raise UsageError("no q values given")
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        for c in checks:
            if c not in ALL_CHECKS:
                raise UsageError(f"unknown check {c!r}")
        tol = Tolerances()
        env_tol = _env_default("TOL")
        tol_args = list(args.tol or ([env_tol] if env_tol else []))
        for spec in tol_args:
            name, _, value = spec.partition("=")
            if name not in {f.name for f in fields(Tolerances)}:
                raise UsageError(f"unknown tolerance {name!r}")
            try:
                v = float(value)
            except ValueError:
                raise UsageError(f"tolerance {name} needs a number, "
                                 f"got {value!r}")
            if not (math.isfinite(v) and v > 0):
                raise UsageError("tolerances must be finite and positive")
            tol = replace(tol, **{name: v})
        if args.k < 0:
            raise UsageError("k must be >= 0")
        if args.jobs != 1:
            raise UsageError("--jobs must be 1: the checks run on one thread")
        cfg = VerificationConfig(args.family, qs, args.k, checks, args.seed,
                                 tol, args.fmt, args.out)
        for q in qs:
            classify_q(cfg.family, q)
        return cfg
    except UsageError as e:
        parser.error(str(e))


def main(argv=None):
    cfg = parse_config(argv)
    report = run(cfg)
    payload = json.dumps(report.to_json(), indent=2) if cfg.fmt == "json" \
        else report.to_text()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
