"""Floating-point realization of the distinguished irreducible as unitary
matrices, constructive intertwiners and spectral splits, evaluation of the
induced representation family over the orbit graph, the gauge action, and
finite-difference checks of the word-differential formula.

Everything random is driven by an explicit seed; exact multiplicity data is
computed in the character layer before any floating point happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chars import (
    Character, CharacterTable, attach_model, restriction_from_enumeration,
)
from .groups import (
    IDENTITY, GroupModel, SubgroupSpec, _transvection_generators, closure,
)
from .oscomplex import BrownPresentation, OrbitGraph, path_to_word


class ToleranceExceeded(RuntimeError):
    pass


class ProjectionRankMismatch(RuntimeError):
    pass


class SingularAveraging(RuntimeError):
    pass


class NotIsomorphic(ValueError):
    pass


class WordNotInKernel(ValueError):
    pass


@dataclass(frozen=True)
class Tolerances:
    unitary: float = 1e-8
    homomorphism: float = 1e-8
    character: float = 1e-6
    intertwine: float = 1e-7
    intertwine_unitary: float = 1e-9
    spectral: float = 1e-6
    commutant_svd: float = 1e-6
    moduli_word: float = 1e-7
    universal: float = 1e-8
    action: float = 1e-7
    jacobian_rel: float = 1e-6


TOL = Tolerances()

REALIZE_GROUP_BOUND = 4000
REALIZE_MODULE_BOUND = 1500


def _mnorm(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def _above(x, tol):
    """x > tol, and also true for a NaN x, so that a NaN fails its check."""
    return not x <= tol


def expm(a, tol: Tolerances = TOL):
    """exp(a) for a skew-Hermitian a, as V diag(e^{iw}) V^H from the
    eigenpairs (w, V) of the Hermitian -1j a.  Raises ValueError when a is
    not skew-Hermitian within tol.unitary."""
    if _above(_mnorm(a + a.conj().T), tol.unitary):
        raise ValueError("expm needs a skew-Hermitian matrix")
    w, v = np.linalg.eigh(-1j * a)
    return (v * np.exp(1j * w)) @ v.conj().T


class UnitaryRep:
    """A unitary matrix image for every element of an enumerated group."""

    def __init__(self, model: GroupModel, mats, seed=None):
        self.model = model
        self.degree = next(iter(mats.values())).shape[0]
        self.mats = mats
        self.seed = seed

    def mat(self, g):
        return self.mats[self.model.canonical(g)]

    def homomorphism_defect(self, rng=None, samples=300):
        els = self.model.elements
        if rng is None:
            rng = np.random.default_rng(0)
        worst = []
        for _ in range(samples):
            g = els[rng.integers(len(els))]
            h = els[rng.integers(len(els))]
            worst.append(_mnorm(self.mat(g) @ self.mat(h) -
                                self.mat(self.model.mul(g, h))))
        return float(np.max(worst))

    def unitarity_defect(self):
        eye = np.eye(self.degree)
        return float(np.max([_mnorm(m @ m.conj().T - eye)
                             for m in self.mats.values()]))

    def character_defect(self, target: Character):
        """Worst trace deviation from the exact character, over all elements."""
        exact = {lab: complex(target.value_at(lab).to_complex())
                 for lab in self.model.class_labels}
        return float(np.max([abs(np.trace(m) - exact[self.model.class_of[g]])
                             for g, m in self.mats.items()]))


def _left_cosets(model, gen):
    """The left cosets t_j C of C = <gen>, as (exponents, reps, coset_of):
    gen^e -> e, the representatives t_j, and element -> j."""
    exponents = {g: e for e, g in enumerate(closure(model, [gen]))}
    coset_of = {}
    reps = []
    for g in model.elements:
        if g in coset_of:
            continue
        ci = len(reps)
        reps.append(g)
        for c in exponents:
            coset_of[model.mul(g, c)] = ci
    if len(reps) * len(exponents) != model.order:
        raise ProjectionRankMismatch(
            f"{len(reps)} cosets of a subgroup of order {len(exponents)} "
            f"in a group of order {model.order}")
    return exponents, reps, coset_of


def _monomial(model, cosets, s):
    """(perm, exps) with s t_j = t_perm[j] gen^exps[j], by scalar products."""
    exponents, reps, coset_of = cosets
    perm = np.empty(len(reps), dtype=np.int16)
    exps = np.empty(len(reps), dtype=np.int16)
    for j, t in enumerate(reps):
        st = model.mul(s, t)
        i = coset_of[st]
        perm[j] = i
        exps[j] = exponents[model.mul(model.inv(reps[i]), st)]
    return perm, exps


def _induced_action(model, cosets):
    """(perm, exps) of every element, exactly: the monomials of the
    transvection generators composed along the Cayley graph from 1.

    If s has (perm_s, exps_s) and g has (perm_g, exps_g), then
    s g t_j = s t_{perm_g[j]} gen^{exps_g[j]}, so s g has
    perm_s[perm_g] and exps_s[perm_g] + exps_g (mod the order of gen).
    """
    exponents, reps, _ = cosets
    n, dim = len(exponents), len(reps)
    gens = [(g, _monomial(model, cosets, g))
            for g in _transvection_generators(model.spec)]
    action = {IDENTITY: (np.arange(dim, dtype=np.int16),
                         np.zeros(dim, dtype=np.int16))}
    queue = [IDENTITY]
    while queue:
        x = queue.pop()
        perm_x, exps_x = action[x]
        for g, (perm_g, exps_g) in gens:
            y = model.mul(x, g)
            if y not in action:
                action[y] = (perm_x[perm_g], (exps_x[perm_g] + exps_g) % n)
                queue.append(y)
    if len(action) < model.order:
        raise ProjectionRankMismatch(
            f"generators reach {len(action)} of {model.order} elements")
    return action


def _pick_induction_subgroup(table, model, target):
    """Deterministic exact search for a cyclic subgroup and a linear
    character containing the target with small multiplicity and small index."""
    candidates = []
    seen_orders = set()
    for lab in model.class_labels:
        rep = model.class_reps[lab]
        n = model.element_orders[rep]
        if n == 1 or n in seen_orders:
            continue
        seen_orders.add(n)
        if model.order // n > REALIZE_MODULE_BOUND:
            continue
        candidates.append((model.order // n, n, rep))
    candidates.sort(key=lambda t: (t[0], t[1]))
    best = None
    for index, n, rep in candidates:
        sub = SubgroupSpec("cyclic", n, n, closure(model, [rep]))
        restriction = restriction_from_enumeration(table, model, sub)
        for j in range(n):
            lam = restriction.table.by_name[f"mu_{j}"]
            mult = restriction.multiplicity(target, lam)
            if mult == 1:
                return rep, n, j, 1
            if mult > 1 and best is None:
                best = (rep, n, j, int(mult))
    if best is not None:
        return best
    raise ProjectionRankMismatch(
        f"no cyclic subgroup induces {target.name} within the module bound")


def realize_irreducible(model: GroupModel, table: CharacterTable,
                        target: Character, seed=0,
                        tol: Tolerances = TOL) -> UnitaryRep:
    """Unitary matrices with the exact character `target`.

    Induce from a linear character of a cyclic subgroup chosen exactly so the
    target occurs, project onto the isotypic block, split off one copy with a
    random invariant self-adjoint operator if needed, then unitarize by
    averaging the Hermitian form over the group.
    """
    if not model.enumerated:
        raise ValueError("realization needs an enumerated model "
                         "(class-data groups are exact-only)")
    if model.order > REALIZE_GROUP_BOUND:
        raise ValueError(f"group order {model.order} beyond realization bound")
    attach_model(table, model)
    d = target.degree
    rng = np.random.default_rng(seed)
    if d == 1:
        exact = {lab: complex(target.value_at(lab).to_complex())
                 for lab in model.class_labels}
        mats = {g: np.array([[exact[model.class_of[g]]]]) for g in
                model.elements}
        return UnitaryRep(model, mats, seed)

    gen, n, j, mult = _pick_induction_subgroup(table, model, target)
    # the induced action permutes the left cosets of <gen> monomially
    cosets = _left_cosets(model, gen)
    dim = model.order // n
    action = _induced_action(model, cosets)
    root = np.exp(2j * np.pi * j / n)
    lam_of = np.array([root ** e for e in range(n)])   # lambda_j(gen^e)

    exact_vals = {lab: complex(target.value_at(lab).to_complex())
                  for lab in model.class_labels}
    proj = np.zeros((dim, dim), dtype=np.complex128)
    for s in model.elements:
        perm, exps = action[s]
        coeff = np.conj(exact_vals[model.class_of[s]]) * d / model.order
        proj[perm, np.arange(dim)] += coeff * lam_of[exps]

    evals, evecs = np.linalg.eigh(proj)
    rank = int(np.sum(evals > 0.5))
    if rank != mult * d:
        raise ProjectionRankMismatch(
            f"isotypic rank {rank} != multiplicity*degree {mult * d}")
    basis = evecs[:, evals > 0.5]

    def compress(b):
        mats = {}
        bh = b.conj().T
        for s in model.elements:
            perm, exps = action[s]
            indb = np.zeros_like(b)
            indb[perm, :] = lam_of[exps][:, None] * b
            mats[s] = bh @ indb
        return mats

    if mult > 1:
        for attempt in range(8):
            x = rng.standard_normal((rank, rank)) + \
                1j * rng.standard_normal((rank, rank))
            x = x + x.conj().T
            sub = compress(basis)
            t = np.zeros((rank, rank), dtype=np.complex128)
            for s in model.elements:
                m = sub[s]
                t += m @ x @ m.conj().T
            t /= model.order
            w, u = np.linalg.eigh(t)
            # need a clean spectral gap after the first irreducible copy
            if len(w) > d and np.min(np.abs(w[d] - w[:d])) < 1e-8:
                continue
            basis2 = basis @ u[:, :d]
            basis = np.linalg.qr(basis2)[0]
            break
        else:
            raise SingularAveraging("could not split the isotypic block")

    mats = compress(basis)

    # average the Hermitian form over the group and renormalize
    h = np.zeros((d, d), dtype=np.complex128)
    for s in model.elements:
        h += mats[s].conj().T @ mats[s]
    h /= model.order
    w, u = np.linalg.eigh(h)
    s_half = u @ np.diag(np.sqrt(w)) @ u.conj().T
    s_inv = u @ np.diag(1 / np.sqrt(w)) @ u.conj().T
    mats = {g: s_half @ m @ s_inv for g, m in mats.items()}

    rep = UnitaryRep(model, mats, seed)
    ud = rep.unitarity_defect()
    if _above(ud, tol.unitary):
        raise ToleranceExceeded(f"unitarity {ud:.2e}")
    if _above(rep.homomorphism_defect(rng), tol.homomorphism):
        raise ToleranceExceeded("homomorphism defect above tolerance")
    cd = rep.character_defect(target)
    if _above(cd, tol.character):
        raise ToleranceExceeded(f"character defect {cd:.2e}")
    return rep


def intertwiner(r1: UnitaryRep, r2: UnitaryRep, seed=0,
                tol: Tolerances = TOL):
    """A unitary U with U r1 U* = r2, by polar-unitarized averaging."""
    if r1.model is not r2.model or r1.degree != r2.degree:
        raise NotIsomorphic("shape mismatch")
    for g in r1.model.class_reps.values():
        if _above(abs(np.trace(r1.mat(g)) - np.trace(r2.mat(g))), 1e-6):
            raise NotIsomorphic("characters differ")
    rng = np.random.default_rng(seed)
    d = r1.degree
    for attempt in range(8):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        t = np.zeros((d, d), dtype=np.complex128)
        for g in r1.model.elements:
            t += r2.mat(g) @ x @ r1.mat(g).conj().T
        t /= r1.model.order
        u_svd, s_svd, vh_svd = np.linalg.svd(t)
        if s_svd[-1] < 1e-6 * max(s_svd[0], 1e-300):
            continue
        u = u_svd @ vh_svd
        worst = float(np.max([_mnorm(u @ r1.mat(g) @ u.conj().T - r2.mat(g))
                              for g in r1.model.elements]))
        if _above(worst, tol.intertwine):
            raise ToleranceExceeded(f"intertwining defect {worst:.2e}")
        if _above(_mnorm(u @ u.conj().T - np.eye(d)), tol.intertwine_unitary):
            raise ToleranceExceeded("intertwiner not unitary enough")
        return u
    raise SingularAveraging("averaging stayed singular after 8 attempts")


def spectral_split(rep: UnitaryRep, g, tol: Tolerances = TOL):
    """Unitary diagonalizer of rep(g) and eigenvalue multiplicities.

    Eigenprojectors are computed by group averaging over <g>, so eigenvalues
    are snapped to the exact roots of unity of the element order.
    """
    model = rep.model
    n = model.element_orders[g]
    a = rep.mat(g)
    d = rep.degree
    powers = [np.eye(d, dtype=np.complex128)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ a)
    cols = []
    mults = {}
    for j in range(n):
        proj = np.zeros((d, d), dtype=np.complex128)
        root = np.exp(2j * np.pi * j / n)
        for k in range(n):
            proj += root ** (-k) * powers[k]
        proj /= n
        u_svd, s_svd, _ = np.linalg.svd(proj)
        rank = int(np.sum(s_svd > 0.5))
        if rank:
            mults[j] = rank
            cols.append(u_svd[:, :rank])
    u = np.hstack(cols)
    diag = u.conj().T @ a @ u
    off = diag - np.diag(np.diag(diag))
    target = np.concatenate([np.full(r, np.exp(2j * np.pi * j / n))
                             for j, r in mults.items()])
    if _above(_mnorm(off), tol.spectral) or \
            _above(_mnorm(np.diag(diag) - target), tol.spectral):
        raise ToleranceExceeded("eigenvalues not within spectral tolerance")
    return u, mults


def averaged_operator(rep: UnitaryRep, elements, x):
    out = np.zeros_like(x)
    for h in elements:
        m = rep.mat(h)
        out += m @ x @ m.conj().T
    return out / len(elements)


def commutant_rank(rep: UnitaryRep, elements, samples, seed=0,
                   tol: Tolerances = TOL):
    """Numerical dimension of the commutant of rep restricted to a subgroup:
    rank of a stack of averaged random operators."""
    rng = np.random.default_rng(seed)
    d = rep.degree
    rows = []
    for _ in range(samples):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rows.append(averaged_operator(rep, elements, x).reshape(-1))
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(sv > tol.commutant_svd * sv[0]))


def random_commutant_skew(rep: UnitaryRep, elements, rng, scale=1.0):
    d = rep.degree
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = (x - x.conj().T) / 2
    return scale * averaged_operator(rep, elements, x)


# -- moduli points and the gauge action ------------------------------------------

@dataclass
class ModuliPoint:
    graph: OrbitGraph
    mats: dict                  # edge index -> unitary matrix
    # (rho0, word symbol) -> the symbol's image, filled by symbol_image
    images: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def tau_vertex(self, v):
        path = self.graph.tree_path(v)
        d = next(iter(self.mats.values())).shape[0]
        out = np.eye(d, dtype=np.complex128)
        for e in path:          # tau_v = tau_{e_s} ... tau_{e_1}
            out = self.mats[e] @ out
        return out

    @cached_property
    def tau_v(self):
        """tau_vertex(v) for every vertex, in vertex order."""
        return [self.tau_vertex(v) for v in range(len(self.graph.vertices))]

    def symbol_image(self, rho0: UnitaryRep, sym):
        """The matrix a word symbol evaluates to at this point under rho0,
        computed on first use: tau_s^H tau_e^H rho0(g_e) tau_w for x_e,
        tau_v^H rho0(g) tau_v for i_v(g), conjugate-transposed for
        exponent -1."""
        key = (rho0, sym)
        out = self.images.get(key)
        if out is None:
            tau_v = self.tau_v
            if sym[0] == "x":
                _, ei, exp = sym
                e = self.graph.edges[ei]
                m = tau_v[e.s].conj().T @ self.mats[ei].conj().T @ \
                    rho0.mat(e.g) @ tau_v[e.w]
            elif sym[0] == "v":
                _, vi, g, exp = sym
                m = tau_v[vi].conj().T @ rho0.mat(g) @ tau_v[vi]
            else:
                raise ValueError(f"unknown word symbol {sym!r}")
            out = self.images[key] = m if exp == 1 else m.conj().T
        return out

    def check(self, rho0: UnitaryRep, tol: Tolerances = TOL):
        eye = np.eye(next(iter(self.mats.values())).shape[0])
        for ei, t in self.mats.items():
            if _above(_mnorm(t @ t.conj().T - eye), tol.action):
                raise ToleranceExceeded(f"tau_{ei} not unitary")
            for g in self.graph.edges[ei].sub.elements:
                r = rho0.mat(g)
                if _above(_mnorm(t @ r - r @ t), tol.action):
                    raise ToleranceExceeded(
                        f"tau_{ei} leaves the stabilizer commutant")
        return True


@dataclass
class HPoint:
    graph: OrbitGraph
    mats: dict                  # vertex index -> unitary, root -> identity

    def check(self, rho0: UnitaryRep, tol: Tolerances = TOL):
        root = self.graph.root
        eye = np.eye(rho0.degree)
        if _above(_mnorm(self.mats[root] - eye), tol.action):
            raise ToleranceExceeded("alpha at the root vertex must be 1")
        for vi, v in enumerate(self.graph.vertices):
            a = self.mats[vi]
            if _above(_mnorm(a @ a.conj().T - eye), tol.action):
                raise ToleranceExceeded(f"alpha_{vi} not unitary")
            for g in v.sub.elements:
                r = rho0.mat(g)
                if _above(_mnorm(a @ r - r @ a), tol.action):
                    raise ToleranceExceeded(
                        f"alpha_{vi} leaves the vertex commutant")
        return True


def identity_moduli_point(graph, degree):
    eye = np.eye(degree, dtype=np.complex128)
    return ModuliPoint(graph, {i: eye.copy() for i in range(len(graph.edges))})


def random_moduli_point(graph, rho0: UnitaryRep, rng, scale=1.0,
                        tol: Tolerances = TOL):
    mats = {}
    for i, e in enumerate(graph.edges):
        skew = random_commutant_skew(rho0, e.sub.elements, rng, scale)
        mats[i] = expm(skew, tol)
    point = ModuliPoint(graph, mats)
    point.check(rho0, tol)
    return point


def random_h_point(graph, rho0: UnitaryRep, rng, scale=1.0):
    mats = {graph.root: np.eye(rho0.degree, dtype=np.complex128)}
    for i, v in enumerate(graph.vertices):
        if i == graph.root:
            continue
        mats[i] = expm(random_commutant_skew(rho0, v.sub.elements, rng, scale))
    return HPoint(graph, mats)


def rho_tau_eval(pres: BrownPresentation, rho0: UnitaryRep,
                 tau: ModuliPoint, word):
    """Evaluate the induced representation at the moduli point on a word:
    one product per symbol, with the symbol images cached on the point."""
    acc = np.eye(rho0.degree, dtype=np.complex128)
    for sym in word:
        acc = acc @ tau.symbol_image(rho0, sym)
    return acc


def h_action(graph, rho0: UnitaryRep, tau: ModuliPoint,
             alpha: HPoint, tol: Tolerances = TOL) -> ModuliPoint:
    """(tau . alpha)_e = rho0(g_e) alpha_w^-1 rho0(g_e)^-1 tau_e alpha_s."""
    alpha.check(rho0, tol)
    mats = {}
    for i, e in enumerate(graph.edges):
        ge = rho0.mat(e.g)
        mats[i] = ge @ alpha.mats[e.w].conj().T @ ge.conj().T @ \
            tau.mats[i] @ alpha.mats[e.s]
    return ModuliPoint(graph, mats)


def word_differential_check(pres: BrownPresentation, rho0: UnitaryRep,
                            legs, seed=0, step=1e-5, tol: Tolerances = TOL):
    """Directional derivative of the word map at the identity moduli point:
    the closed-edge-path formula against central finite differences.

    Returns (formula, finite_difference, max_error).
    """
    graph = pres.graph
    word = path_to_word(pres, legs)
    if pres.phi(word) != IDENTITY:
        raise WordNotInKernel("closed path word does not map to 1")
    rng = np.random.default_rng(seed)
    tangent = {i: random_commutant_skew(rho0, e.sub.elements, rng)
               for i, e in enumerate(graph.edges)}

    formula = np.zeros((rho0.degree, rho0.degree), dtype=np.complex128)
    for a, ei, eps in legs:
        ra = rho0.mat(a)
        formula -= eps * (ra @ tangent[ei] @ ra.conj().T)

    def at(t):
        point = ModuliPoint(graph, {i: expm(t * x, tol)
                                    for i, x in tangent.items()})
        return rho_tau_eval(pres, rho0, point, word)

    fd = (at(step) - at(-step)) / (2 * step)
    err = _mnorm(formula - fd)
    return formula, fd, err
