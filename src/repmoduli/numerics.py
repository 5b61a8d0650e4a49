"""Floating-point realization of the distinguished irreducible as one stack
of unitary matrices, (|G|, d, d) in model.elements order; intertwiners,
spectral splits, commutants and stabilizer checks as batched expressions
over slices of it; word evaluation at moduli points, one batched product per
word position; the gauge action; finite-difference checks of the
word-differential formula.  Everything random is driven by an explicit seed;
exact multiplicity data comes from the character layer beforehand.
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
_CHUNK_BYTES = 1 << 20      # about 1 MB of matrices per batched operation


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
    """A unitary matrix image for every element of an enumerated group,
    stacked as one (|G|, d, d) array in `model.elements` order."""

    def __init__(self, model: GroupModel, stack):
        self.model = model
        self.stack = stack
        self.degree = stack.shape[1]
        self.row = {g: i for i, g in enumerate(model.elements)}

    def mat(self, g):
        return self.stack[self.row[self.model.canonical(g)]]

    def stack_of(self, elements):
        """The (n, d, d) images of n elements of model.elements, in their
        order."""
        return self.stack[[self.row[g] for g in elements]]

    def homomorphism_defect(self, rng=None, samples=300):
        els = self.model.elements
        rng = np.random.default_rng(0) if rng is None else rng
        pairs = rng.integers(len(els), size=(samples, 2))
        prods = [self.row[self.model.mul(els[i], els[j])] for i, j in pairs]
        return _mnorm(self.stack[pairs[:, 0]] @ self.stack[pairs[:, 1]] -
                      self.stack[prods])

    def unitarity_defect(self):
        return float(np.max([_mnorm(m @ _h(m) - np.eye(self.degree))
                             for m in _chunked(self.stack)]))

    def character_defect(self, target: Character):
        """Worst trace deviation from the exact character, over all elements."""
        return _mnorm(np.trace(self.stack, axis1=1, axis2=2) -
                      _element_values(self.model, target))


def _h(a):
    """The conjugate transpose of a matrix or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _chunk_slices(n, item_bytes):
    """Slices covering range(n), each over about _CHUNK_BYTES of items."""
    step = max(1, _CHUNK_BYTES // item_bytes)
    return [slice(i, i + step) for i in range(0, n, step)]


def _chunked(stack):
    """A stack of matrices as a sequence of views of about _CHUNK_BYTES."""
    return [stack[sl] for sl in _chunk_slices(len(stack), stack[0].nbytes)]


def _element_values(model, ch: Character):
    """The exact character values as complex numbers, by model.elements."""
    exact = {lab: complex(ch.value_at(lab).to_complex())
             for lab in model.class_labels}
    return np.array([exact[model.class_of[g]] for g in model.elements])


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
    """(perms, exps), the (perm, exps) of every element by model.elements,
    exactly: the transvection generators' monomials composed from 1 along
    the Cayley graph.

    If s has (perm_s, exps_s) and g has (perm_g, exps_g), then
    s g t_j = s t_{perm_g[j]} gen^{exps_g[j]}, so s g has
    perm_s[perm_g] and exps_s[perm_g] + exps_g (mod the order of gen).
    """
    exponents, reps, _ = cosets
    n, dim = len(exponents), len(reps)
    row = {g: i for i, g in enumerate(model.elements)}
    gens = [(g, _monomial(model, cosets, g))
            for g in _transvection_generators(model.spec)]
    perms = np.empty((model.order, dim), dtype=np.int16)
    exps = np.empty((model.order, dim), dtype=np.int16)
    queue = [row[IDENTITY]]
    perms[queue[0]], exps[queue[0]] = np.arange(dim), 0
    reached = set(queue)
    while queue:
        x = queue.pop()
        perm_x, exps_x = perms[x], exps[x]
        for g, (perm_g, exps_g) in gens:
            y = row[model.mul(model.elements[x], g)]
            if y not in reached:
                reached.add(y)
                perms[y] = perm_x[perm_g]
                exps[y] = (exps_x[perm_g] + exps_g) % n
                queue.append(y)
    if len(reached) < model.order:
        raise ProjectionRankMismatch(
            f"generators reach {len(reached)} of {model.order} elements")
    return perms, exps


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
    values = _element_values(model, target)
    if d == 1:
        return UnitaryRep(model, values.reshape(-1, 1, 1))

    gen, n, j, mult = _pick_induction_subgroup(table, model, target)
    # the induced action permutes the left cosets of <gen> monomially
    cosets = _left_cosets(model, gen)
    dim = model.order // n
    perms, exps = _induced_action(model, cosets)
    root = np.exp(2j * np.pi * j / n)
    lam_of = np.array([root ** e for e in range(n)])   # lambda_j(gen^e)

    # sum_s conj(chi(s)) d/|G| ind(s), ind(s) having lambda(gen^exps[j])
    # at (perm[j], j); add.at accumulates each entry in element order
    proj = np.zeros((dim, dim), dtype=np.complex128)
    coeff = np.conj(values) * d / model.order
    cols = np.arange(dim)
    for sl in _chunk_slices(model.order, 24 * dim):   # value and index
        np.add.at(proj.reshape(-1), perms[sl].astype(np.intp) * dim + cols,
                  coeff[sl, None] * lam_of[exps[sl]])

    evals, evecs = np.linalg.eigh(proj)
    rank = int(np.sum(evals > 0.5))
    if rank != mult * d:
        raise ProjectionRankMismatch(
            f"isotypic rank {rank} != multiplicity*degree {mult * d}")
    basis = evecs[:, evals > 0.5]

    def compress(b):
        """(slice, b^H ind(s) b for the elements s in it), chunk by chunk:
        ind(s) b has row j of b, times lambda(gen^exps[j]), at row perm[j]."""
        cb = b.conj()
        for sl in _chunk_slices(model.order, b.nbytes):
            yield sl, (cb[perms[sl]] * lam_of[exps[sl]][..., None]
                       ).swapaxes(1, 2) @ b

    if mult > 1:
        for attempt in range(8):
            x = rng.standard_normal((rank, rank)) + \
                1j * rng.standard_normal((rank, rank))
            x = x + x.conj().T
            t = sum((m @ x @ _h(m)).sum(axis=0)
                    for _, m in compress(basis)) / model.order
            w, u = np.linalg.eigh(t)
            # need a clean spectral gap after the first irreducible copy
            if len(w) > d and np.min(np.abs(w[d] - w[:d])) < 1e-8:
                continue
            basis2 = basis @ u[:, :d]
            basis = np.linalg.qr(basis2)[0]
            break
        else:
            raise SingularAveraging("could not split the isotypic block")

    # average the Hermitian form over the group and renormalize, in place
    stack = np.empty((model.order, d, d), dtype=np.complex128)
    h = np.zeros((d, d), dtype=np.complex128)
    for sl, m in compress(basis):
        stack[sl] = m
        h += (_h(m) @ m).sum(axis=0)
    h /= model.order
    w, u = np.linalg.eigh(h)
    s_half = u @ np.diag(np.sqrt(w)) @ u.conj().T
    s_inv = u @ np.diag(1 / np.sqrt(w)) @ u.conj().T
    for m in _chunked(stack):
        m[...] = s_half @ m @ s_inv

    rep = UnitaryRep(model, stack)
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
    reps = list(r1.model.class_reps.values())
    traces = [np.trace(r.stack_of(reps), axis1=1, axis2=2) for r in (r1, r2)]
    if _above(_mnorm(traces[0] - traces[1]), 1e-6):
        raise NotIsomorphic("characters differ")
    rng = np.random.default_rng(seed)
    d = r1.degree
    pairs = list(zip(_chunked(r1.stack), _chunked(r2.stack)))
    for attempt in range(8):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        t = sum((m2 @ x @ _h(m1)).sum(axis=0) for m1, m2 in pairs)
        t /= r1.model.order
        u_svd, s_svd, vh_svd = np.linalg.svd(t)
        if s_svd[-1] < 1e-6 * max(s_svd[0], 1e-300):
            continue
        u = u_svd @ vh_svd
        worst = float(np.max([_mnorm(u @ m1 @ u.conj().T - m2)
                              for m1, m2 in pairs]))
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
    powers = rep.stack_of(closure(model, [g]))      # 1, g, g^2, ...
    roots = [np.exp(2j * np.pi * j / n) for j in range(n)]
    coeff = np.array([[root ** (-k) for k in range(n)] for root in roots])
    projs = np.tensordot(coeff, powers, axes=1) / n
    u_svd, s_svd, _ = np.linalg.svd(projs)
    mults = {j: int(r) for j, r in enumerate(np.sum(s_svd > 0.5, axis=1))
             if r}
    u = np.hstack([u_svd[j][:, :r] for j, r in mults.items()])
    diag = u.conj().T @ a @ u
    off = diag - np.diag(np.diag(diag))
    target = np.concatenate([np.full(r, np.exp(2j * np.pi * j / n))
                             for j, r in mults.items()])
    if _above(_mnorm(off), tol.spectral) or \
            _above(_mnorm(np.diag(diag) - target), tol.spectral):
        raise ToleranceExceeded("eigenvalues not within spectral tolerance")
    return u, mults


def averaged_operator(m, x):
    """(1/n) sum_i m_i x m_i^H over a stack m of n matrices."""
    return (m @ x @ _h(m)).sum(axis=0) / len(m)


def commutant_rank(rep: UnitaryRep, elements, samples, seed=0,
                   tol: Tolerances = TOL):
    """Numerical dimension of the commutant of rep restricted to a subgroup:
    rank of a stack of averaged random operators."""
    rng = np.random.default_rng(seed)
    d = rep.degree
    m = rep.stack_of(elements)
    rows = []
    for _ in range(samples):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rows.append(averaged_operator(m, x).reshape(-1))
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    return int(np.sum(sv > tol.commutant_svd * sv[0]))


def random_commutant_skew(rep: UnitaryRep, elements, rng, scale=1.0):
    d = rep.degree
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = (x - x.conj().T) / 2
    return scale * averaged_operator(rep.stack_of(elements), x)


def _check_gauge(t, rho0: UnitaryRep, sub, tol, name, where):
    """Raise unless t is unitary and commutes with rho0 on every element of
    the subgroup, within tol; a NaN fails."""
    if _above(_mnorm(t @ t.conj().T - np.eye(len(t))), tol):
        raise ToleranceExceeded(f"{name} not unitary")
    r = rho0.stack_of(sub.elements)
    if _above(_mnorm(t @ r - r @ t), tol):
        raise ToleranceExceeded(f"{name} leaves the {where} commutant")


# -- moduli points and the gauge action ------------------------------------------

@dataclass
class ModuliPoint:
    graph: OrbitGraph
    mats: dict                  # edge index -> unitary matrix
    # rho0 -> (symbol -> row, stacked images), filled by symbol_images
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

    def symbol_images(self, rho0: UnitaryRep):
        """Every word symbol's image under rho0, once per rho0: a dict from
        symbol to row and the (n, d, d) stack of images.  Row 0 is the
        identity, then tau_s^H tau_e^H rho0(g_e) tau_w per x_e and
        tau_v^H rho0(g) tau_v per vertex v and g in G_v, then the same
        symbols with exponent -1, imaged by the conjugate transposes."""
        out = self.images.get(rho0)
        if out is None:
            graph, tau_v = self.graph, self.tau_v
            keys = [[("x", ei, exp) for ei in range(len(graph.edges))]
                    for exp in (1, -1)]
            blocks = [np.eye(rho0.degree)[None], np.array([
                tau_v[e.s].conj().T @ self.mats[ei].conj().T @
                rho0.mat(e.g) @ tau_v[e.w]
                for ei, e in enumerate(graph.edges)])]
            for vi, (v, t) in enumerate(zip(graph.vertices, tau_v)):
                for exp, ks in zip((1, -1), keys):
                    ks += [("v", vi, g, exp) for g in v.sub.elements]
                blocks.append(t.conj().T @ rho0.stack_of(v.sub.elements) @ t)
            index = dict(zip(keys[0] + keys[1],
                             range(1, 1 + 2 * len(keys[0]))))
            direct = np.concatenate(blocks)
            out = self.images[rho0] = (
                index, np.concatenate([direct, _h(direct[1:])]))
        return out

    def check(self, rho0: UnitaryRep, tol: Tolerances = TOL):
        for ei, t in self.mats.items():
            _check_gauge(t, rho0, self.graph.edges[ei].sub, tol.action,
                         f"tau_{ei}", "stabilizer")
        return True


@dataclass
class HPoint:
    graph: OrbitGraph
    mats: dict                  # vertex index -> unitary, root -> identity

    def check(self, rho0: UnitaryRep, tol: Tolerances = TOL):
        if _above(_mnorm(self.mats[self.graph.root] - np.eye(rho0.degree)),
                  tol.action):
            raise ToleranceExceeded("alpha at the root vertex must be 1")
        for vi, v in enumerate(self.graph.vertices):
            _check_gauge(self.mats[vi], rho0, v.sub, tol.action,
                         f"alpha_{vi}", "vertex")
        return True


def identity_moduli_point(graph, degree):
    eye = np.eye(degree, dtype=np.complex128)
    return ModuliPoint(graph, {i: eye.copy() for i in range(len(graph.edges))})


def random_moduli_point(graph, rho0: UnitaryRep, rng, scale=1.0,
                        tol: Tolerances = TOL):
    point = ModuliPoint(graph, {
        i: expm(random_commutant_skew(rho0, e.sub.elements, rng, scale), tol)
        for i, e in enumerate(graph.edges)})
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
                 tau: ModuliPoint, words):
    """The induced representation at the moduli point on a sequence of
    words, as an (n, d, d) array: one batched product of symbol images per
    word position, left to right, shorter words padded by the identity."""
    index, images = tau.symbol_images(rho0)
    try:
        rows = [[index[sym] for sym in w] for w in words]
    except KeyError as e:
        raise ValueError(f"unknown word symbol {e.args[0]!r}") from None
    length = max(map(len, rows), default=0)
    steps = np.array([r + [0] * (length - len(r)) for r in rows],
                     dtype=np.intp).reshape(len(rows), length)
    acc = np.repeat(images[:1], len(rows), axis=0)
    for col in steps.T:
        acc = acc @ images[col]
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

    ra = rho0.stack_of([a for a, _, _ in legs])
    steps = np.array([eps * tangent[ei] for _, ei, eps in legs])
    formula = -(ra @ steps @ _h(ra)).sum(axis=0)

    def at(t):
        point = ModuliPoint(graph, {i: expm(t * x, tol)
                                    for i, x in tangent.items()})
        return rho_tau_eval(pres, rho0, point, [word])[0]

    fd = (at(step) - at(-step)) / (2 * step)
    err = _mnorm(formula - fd)
    return formula, fd, err
