"""Floating-point realization of the distinguished irreducible rho0 from
closed formulas, evaluated on demand: the odd half of the Weil
representation for odd q, the Kirillov model of the cuspidal theta_1 for
even q.  Group averages, commutant dimensions, spectral splits and
stabilizer checks over subgroups; word evaluation at many moduli points,
one batched product per word position; the gauge action, its draws
stacked; finite-difference checks of the word-differential formula.
Everything random is driven by an explicit seed; exact data comes from the
character layer.

References: A. Weil, "Sur certains groupes d'opérateurs unitaires", Acta
Math. 111 (1964); D. Bump, Automorphic Forms and Representations (CUP
1997), section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chars import Character, CharacterTable, rho0_character
from .groups import ClassLabel, GroupModel, closure, first
from .oscomplex import BrownPresentation, OrbitGraph, path_to_word


class ToleranceExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances.  `commutant_svd` sets both cuts of
    commutant_rank: eigenvalues of the first group average closer than it
    (relative to the largest) are one eigenspace, and entries of the second
    below it (relative to the largest) do not link two eigenspaces."""
    unitary: float = 1e-8
    homomorphism: float = 1e-8
    character: float = 1e-6
    spectral: float = 1e-6
    commutant_svd: float = 1e-6
    moduli_word: float = 1e-7
    universal: float = 1e-8
    action: float = 1e-7
    jacobian_rel: float = 1e-6


TOL = Tolerances()

_CHUNK_BYTES = 1 << 20      # about 1 MB of matrices per batched operation
_FD_STEP = 1e-5             # central finite-difference step of word maps


def _mnorm(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def _above(x, tol):
    """x > tol, and also true for a NaN x, so that a NaN fails its check."""
    return not x <= tol


def expm(a, tol: Tolerances = TOL):
    """exp(a) for a skew-Hermitian a, or for every a of a stack, as
    V diag(e^{iw}) V^H from the eigenpairs (w, V) of the Hermitian -1j a.
    Raises ValueError when an a is not skew-Hermitian within tol.unitary."""
    if _above(_mnorm(a + _h(a)), tol.unitary):
        raise ValueError("expm needs a skew-Hermitian matrix")
    w, v = np.linalg.eigh(-1j * a)
    return (v * np.exp(1j * w)[..., None, :]) @ _h(v)


def _h(a):
    """The conjugate transpose of a matrix or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _chunk_slices(n, item_bytes):
    """Slices covering range(n), each over about _CHUNK_BYTES of items."""
    step = max(1, _CHUNK_BYTES // max(item_bytes, 1))
    return [slice(i, i + step) for i in range(0, n, step)]


# -- images of a batch of elements ----------------------------------------------

class Images:
    """The images of a batch of n elements.  Where `mono` is set the image
    is monomial: the k-th such element has M[i, cols[k, i]] = vals[k, i].
    The other elements' images are the matrices `dense`, in batch order."""

    def __init__(self, mono, cols, vals, dense):
        self.mono, self.cols, self.vals, self.dense = mono, cols, vals, dense
        # each element's row in cols or in dense
        self.slot = np.where(mono, np.cumsum(mono), np.cumsum(~mono)) - 1

    def stack(self, at=None):
        """The images at batch positions `at` (all by default) as one dense
        (len(at), d, d) stack."""
        at = np.arange(len(self.mono)) if at is None else np.asarray(at)
        d = self.dense.shape[-1]
        out = np.zeros((len(at), d, d), dtype=np.complex128)
        mono, slot = self.mono[at], self.slot[at]
        out[~mono] = self.dense[slot[~mono]]
        k = np.flatnonzero(mono)
        out[k[:, None], np.arange(d), self.cols[slot[k]]] = self.vals[slot[k]]
        return out

    def _chunks(self, n):
        """The dense and the monomial images, in chunks of _CHUNK_BYTES."""
        item = 16 * n * self.dense.shape[-1] ** 2
        return ([self.dense[sl] for sl in _chunk_slices(len(self.dense), item)],
                [(self.cols[sl], self.vals[sl])
                 for sl in _chunk_slices(len(self.cols), item)])

    def sandwich_sum(self, xs):
        """sum_M M x M^H over the batch, for every x of a stack xs; a
        monomial M gives vals[i] x[cols[i], cols[j]] conj(vals[j])."""
        dense, mono = self._chunks(len(xs))
        total = np.zeros(xs.shape, dtype=np.complex128)
        for m in dense:
            total += (m[:, None] @ xs @ _h(m[:, None])).sum(axis=0)
        for cols, vals in mono:
            inner = xs[:, cols[:, :, None], cols[:, None, :]]
            total += (vals[:, :, None] * inner *
                      vals.conj()[:, None, :]).sum(axis=1)
        return total

    def commutator_defect(self, t):
        """max |t M - M t| over the batch and a matrix or stack t; at the
        columns cols of a monomial M, t M is t[i, j] vals[j] and M t is
        vals[i] t[cols[i], cols[j]]."""
        ts = t.reshape((-1,) + t.shape[-2:])
        dense, mono = self._chunks(len(ts))
        t = ts[:, None]
        # np.max, unlike max, keeps a NaN
        return float(np.max([0.0] + [_mnorm(t @ m - m @ t) for m in dense] + [
            _mnorm(t * vals[:, None, :] -
                   vals[:, :, None] * ts[:, cols[:, :, None], cols[:, None, :]])
            for cols, vals in mono]))


class UnitaryRep:
    """The images of a matrix group under a unitary representation,
    evaluated on demand by `formula` (a list of elements -> Images, with
    the attribute `degree`).  Only `kept` keeps what it evaluates."""

    def __init__(self, model: GroupModel, formula):
        self.model = model
        self.formula = formula
        self.degree = formula.degree
        self._kept = {}             # id(elements) -> (elements, Images)
        self._mats = {}             # element -> image, read by mat

    def kept(self, elements) -> Images:
        """The images of a subgroup's element tuple, evaluated on the first
        call and kept, keyed by that tuple, for the life of the rep."""
        if id(elements) not in self._kept:
            self._kept[id(elements)] = (elements, self.formula(elements))
        return self._kept[id(elements)][1]

    def mat(self, g):
        """The image of one element, kept read-only for later calls."""
        g = self.model.canonical(g)
        m = self._mats.get(g)
        if m is None:
            m = self._mats[g] = self.stack_of([g])[0]
            m.flags.writeable = False
        return m

    def stack_of(self, elements):
        """The (n, d, d) images of n elements of the model, in order."""
        return self.formula(elements).stack()

    def average(self, elements, xs):
        """(1/n) sum_g rho(g) x rho(g)^H over a subgroup's n elements, whose
        images are kept, for every x of a stack xs."""
        return self.kept(elements).sandwich_sum(xs) / len(elements)

    def homomorphism_defect(self, rng=None, samples=300):
        """max |rho(g) rho(h) - rho(gh)| over seeded random pairs."""
        element, mul = self.model.element, self.model.mul
        rng = np.random.default_rng(0) if rng is None else rng
        pairs = rng.integers(self.model.order, size=(samples, 2)).tolist()
        out = []
        for sl in _chunk_slices(samples, 48 * self.degree ** 2):
            g = [element(i) for i, _ in pairs[sl]]
            h = [element(j) for _, j in pairs[sl]]
            out.append(_mnorm(self.stack_of(g) @ self.stack_of(h) -
                              self.stack_of(list(map(mul, g, h)))))
        return float(np.max(out))

    def unitarity_defect(self, elements=None):
        """max |rho(g) rho(g)^H - 1| over the elements, by default the class
        representatives."""
        if elements is None:
            elements = list(self.model.class_reps.values())
        m = self.stack_of(elements)
        return _mnorm(m @ _h(m) - np.eye(self.degree))

    def character_defect(self, target: Character):
        """Worst trace deviation from the exact character, over the class
        representatives."""
        labels = self.model.class_labels
        traces = np.trace(self.stack_of(
            [self.model.class_reps[lab] for lab in labels]), axis1=1, axis2=2)
        return _mnorm(traces - np.array(
            [complex(target.value_at(lab).to_complex()) for lab in labels]))


# -- closed-form models of rho0 ------------------------------------------------

def _field_arrays(spec):
    """(add, mul, neg, inv, tr) of a field as numpy arrays: its dense
    tables, its inverses (0 at 0) and its absolute trace into the prime
    field."""
    q, p = spec.q, spec.p
    add, mul, neg = (np.array(t, dtype=np.intp) for t in
                     (spec.add_table, spec.mul_table, spec.neg_table))
    inv = np.array([0] + [spec.inv(x) for x in range(1, q)], dtype=np.intp)
    tr = np.zeros(q, dtype=np.intp)
    for i in range(spec.n):
        tr = add[tr, [spec.pow(x, p ** i) for x in range(q)]]
    return add, mul, neg, inv, tr


def _scale_from_relations(w, n):
    """The scalar kappa with (kappa w)^2 = 1 and (kappa w n)^3 = 1, for the
    images w and n of w = [[0, 1], [-1, 0]] and n(1) = [[1, 1], [0, 1]] up
    to that scalar on w: kappa^2 = d / tr(w^2) by the first, kappa^3 =
    d / tr((w n)^3) by the second, and kappa is their quotient."""
    wn = w @ n
    return np.trace(w @ w) / np.trace(wn @ wn @ wn)


class _Model:
    """A closed-form model of rho0 on PSL2(q).  Elements with c = 0 act
    monomially (`_monomial`), the others by a dense formula (`_dense`) whose
    kernel table `self.kernel` carries the scalar that the relations fix.
    Every image entry is a table value, up to exact sign changes and one
    subtraction, so an element's image does not depend on the batch it is
    evaluated in."""

    def __call__(self, elements):
        els = np.array(elements, dtype=np.intp).reshape(-1, 4)
        c0 = els[:, 2] == 0
        return Images(c0, *self._monomial(els[c0]), self._dense(els[~c0]))

    def _fix_scale(self, minus_one):
        w, n = self([(0, 1, minus_one, 0), (1, 1, 0, 1)]).stack()
        self.kernel = self.kernel * _scale_from_relations(w, n)


def _weil_psi_scale(p, n):
    """The s with psi(x) = e(s Tr(x) / p) for eta_1 on F_q, q = p^n:
    s = 2 for a prime q.  By the Davenport-Hasse relation the Gauss sum of
    psi over F_q is (-1|p)^((n-1)/2) p^((n-1)/2) times the one over F_p,
    while the table's sqrt(eps q) is p^((n-1)/2) times it, so the sign
    (-1|p)^((n-1)/2) moves into s."""
    return 2 * (-1) ** ((p - 1) // 2 * (n - 1) // 2)


class WeilModel(_Model):
    """eta_1 of PSL2(q), q = 3 mod 4: the odd half of the Weil
    representation of SL2(q) on C[F_q], with psi of `_weil_psi_scale`.
    An element with c = 0 sends f(y) to (a|q) psi(a b y^2) f(a y); any
    other has the kernel kappa (-c|q) q^-1/2 psi((a y^2 - 2 y z + d z^2)/c).
    -1 acts trivially on the odd functions, whose basis is
    (e_y - e_-y) / sqrt(2) for the y with y < -y in the field's encoding."""

    def __init__(self, model: GroupModel):
        spec = model.spec
        q = spec.q
        self.add, self.mul, self.neg, self.inv, tr = _field_arrays(spec)
        self.chi = -np.ones(q)          # the quadratic character off 0
        self.chi[self.mul[np.arange(q), np.arange(q)]] = 1
        half = np.array([y for y in range(1, q) if y < self.neg[y]])
        self.degree = len(half)
        self.pos = np.empty(q, dtype=np.intp)  # the basis row of +-x
        self.pos[half] = self.pos[self.neg[half]] = np.arange(len(half))
        self.sign = np.ones(q)                  # -1 where -x is the row
        self.sign[self.neg[half]] = -1
        self.half, self.y2 = half, self.mul[half, half]
        self.two_yz = self.mul[self.add[1, 1],
                               self.mul[half[:, None], half[None, :]]]
        scale = _weil_psi_scale(spec.p, spec.n)
        self.psi = np.exp(2j * np.pi * (scale * tr % spec.p) / spec.p)
        self.kernel = self.psi / np.sqrt(q)
        self._fix_scale(self.neg[1])

    def _monomial(self, els):
        a, b = els[:, 0], els[:, 1]
        ay = self.mul[a[:, None], self.half]
        vals = self.psi[self.mul[self.mul[a, b][:, None], self.y2]]
        return self.pos[ay], vals * (self.chi[a][:, None] * self.sign[ay])

    def _dense(self, els):
        # the odd part of the kernel: rho[y, z] - rho[y, -z]
        a, b, c, d = els.T
        add, mul = self.add, self.mul
        ci = self.inv[c][:, None, None]
        s = add[mul[a[:, None], self.y2][:, :, None],
                mul[d[:, None], self.y2][:, None, :]]
        out = (self.kernel[mul[ci, add[s, self.neg[self.two_yz]]]] -
               self.kernel[mul[ci, add[s, self.two_yz]]])
        flip = self.chi[self.neg[c]] < 0
        out[flip] = -out[flip]
        return out


class KirillovModel(_Model):
    """theta_1 of PSL2(q) = SL2(q), q even: the Kirillov model on C[F_q^x]
    of the cuspidal representation of a character nu of F_{q^2}^x that is
    trivial on F_q^x, with psi(x) = (-1)^Tr(x).  An element with c = 0
    sends f(x) to psi(a b x) f(a^2 x); any other has the kernel
    kappa psi((a x + d y) / c) j(x y / c^2), with the Bessel function
    j(u) = sum over N(t) = u of psi(Tr t) nu(t).

    F_{q^2} = F_q[s] / (s^2 + s + alpha) is held as pairs u0 + q u1 over
    F_q, for the first alpha that makes the polynomial irreducible, so
    that Tr(u0 + u1 s) = u1 and N(u0 + u1 s) = u0^2 + u0 u1 + alpha u1^2.
    nu = nu_0^k, with nu_0(t) = e(m / (q + 1)) where t^(q-1) = beta^m, for
    the eigenvalue beta = u0 + Tr s of norm 1 and least u0 of the b^1
    class representative; `_nu_exponent` sets k."""

    def __init__(self, model: GroupModel):
        q = model.q
        self.add, self.mul, _, self.inv, tr = _field_arrays(model.spec)
        add, mul = self.add, self.mul
        self.sgn = (-1.0) ** tr
        self.degree = q - 1
        self.x = np.arange(1, q)
        self.xy = mul[self.x[:, None], self.x[None, :]]
        r = np.arange(q)
        self.alpha = int(np.setdiff1d(r, add[mul[r, r], r])[0])
        a, _, _, d = model.class_reps[ClassLabel("b", 1)]
        t = add[a, d]
        beta = q * t + first(r, lambda x: self._norm(x, t) == 1)
        log = np.zeros(q * q, dtype=np.intp)      # on the powers of beta
        power = 1
        for i in range(q + 1):
            log[power] = i
            power = self._times(power, beta)
        u = np.arange(1, q * q)
        u0, u1 = u % q, u // q
        norm = self._norm(u0, u1)
        conj2 = self._times(add[u0, u1] + q * u1, add[u0, u1] + q * u1)
        inv = self.inv[norm]                # t^(q-1) = conj(t)^2 / N(t)
        m = log[mul[inv, conj2 % q] + q * mul[inv, conj2 // q]]
        nu = np.exp(2j * np.pi * (self._nu_exponent(q) * m % (q + 1)) /
                    (q + 1))
        self.kernel = np.zeros(q, dtype=np.complex128)
        np.add.at(self.kernel, norm, self.sgn[u1] * nu)
        self._fix_scale(1)

    def _norm(self, u0, u1):
        add, mul = self.add, self.mul
        return add[add[mul[u0, u0], mul[u0, u1]], mul[self.alpha, mul[u1, u1]]]

    def _times(self, u, v):
        q, add, mul = len(self.add), self.add, self.mul
        u0, u1, v0, v1 = u % q, u // q, v % q, v // q
        return add[mul[u0, v0], mul[self.alpha, mul[u1, v1]]] + \
            q * add[add[mul[u0, v1], mul[u1, v0]], mul[u1, v1]]

    @staticmethod
    def _nu_exponent(q):
        """The k with nu_0^k(beta) = e(1 / (q + 1)), so that the character
        theta_1(b^m) = -(nu(beta^m) + nu(beta^-m)) is the table's exactly:
        nu_0(beta) = e((q - 1) / (q + 1)), and k inverts q - 1 modulo
        q + 1."""
        return pow(q - 1, -1, q + 1)

    def _monomial(self, els):
        a, b = els[:, 0], els[:, 1]
        mul = self.mul
        cols = mul[mul[a, a][:, None], self.x] - 1
        return cols, self.sgn[mul[mul[a, b][:, None], self.x]].astype(
            np.complex128)

    def _dense(self, els):
        a, _, c, d = els.T
        mul = self.mul
        ci = self.inv[c]
        j = self.kernel[mul[mul[ci, ci][:, None, None], self.xy]]
        left = self.sgn[mul[mul[a, ci][:, None], self.x]]
        right = self.sgn[mul[mul[d, ci][:, None], self.x]]
        return j * (left[:, :, None] * right[:, None, :])


def realize_irreducible(model: GroupModel, table: CharacterTable,
                        target: Character, seed=0,
                        tol: Tolerances = TOL) -> UnitaryRep:
    """Unitary images with the exact character `target`: rho0 from its
    closed-form model (WeilModel for odd q, KirillovModel for even q), a
    degree-1 character from its values.

    Raises ToleranceExceeded unless, within tol, the class representatives'
    images are unitary, the images are a homomorphism on 300 pairs drawn
    with `seed`, and the trace equals the exact character at every class
    representative."""
    if not isinstance(model, GroupModel) or \
            (model.family, model.q) != (table.family, table.q):
        raise ValueError("realization needs the matrix model of the "
                         "table's group (class-data groups are exact-only)")
    if target.degree == 1:      # 1 x 1 monomial images: the values

        def formula(els):
            vals = np.array([[target.value_at(model.class_of(g)).to_complex()]
                             for g in els], dtype=complex)
            return Images(np.ones(len(vals), bool), np.zeros(vals.shape, int),
                          vals, np.empty((0, 1, 1)))
        formula.degree = 1
    elif target is rho0_character(table):
        formula = (KirillovModel if model.q % 2 == 0 else WeilModel)(model)
    else:
        raise ValueError(f"no explicit model of {target.name}")
    rep = UnitaryRep(model, formula)
    ud = rep.unitarity_defect()
    if _above(ud, tol.unitary):
        raise ToleranceExceeded(f"unitarity {ud:.2e}")
    if _above(rep.homomorphism_defect(np.random.default_rng(seed)),
              tol.homomorphism):
        raise ToleranceExceeded("homomorphism defect above tolerance")
    cd = rep.character_defect(target)
    if _above(cd, tol.character):
        raise ToleranceExceeded(f"character defect {cd:.2e}")
    return rep


def spectral_split(rep: UnitaryRep, g, tol: Tolerances = TOL):
    """Unitary diagonalizer of rep(g) and eigenvalue multiplicities.

    Eigenprojectors are computed by group averaging over <g>, so eigenvalues
    are snapped to the exact roots of unity of the element order.
    """
    model = rep.model
    n = model.element_order(g)
    a = rep.mat(g)
    powers = rep.stack_of(closure(model, [g]))    # 1, g, g^2, ...
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


def commutant_rank(rep: UnitaryRep, elements, seed=0, tol: Tolerances = TOL):
    """Numerical dimension of the commutant of rep restricted to a subgroup.

    The group average of a random self-adjoint operator is a generic
    element a of the commutant, a sum of A_i (x) 1 over the isotypic
    blocks: its eigenspaces are the copies of the irreducible constituents,
    m_i of them in block i.  The average b of a second one links two
    eigenspaces exactly when they lie in one block, so the linked pairs
    number sum m_i^2, the dimension.  Eigenvalues closer than
    tol.commutant_svd (relative) are one eigenspace, and smaller entries of
    b count as zero."""
    rng = np.random.default_rng(seed)
    d = rep.degree
    x = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    a, b = rep.average(elements, x + _h(x))
    w, u = np.linalg.eigh(a)
    starts = np.concatenate(([0], np.flatnonzero(
        np.diff(w) > tol.commutant_svd * np.max(np.abs(w))) + 1))
    linked = np.abs(u.conj().T @ b @ u) > tol.commutant_svd * _mnorm(b)
    blocks = np.add.reduceat(np.add.reduceat(linked, starts, axis=0),
                             starts, axis=1)
    return int(np.count_nonzero(blocks))


def _commutant_skews(rho0: UnitaryRep, subs, rngs):
    """Random skew-Hermitian elements of the commutants of the subgroups
    `subs`, (len(subs), len(rngs), d, d): a round per generator draws a
    normal x for each subgroup, real then imaginary part, and averages its
    skew part over the subgroup."""
    d = rho0.degree
    z = np.array([rng.standard_normal((len(subs), 2, d, d)) for rng in rngs])
    x = z[:, :, 0] + 1j * z[:, :, 1]
    return np.array([rho0.average(sub.elements, (y - _h(y)) / 2)
                     for sub, y in zip(subs, x.swapaxes(0, 1))])


def _check_gauge(t, rho0: UnitaryRep, sub, tol, name, where):
    """Raise unless t, a matrix or stack, is unitary and commutes with rho0
    on every element of the subgroup, within tol; a NaN fails.  The
    identity, as alpha is at the root, commutes and is not multiplied out."""
    eye = np.eye(t.shape[-1])
    if _above(_mnorm(t @ _h(t) - eye), tol):
        raise ToleranceExceeded(f"{name} not unitary")
    if not np.array_equal(t, eye) and \
            _above(rho0.kept(sub.elements).commutator_defect(t), tol):
        raise ToleranceExceeded(f"{name} leaves the {where} commutant")


# -- moduli points and the gauge action ------------------------------------------

@dataclass
class ModuliPoint:
    graph: OrbitGraph
    mats: dict                  # edge index -> unitary matrix, or a stack

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

    def draw(self, i):
        """The i-th point of a point whose matrices are stacks."""
        return ModuliPoint(self.graph, {e: m[i] for e, m in self.mats.items()})

    def symbol_images(self, rho0: UnitaryRep, rows, into):
        """Write into the (len(rows), d, d) stack `into` the images under
        rho0 of the word symbols at `rows` of graph.word_symbols:
        tau_s^H tau_e^H rho0(g_e) tau_w for x_e, tau_v^H rho0(g) tau_v for g
        in G_v (one batched product per vertex, from the images that rho0
        keeps for G_v), and conjugate transposes for exponent -1."""
        graph, tau_v = self.graph, self.tau_v
        places = graph.word_symbols[1]
        half = len(places)              # rows from here on: exponent -1
        direct, at = np.unique(rows % half, return_inverse=True)
        out = np.empty((len(direct),) + into.shape[1:], dtype=np.complex128)
        vertex, i = places[direct].T
        for k in np.flatnonzero(vertex < 0):
            e = graph.edges[i[k]]
            out[k] = tau_v[e.s].conj().T @ self.mats[i[k]].conj().T @ \
                rho0.mat(e.g) @ tau_v[e.w]
        for vi in np.unique(vertex[vertex >= 0]):
            ks = np.flatnonzero(vertex == vi)
            t = tau_v[vi]
            out[ks] = rho0.kept(graph.vertices[vi].sub.elements).stack(i[ks])
            if vi != graph.root:        # tau is the identity at the root
                out[ks] = t.conj().T @ out[ks] @ t
        np.take(out, at, axis=0, out=into, mode="clip")  # no buffered copy
        into[rows >= half] = _h(into[rows >= half])

    def check(self, rho0: UnitaryRep, tol: Tolerances = TOL):
        for ei, t in self.mats.items():
            _check_gauge(t, rho0, self.graph.edges[ei].sub, tol.action,
                         f"tau_{ei}", "stabilizer")


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


def identity_moduli_point(graph, degree):
    eye = np.eye(degree, dtype=np.complex128)
    return ModuliPoint(graph, {i: eye.copy() for i in range(len(graph.edges))})


def random_moduli_point(graph, rho0: UnitaryRep, rng, tol: Tolerances = TOL):
    point = ModuliPoint(graph, dict(enumerate(expm(_commutant_skews(
        rho0, [e.sub for e in graph.edges], [rng])[:, 0], tol))))
    point.check(rho0, tol)
    return point


def random_h_point(graph, rho0: UnitaryRep, rng):
    others = [i for i in range(len(graph.vertices)) if i != graph.root]
    mats = expm(_commutant_skews(
        rho0, [graph.vertices[i].sub for i in others], [rng])[:, 0])
    return HPoint(graph, {graph.root: np.eye(rho0.degree, dtype=np.complex128),
                          **dict(zip(others, mats))})


def rho_tau_eval(pres: BrownPresentation, rho0: UnitaryRep, tau, words):
    """The induced representation on a sequence of words (the identity on
    an empty one), as an (n, d, d) array: at the moduli point `tau`, or at
    tau[i] for the i-th word.  The words run in chunks whose distinct
    images, one per point and symbol, and accumulators fit in
    _CHUNK_BYTES.  A chunk multiplies its words longest first, position j
    over the words longer than j, left to right as word by word."""
    points = [tau] * len(words) if isinstance(tau, ModuliPoint) else tau
    index = pres.graph.word_symbols[0]
    try:
        rows = [[index[sym] for sym in w] for w in words]
    except KeyError as e:
        raise ValueError(f"unknown word symbol {e.args[0]!r}") from None
    d, n_rows = rho0.degree, len(index)
    out = np.repeat(np.eye(d, dtype=np.complex128)[None], len(rows), axis=0)
    distinct = list({id(p): p for p in points}.values())
    slot = {id(p): i for i, p in enumerate(distinct)}
    lengths = np.array([len(r) for r in rows], dtype=np.intp)
    ends = np.cumsum(lengths)
    # every symbol of every word as one key: its point's index, then row
    keys = np.repeat([slot[id(p)] for p in points], lengths) * n_rows + \
        np.fromiter((x for r in rows for x in r), np.intp, lengths.sum())
    room = _CHUNK_BYTES // (16 * d * d)     # matrices per chunk
    start = 0
    while start < len(rows):
        # the chunk ends before its new keys plus accumulators pass `room`
        first = ends[start] - lengths[start]
        new = np.unique(keys[first:], return_index=True)[1]
        need = np.cumsum(1 + np.bincount(np.searchsorted(
            ends[start:] - first, new, "right"), minlength=len(rows) - start))
        stop = start + max(1, int(np.searchsorted(need, room, "right")))
        uniq, inv = np.unique(keys[first:ends[stop - 1]], return_inverse=True)
        images = np.empty((len(uniq), d, d), dtype=np.complex128)
        bounds = np.searchsorted(uniq, np.arange(len(distinct) + 1) * n_rows)
        for p, a, b in zip(distinct, bounds[:-1], bounds[1:]):
            if a < b:
                p.symbol_images(rho0, uniq[a:b] % n_rows, images[a:b])
        size = lengths[start:stop]
        order = np.argsort(-size, kind="stable")
        heads = (np.cumsum(size) - size)[order]     # each word's first key
        acc = images[inv[heads[:np.count_nonzero(size)]]]
        for j in range(1, size.max()):
            n = np.count_nonzero(size > j)
            acc[:n] = acc[:n] @ images[inv[heads[:n] + j]]
        out[start + order[:len(acc)]] = acc
        start = stop
    return out


def h_action(graph, rho0: UnitaryRep, tau: ModuliPoint,
             alpha: HPoint, tol: Tolerances = TOL) -> ModuliPoint:
    """(tau . alpha)_e = rho0(g_e) alpha_w^-1 rho0(g_e)^-1 tau_e alpha_s."""
    alpha.check(rho0, tol)
    mats = {}
    for i, e in enumerate(graph.edges):
        ge = rho0.mat(e.g)
        mats[i] = ge @ _h(alpha.mats[e.w]) @ _h(ge) @ tau.mats[i] @ \
            alpha.mats[e.s]
    return ModuliPoint(graph, mats)


def gauge_defect(pres: BrownPresentation, rho0: UnitaryRep, rng, words,
                 tol: Tolerances = TOL):
    """max |rho_tau(w) - rho_{tau . alpha}(w)| over draws (tau, alpha), one
    per list of `words`, drawn as random_moduli_point then random_h_point
    would draw them.  The draws run stacked: one group average per
    subgroup, one eigh, and the checks (ToleranceExceeded) over all."""
    graph, n_edges = pres.graph, len(pres.graph.edges)
    others = [i for i in range(len(graph.vertices)) if i != graph.root]
    subs = [c.sub for c in graph.edges + [graph.vertices[i] for i in others]]
    mats = expm(_commutant_skews(rho0, subs, [rng] * len(words)), tol)
    tau = ModuliPoint(graph, dict(enumerate(mats[:n_edges])))
    tau.check(rho0, tol)
    moved = h_action(graph, rho0, tau, HPoint(graph, {
        graph.root: np.eye(rho0.degree, dtype=np.complex128),
        **dict(zip(others, mats[n_edges:]))}), tol)
    worst = 0.0
    for i, ws in enumerate(words):
        values = rho_tau_eval(pres, rho0, [tau.draw(i)] * len(ws) +
                              [moved.draw(i)] * len(ws), ws + ws)
        worst = np.maximum(worst, _mnorm(values[:len(ws)] - values[len(ws):]))
    return worst


def word_differential_check(pres: BrownPresentation, rho0: UnitaryRep,
                            legs, seed=0, tol: Tolerances = TOL):
    """word_differential_checks of one closed path with its seed."""
    return word_differential_checks(pres, rho0, [legs], [seed], tol)[0]


def word_differential_checks(pres: BrownPresentation, rho0: UnitaryRep,
                             paths, seeds, tol: Tolerances = TOL):
    """Directional derivatives of the word map at the identity moduli
    point, along the tangent drawn with each seed: the closed-edge-path
    formula of each path against central finite differences of step
    _FD_STEP, as (formula, finite_difference, max_error) per path.  The
    paths run stacked: one group average per edge, one eigh, one word
    evaluation."""
    graph, n = pres.graph, len(paths)
    words = [path_to_word(pres, legs) for legs in paths]
    tangents = _commutant_skews(rho0, [e.sub for e in graph.edges],
                                [np.random.default_rng(s) for s in seeds])
    ends = [ModuliPoint(graph, dict(enumerate(m))) for m in
            expm(np.array([_FD_STEP * tangents, -_FD_STEP * tangents]),
                 tol)]
    values = rho_tau_eval(pres, rho0, [p.draw(i) for p in ends
                                       for i in range(n)], words + words)
    out = []
    for i, legs in enumerate(paths):
        ra = rho0.stack_of([a for a, _, _ in legs])
        steps = np.array([eps * tangents[ei, i] for _, ei, eps in legs])
        formula = -(ra @ steps @ _h(ra)).sum(axis=0)
        fd = (values[i] - values[n + i]) / (2 * _FD_STEP)
        out.append((formula, fd, _mnorm(formula - fd)))
    return out
