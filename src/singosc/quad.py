"""Integration utilities: Cauchy principal value, near-origin
integrability classification, Gram matrices, matrix elements and
overlaps of states.

Every integral runs on one composite Gauss-Legendre rule (_rule): uniform
panels, the first split geometrically toward 0, [h r^(j+1), h r^j] with
r = 0.15 (the innermost one reaching 0), which resolves an endpoint power
there at an exponential rate (hp grading, Schwab, p- and hp-Finite Element
Methods, 1998).  Each panel carries 20 points, and a 10-point copy of the
same panels checks them: a gap above 1e-8 max(1, |value|), or a value
that is not finite, raises the caller's error.

Overlaps and matrix elements <psi_i|w|psi_j> of bound states, with w an
even multiplication operator such as 1/(2 x^2), use the rule whose box and
panels follow the batch's top state, of energy eps_top: it ends at
model._box(alpha, eps_top) + 3, the oracles' box and 3 more, rounded up to
a whole panel, on panels h = 0.5 / m wide, m = max(1, ceil(k / 9)) with
k = sqrt(2 eps_top), so no panel spans more than 4.5 radians of the top
state; every eps_top <= 40.5 keeps h = 0.5.  A failed check raises
DepthExceeded, and so do a rule of more than 10 000 panels and a factor
of psi that overflows, with no numpy warning.  A state's psi on a rule
comes from the cached _Entry of its beta and the rule, which says what it
keeps.  gram and overlap take their psi through one lookup (_on_rule), so
a pairwise loop of overlaps evaluates each (state, rule) pair once; gram
checks every entry it returns, overlap the one product psi1 psi2 it sums.
Half-line inner products also ship a Gauss-Laguerre path in y = x^2,
exact for the bound states' polynomial integrands: the independent
second route, whose rules have a multiple of 8 nodes, built in numpy by
Golub-Welsch (_gauss_laguerre), so quad loads no scipy; one cache entry
holds a rule's weights and the rows L_0, L_1, ... of one a on its nodes.
Principal values (cauchy_pv) run on the same Gauss-Legendre rule; f must
take arrays, and the limits must be finite.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DepthExceeded, DomainMismatch, ParameterError, PVDivergent
from .model import Domain, Parity, _box
from .specfun import _laguerre_rows
from .spectrum import EigenState

# The composite rule: panels at most _WIDTH_MAX wide (_WIDTH_MAX / m for overlaps,
# m = max(1, ceil(k / _K_PER_SPLIT)) for the top wavenumber k, out to _box +
# _GRAM_TAIL), at most _MAX_PANELS, the first split into _GEOM_LEVELS panels of
# ratio _GEOM_RATIO; _Q_FINE points each, checked by _Q_COARSE to _GAP_TOL
_WIDTH_MAX, _K_PER_SPLIT, _GRAM_TAIL, _MAX_PANELS = 0.5, 9.0, 3.0, 10_000
_GEOM_RATIO, _GEOM_LEVELS = 0.15, 24
_Q_FINE, _Q_COARSE, _GAP_TOL = 20, 10, 1e-8
# A Gram rule's _Entry keeps at most this many doubles of Laguerre rows and
# psi values (2.4 MB)
_KEEP_MAX = 300_000
# Gauss-Laguerre rules have a multiple of _GL_STEP nodes, so overlaps share
# them, and at most _GL_MAX: from 384 nodes L_n overflows at the outer nodes
# for every pair, so the route refuses such pairs before it builds a rule
_GL_STEP, _GL_MAX = 8, 376


class IntegrabilityClass(enum.Enum):
    INTEGRABLE = "integrable"
    NON_INTEGRABLE = "non_integrable"


@functools.lru_cache(maxsize=64)
def _rule(width: float, panels: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Read-only nodes and weights of the composite rule on panels of the
    given width up to panels x width, the first split geometrically: the
    20-point rule's, then the 10-point rule's, and where they split.

    Cached, so the pairs of one batch share a few rules; built on first
    use, as numpy.polynomial is not loaded with the package."""
    from numpy.polynomial.legendre import leggauss

    inner = width * _GEOM_RATIO ** np.arange(_GEOM_LEVELS - 1, -1, -1)
    outer = width * np.arange(2, panels + 1)
    edges = np.concatenate(([0.0], inner, outer))
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2.0
    nodes, weights = [], []
    for q in (_Q_FINE, _Q_COARSE):
        t, w = leggauss(q)
        nodes.append((lo + half * (t + 1.0)).ravel())
        weights.append((half * w).ravel())
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights, _Q_FINE * len(lo)


def _check_gap(fine, coarse, error: type, what: str) -> None:
    """Raise error unless all values are finite and the 10-point ones lie
    within _GAP_TOL max(1, |v|) of the 20-point ones, v the largest of those."""
    gap = float(np.abs(fine - coarse).max())
    if not math.isfinite(gap):
        raise error(f"{what}: a value is not finite")
    # a gap within _GAP_TOL passes at any scale >= 1: only a wider one needs v
    scale = 1.0 if gap <= _GAP_TOL else float(np.abs(fine).max())
    if not gap <= _GAP_TOL * scale < math.inf:
        rules = f"the {_Q_FINE}- and {_Q_COARSE}-point rules"
        raise error(f"{what}: {rules} differ by {gap:.2e} > {_GAP_TOL:.0e} x {max(scale, 1.0):.3g}")


def _integral(g: Callable, length: float, anchor: float, error: type, what: str) -> float:
    """int_0^length g(t) dt on _rule(1, P) scaled to [0, length], graded
    toward t = 0, P = min(_MAX_PANELS, max(1, ceil(length / _WIDTH_MAX))).

    Nodes are rounded to (anchor + t) - anchor, so anchor +- t are exact and
    a fold about anchor stays symmetric; those that round to 0 are dropped,
    so g never sees t = 0.  Returns the 20-point value; raises as _check_gap.
    """
    panels = min(_MAX_PANELS, max(1, math.ceil(length / _WIDTH_MAX)))
    nodes, weights, split = _rule(1.0, panels)
    scale = length / panels
    t = (anchor + scale * nodes) - anchor
    kept = t > 0.0
    cut = np.count_nonzero(kept[:split])
    with np.errstate(over="ignore", invalid="ignore"):  # _check_gap raises
        terms = scale * weights[kept] * g(t[kept])
        fine, coarse = terms[:cut].sum(), terms[cut:].sum()
        _check_gap(fine, coarse, error, what)
    return float(fine)


def cauchy_pv(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, c: float) -> float:
    """Cauchy principal value of f, which takes arrays, over the finite
    interval [a, b] with singular point c.

    Folds the symmetric part about the pole: with d = min(c - a, b - c),
    PV int_{c-d}^{c+d} f = int_0^d [f(c+t) + f(c-t)] dt, an ordinary
    integral that cancels the odd part of the singularity (Davis &
    Rabinowitz, Methods of Numerical Integration); PVDivergent when it
    fails, as for an even 1/x^2.  The one-sided rest of [a, b] is added
    as int_0^{ln(rest/d)} f(c +- d e^u) d e^u du, on panels that grow
    geometrically in x; DepthExceeded when it fails, as for a singularity
    at a or b or fast oscillation far from the pole (cos(x)/x on
    [-1, 50]), which no caller needs.  An infinite limit raises
    ParameterError.
    """
    if not -math.inf < a < c < b < math.inf:
        raise ParameterError(f"need finite a < c < b, got a = {a}, c = {c}, b = {b}")
    left, right = c - a, b - c
    d = min(left, right)
    value = _integral(lambda t: f(c + t) + f(c - t), d, c, PVDivergent, f"the PV at {c}")
    if left != right:
        sign = 1.0 if right > left else -1.0

        def rest(u: np.ndarray) -> np.ndarray:
            x = d * np.exp(u)
            return f(c + sign * x) * x

        length = math.log(max(left, right) / d)
        value += _integral(rest, length, 0.0, DepthExceeded, f"the rest of [{a}, {b}]")
    return value


def integrability_class(p: float) -> IntegrabilityClass:
    """Classify int_0 |x|^p dx near the origin: integrable iff p > -1."""
    if p > -1:
        return IntegrabilityClass.INTEGRABLE
    return IntegrabilityClass.NON_INTEGRABLE


def _check_compatible(s1: EigenState, s2: EigenState) -> None:
    if s1.domain != s2.domain:
        raise DomainMismatch(f"domains differ: {s1.domain} vs {s2.domain}")
    if s1.alpha != s2.alpha:
        raise DomainMismatch(f"alpha differs: {s1.alpha} vs {s2.alpha}")


def _rule_size(states: Sequence[EigenState]) -> tuple[int, int]:
    """(m, panels) of the rule for these states: panels _WIDTH_MAX / m wide,
    as many as reach _box + _GRAM_TAIL of the top energy.  Raises
    DepthExceeded past _MAX_PANELS."""
    top = max(s.energy_eps for s in states)
    m = max(1, math.ceil(math.sqrt(2.0 * top) / _K_PER_SPLIT))
    panels = math.ceil((_box(states[0].alpha, top) + _GRAM_TAIL) * m / _WIDTH_MAX)
    if panels > _MAX_PANELS:
        raise DepthExceeded(
            f"the rule for eps = {top:.6g} needs {panels} panels > {_MAX_PANELS}"
        )
    return m, panels


class _Entry:
    """One beta on one Gram rule: the rule's nodes, x^(beta+1) and
    e^(-x^2/2) on them, shared by every state of the beta, the rows
    L_0 .. L_k of specfun._laguerre_rows in y = x^2 for a = beta + 1/2,
    which a longer tuple replaces, and each state's read-only psi, kept by
    (n, norm_const).  EigenState._profile multiplies the factors, as psi
    does, bit for bit.  Threads may each run a pass and make a psi; all get
    the same values, and the last rows kept win.  Factors and passes run
    under np.errstate, and one that is not finite raises DepthExceeded, so
    psi multiplies finite factors only.

    _entry caches 32 entries, keyed on (beta, m, panels).  An entry holds
    2 N doubles of factors for the rule's N nodes, the nodes (N more once
    _rule's cache has let them go) and at most _KEEP_MAX doubles of rows
    and psi: 2.4 MB at the 1 200-1 500 nodes of an N = 12 Gram matrix, and
    at most 9.6 MB at the 300 690 nodes of _MAX_PANELS, so 308 MB in all."""

    def __init__(self, beta: float, m: int, panels: int) -> None:
        self.nodes = _rule(_WIDTH_MAX / m, panels)[0]
        self.beta, self.rows, self.kept = beta, (), {}
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self.power = np.power(self.nodes, beta + 1.0)
            self.decay = np.exp(-0.5 * (self.nodes * self.nodes))
        if not np.isfinite(self.power).all():
            raise DepthExceeded(f"x^(beta+1) at beta = {beta:.6g} overflows on the Gram rule")

    def psi(self, states: Sequence[EigenState]) -> dict:
        """{(n, norm_const): psi} for the states of the entry's beta, new
        ones from one pass that goes on from the kept rows.  A request whose
        rows and psi fit _KEEP_MAX doubles keeps them (racing threads may
        pass it by a request each); any other holds only the rows it asks
        for and keeps nothing."""
        kept = self.kept
        new = {(s.n, s.norm_const) for s in states if s.beta == self.beta}.difference(kept)
        if not new:
            return kept
        rows, top, size = self.rows, max(new)[0], len(self.nodes)
        keep = (max(top + 1, len(rows)) + len(kept) + len(new)) * size <= _KEEP_MAX
        if top >= len(rows):
            y = self.nodes * self.nodes
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                more = itertools.islice(_laguerre_rows(self.beta + 0.5, y, rows), top + 1 - len(rows))
                if keep:
                    rows = rows + tuple(more)
                else:
                    wanted = {n for n, _ in new}
                    rows = {n: row for n, row in enumerate(itertools.chain(rows, more)) if n in wanted}
            # a row that overflows at a node stays inf or NaN there in every later row
            if not np.isfinite(rows[top]).all():
                raise DepthExceeded(f"L_{top}^({self.beta + 0.5:.6g}) overflows on the Gram rule")
        out = kept if keep else dict(kept)
        for n, norm_const in new:
            values = EigenState._profile(norm_const, self.power, self.decay, rows[n])
            values.flags.writeable = False
            out[n, norm_const] = values
        if keep:
            self.rows = rows
        return out


_entry = functools.lru_cache(maxsize=32)(_Entry)


def _on_rule(states: Sequence[EigenState], m: int, panels: int) -> list:
    """Each state's read-only psi on _rule(_WIDTH_MAX / m, panels), asking
    each beta's _entry once: gram and overlap meet the same hits, passes
    and errors."""
    kept = {b: _entry(b, m, panels).psi(states) for b in {s.beta for s in states}}
    return [kept[s.beta][s.n, s.norm_const] for s in states]


def _sums(a: np.ndarray, b: np.ndarray, weights: np.ndarray, split: int) -> tuple:
    """The 20- and the 10-point sums of (a b) w over the rule's nodes: two
    numbers for one array b, two rows for a stack of them.  gram and
    overlap both sum here, so their entries are one expression."""
    # the ndarray methods skip numpy's function wrappers, about 5% of an
    # overlap-check benchmark op
    terms = a * b * weights
    return terms[..., :split].sum(axis=-1), terms[..., split:].sum(axis=-1)


def gram(
    states: Sequence[EigenState],
    weight: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Matrix G[i, j] = <states[i]| w |states[j]> of the multiplication
    operator w(x) (the Gram matrix when weight is None) on the composite
    Gauss-Legendre rule of the states' top energy.

    Each state is evaluated once on the nodes of both rules, from one
    Laguerre recurrence pass per beta and rule, and its psi is kept across
    calls in the cached _Entry of its beta and the rule, which _on_rule asks
    once per beta; w is evaluated once, on the same positive nodes, and
    multiplies the rule's weights.  On the full line w must be even.  Entry
    (i, j) sums psi_i psi_j w times the rule's weight over the nodes in one
    fixed order (_sums, which overlap shares), so the other states enter
    only through the rule: with no weight an entry whose pair holds the top
    energy equals overlap(states[i], states[j]) bit for bit, and G is
    symmetric.  On the full line cross-parity entries are 0 exactly (odd
    integrand on a symmetric domain) and same-parity ones are twice the
    positive half-axis.  Every entry returned is checked, the diagonal
    included: raises DepthExceeded when the 20- and the 10-point rule
    differ by more than 1e-8 max(1, |G|) in some entry, as for a w
    psi_i psi_j that is not integrable at the origin (the diagonal of a
    beta_minus state from alpha = 0.35 on), or a value is not finite.
    """
    if not states:
        raise ParameterError("a Gram matrix needs at least one state")
    for s in states[1:]:
        _check_compatible(states[0], s)
    m, panels = _rule_size(states)
    nodes, weights, split = _rule(_WIDTH_MAX / m, panels)
    if weight is not None:
        weights = weights * weight(nodes)
        if not np.isfinite(weights).all():
            raise DepthExceeded("the weight is not finite on the nodes of the Gram rule")
    psi = np.array(_on_rule(states, m, panels))
    fine, coarse = np.empty((2, len(states), len(states)))
    for i, row in enumerate(psi):  # one row at a time: memory stays N x nodes
        fine[i], coarse[i] = _sums(row, psi, weights, split)
    if states[0].domain is Domain.FULL_LINE:
        even = np.array([s.parity is Parity.EVEN for s in states])
        same = even[:, None] == even[None, :]
        fine = np.where(same, 2.0 * fine, 0.0)
        coarse = np.where(same, 2.0 * coarse, 0.0)
    _check_gap(fine, coarse, DepthExceeded, f"Gram matrix of {len(states)} states")
    return fine


def overlap(s1: EigenState, s2: EigenState) -> float:
    """Inner product <s1|s2>, equal to gram((s1, s2))[0, 1] bit for bit
    wherever that does not raise.

    It takes each state's psi from the cache of the pair's Gram rule
    through _on_rule, as gram does, and sums one product, psi1 psi2, on
    the 20- and the 10-point rule (_sums); the gap check covers that sum,
    the integral it returns, and its text names the pair ("overlap of
    n = 0 and n = 0: ...").  So it raises where its own integral or a
    factor of psi fails, with gram's type and text for a factor, a domain
    or an alpha, but unlike gram it never integrates either state's psi^2:
    a beta_plus/beta_minus pair, whose product goes as x at the origin,
    returns where gram raises on the beta_minus diagonal.  Cross-parity
    full-line overlaps are 0 exactly and evaluate nothing.
    """
    _check_compatible(s1, s2)
    if s1.domain is Domain.FULL_LINE and s1.parity is not s2.parity:
        return 0.0
    pair = (s1, s2)
    m, panels = _rule_size(pair)
    _, weights, split = _rule(_WIDTH_MAX / m, panels)
    fine, coarse = _sums(*_on_rule(pair, m, panels), weights, split)
    if s1.domain is Domain.FULL_LINE:
        fine, coarse = 2.0 * fine, 2.0 * coarse
    _check_gap(fine, coarse, DepthExceeded, f"overlap of n = {s1.n} and n = {s2.n}")
    return float(fine)


def _gauss_laguerre(count: int, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the count-point Gauss rule for y^w e^-y on
    (0, inf), w > -1, in numpy, in place of scipy.special.roots_genlaguerre
    (Golub & Welsch, Math. Comp. 23 (1969) 221).

    The nodes are the eigenvalues of the symmetric Jacobi matrix, diagonal
    2k + w + 1 and off-diagonal -sqrt(k (k + w)), polished by one Newton
    step.  The step evaluates L_M^(w) by the normalized difference
    recurrence of scipy's eval_genlaguerre, not by specfun._laguerre_rows:
    p_k = L_k^(w) / C(k + w, k) and d_k = p_k - p_(k-1), so p_k(0) = 1,
    (k + w + 1) d_(k+1) = k d_k - y p_k and y L_M' / L_M = M d_M / p_M;
    the plain recurrence leaves nodes up to 4e-13 off.  The weights are
    1 / (y L_M'^2), L_M' carried to the polished node by the Laguerre
    equation at a root, L'' / L' = (y - w - 1) / y, and scaled to sum to
    Gamma(w + 1).  Warns where L_M or the sum overflows; the caller
    silences that and checks its sum."""
    try:
        total = math.gamma(w + 1.0)
    except OverflowError:  # every weight is inf, and the caller's sum too
        total = math.inf
    k = np.arange(1, count)
    jacobi = np.diag(2.0 * np.arange(count) + w + 1.0)
    jacobi[k, k - 1] = -np.sqrt(k * (k + w))  # eigvalsh reads the lower triangle
    y = np.linalg.eigvalsh(jacobi)
    d = -y / (w + 1.0)
    p = 1.0 + d
    for j in range(1, count):
        d = (j * d - y * p) / (j + w + 1.0)
        p += d
    step = y * p / (count * d)
    slope = d / y * (1.0 - step * (y - w - 1.0) / y)  # L_M' at the polished node / (M C(M + w, M))
    weights = 1.0 / ((y - step) * slope * slope)
    return y - step, weights * (total / weights.sum())


@functools.lru_cache(maxsize=32)
def _laguerre_table(a: float, count: int, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights of the count-point generalized Gauss-Laguerre rule
    for y^w e^-y (_gauss_laguerre) and rows L_0^(a) .. L_(count-1)^(a) on
    its nodes, every degree a pair on the rule takes, from one
    _laguerre_rows pass.  Every pair of one Gram matrix shares w, and
    counts are multiples of _GL_STEP, so an N-state matrix needs about
    N / 4 entries; a = beta + 1/2, so the alpha = 0 branches differ in it,
    and each builds its own rule.  Silent where the rule's polish or a row
    overflows (the caller checks its sum); at most _GL_MAX^2 doubles
    (1.1 MB) an entry, 36 MB in all."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nodes, weights = _gauss_laguerre(count, w)
        rows = np.array(list(itertools.islice(_laguerre_rows(a, nodes), count)))
    weights.flags.writeable = rows.flags.writeable = False
    return weights, rows


def overlap_halfline_gauss(s1: EigenState, s2: EigenState) -> float:
    """Half-line inner product via y = x^2 and generalized Gauss-Laguerre.

    int_0^inf psi1 psi2 dx = (A1 A2 / 2) int_0^inf y^w e^-y L_n1 L_n2 dy
    with w = (beta1 + beta2 + 1)/2.  An M-node rule is exact up to degree
    2M - 1, so any M >= n1 + n2 + 1 integrates the polynomial part
    exactly; M is the smallest multiple of 8 that is, so the pairs of one
    Gram matrix share a few rules, each cached with the rows of L_n for one
    a = beta + 1/2 (_laguerre_table).  Raises ParameterError when the
    weighted sum is not finite, and before any rule is built for
    M > _GL_MAX, where it never is.  The text names the cause: weights
    that are not finite (Gamma(w + 1) overflows past w = 170.6, from
    alpha of about 29 241, and so does the polish of the 368-node rule at
    w = 0.74), or else L_n^2 overflowing at the outer nodes.  On the
    diagonal L_n^2 overflows from n = 124 at alpha = -0.2, 7.9 and 45.96,
    but from 123 at alpha = 157.3 and 122 at alpha = 1000, where the
    rounded-up rule's outer node lies past that of the exact n1 + n2 + 1
    rule.
    """
    _check_compatible(s1, s2)
    if s1.domain is not Domain.HALF_LINE:
        raise DomainMismatch("Gauss-Laguerre path is defined for half-line states")
    w = (s1.beta + s2.beta + 1.0) / 2.0
    count = _GL_STEP * math.ceil((s1.n + s2.n + 1) / _GL_STEP)
    if count > _GL_MAX:  # the sum of every such pair overflows: build no rule
        total = math.inf
    else:
        (weights, rows1), (_, rows2) = (_laguerre_table(s.beta + 0.5, count, w) for s in (s1, s2))
        with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
            total = float(np.dot(weights, rows1[s1.n] * rows2[s2.n]))
    if not np.isfinite(total):
        if count <= _GL_MAX and not np.isfinite(weights).all():
            cause = (f"the weights of the {count}-node rule for w = {w:.6g} are not "
                     "(Gamma(w + 1) or the polish overflows)")
        else:
            cause = "L_n overflows at the outer nodes"
        raise ParameterError(f"Gauss-Laguerre sum for n = {s1.n}, {s2.n} is not finite: {cause}")
    return 0.5 * s1.norm_const * s2.norm_const * total
