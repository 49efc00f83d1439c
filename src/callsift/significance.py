"""Significance testing over per-sample correctness vectors.

Workflow mirrors standard multiple-comparison hygiene: Cochran's Q as the
omnibus test over all classifiers, then pairwise McNemar tests gated on the
omnibus rejection, compared against a Sidak-corrected alpha.

The chi-square survival function is computed here via the regularized upper
incomplete gamma function (power series for x < a+1, continued fraction
otherwise) so the package carries no runtime statistics dependency; the
test suite cross-checks it against an independent implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GAMMA_TOL = 1e-10
_GAMMA_MAX_ITER = 10_000
# below this many discordant pairs the exact binomial McNemar variant is used
EXACT_MCNEMAR_THRESHOLD = 25


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a+1)."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_GAMMA_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _GAMMA_TOL:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction
    (Lentz's method; appropriate for x >= a+1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_TOL:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a), for a > 0, x >= 0."""
    if a <= 0:
        raise ValueError("shape parameter must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


def chi_square_sf(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        return 1.0
    return regularized_upper_gamma(df / 2.0, x / 2.0)


def _as_binary_matrix(bits) -> np.ndarray:
    m = np.asarray(bits, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("correctness matrix must be 2-D (samples x models)")
    if m.shape[0] < 1 or m.shape[1] < 2:
        raise ValueError("need at least 1 sample and 2 models")
    if not np.isin(m, (0, 1)).all():
        raise ValueError("correctness entries must be 0 or 1")
    return m


def cochran_q(bits) -> tuple[float, float]:
    """Omnibus test that k >= 3 classifiers have equal correctness rates.

    With column totals C_j, row totals R_i and grand total T over the
    N x k 0/1 matrix:

        Q = (k - 1) * (k * sum(C_j^2) - T^2) / (k * T - sum(R_i^2))

    Q is chi-square distributed with k-1 degrees of freedom under the null.
    Rows where every model agrees contribute nothing; when all rows are
    constant the statistic is defined as 0 with p = 1.
    """
    m = _as_binary_matrix(bits)
    k = m.shape[1]
    if k < 3:
        raise ValueError("Cochran's Q requires at least 3 models")
    col = m.sum(axis=0).astype(np.float64)
    row = m.sum(axis=1).astype(np.float64)
    t = float(m.sum())
    denom = k * t - float((row**2).sum())
    if denom == 0.0:
        return 0.0, 1.0
    q = (k - 1) * (k * float((col**2).sum()) - t * t) / denom
    return q, chi_square_sf(q, k - 1)


def mcnemar(a, b) -> tuple[float, float]:
    """Paired comparison of two correctness vectors.

    With d1 = |a correct, b wrong| and d2 = |a wrong, b correct|: few
    discordant pairs (< 25) use the exact two-sided binomial
    p = min(1, 2 * BinomCdf(min(d1, d2); d1 + d2, 1/2)) and report
    min(d1, d2) as the statistic; otherwise the continuity-corrected
    chi-square statistic (|d1 - d2| - 1)^2 / (d1 + d2) with 1 df.
    No discordant pairs at all gives (0, 1).
    """
    av = np.asarray(a, dtype=np.int64)
    bv = np.asarray(b, dtype=np.int64)
    if av.shape != bv.shape or av.ndim != 1:
        raise ValueError("correctness vectors must be equal-length 1-D")
    d1 = int(((av == 1) & (bv == 0)).sum())
    d2 = int(((av == 0) & (bv == 1)).sum())
    n = d1 + d2
    if n == 0:
        return 0.0, 1.0
    if n < EXACT_MCNEMAR_THRESHOLD:
        lo = min(d1, d2)
        cdf = sum(math.comb(n, i) for i in range(lo + 1)) / 2.0**n
        return float(lo), min(1.0, 2.0 * cdf)
    stat = (abs(d1 - d2) - 1.0) ** 2 / n
    return stat, chi_square_sf(stat, 1)


def sidak_alpha(alpha: float, m: int) -> float:
    """Family-wise corrected per-comparison alpha: 1 - (1 - alpha)^(1/m)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if m < 1:
        raise ValueError("family size must be >= 1")
    if m == 1:
        return alpha  # exact identity; the power form wobbles in the last ulp
    return 1.0 - (1.0 - alpha) ** (1.0 / m)


@dataclass(frozen=True)
class PairResult:
    a: str
    b: str
    statistic: float
    p: float
    significant: bool
    method: str  # "exact-binomial" or "chi-square"


@dataclass(frozen=True)
class Omnibus:
    """Cochran's Q over all models (McNemar's test when there are two)."""

    q: float
    p: float
    rejected: bool


@dataclass(eq=False)
class SignificanceMatrix:
    models: list[str]
    alpha: float
    corrected_alpha: float
    m_pairs: int
    omnibus: Omnibus
    pairs: list[PairResult]  # model i before model j, for i < j in ``models``
    format_version: int = 1

    def pair(self, a: str, b: str) -> PairResult:
        for r in self.pairs:
            if (r.a, r.b) in ((a, b), (b, a)):
                return r
        raise KeyError((a, b))


def pairwise_significance(bits, model_names: list[str], alpha: float = 0.05) -> SignificanceMatrix:
    """Omnibus-gated pairwise comparison of all classifiers.

    Cochran's Q runs first (when k >= 3).  If it fails to reject at alpha,
    every pair is reported non-significant without further testing.
    Otherwise all k(k-1)/2 McNemar p-values are compared against the
    Sidak-corrected alpha.
    """
    m = _as_binary_matrix(bits)
    k = m.shape[1]
    if len(model_names) != k:
        raise ValueError("model_names must match matrix columns")
    n_pairs = k * (k - 1) // 2
    corrected = sidak_alpha(alpha, n_pairs)
    if k >= 3:
        q, q_p = cochran_q(m)
        rejected = q_p < alpha
    else:
        # with two models the pairwise test is the omnibus test
        q, q_p = mcnemar(m[:, 0], m[:, 1])
        rejected = q_p < alpha
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            name_a, name_b = model_names[i], model_names[j]
            stat, p = mcnemar(m[:, i], m[:, j])
            discordant = int((m[:, i] != m[:, j]).sum())
            method = "exact-binomial" if discordant < EXACT_MCNEMAR_THRESHOLD else "chi-square"
            significant = rejected and p < corrected
            pairs.append(PairResult(
                a=name_a, b=name_b, statistic=stat, p=p,
                significant=significant, method=method,
            ))
    return SignificanceMatrix(
        models=list(model_names),
        alpha=alpha,
        corrected_alpha=corrected,
        m_pairs=n_pairs,
        omnibus=Omnibus(q=q, p=q_p, rejected=rejected),
        pairs=pairs,
    )


def render_significance_table(matrix: SignificanceMatrix) -> str:
    """Symmetric YES/NO table of pairwise significance."""
    names = matrix.models
    width = max(len(n) for n in names) + 2
    header = " " * width + "".join(n.rjust(width) for n in names)
    lines = [header]
    for i, a in enumerate(names):
        cells = []
        for j, b in enumerate(names):
            if i == j:
                cells.append("-".rjust(width))
            else:
                cells.append(
                    ("YES" if matrix.pair(a, b).significant else "NO").rjust(width)
                )
        lines.append(a.ljust(width) + "".join(cells))
    lines.append("")
    omnibus = matrix.omnibus
    lines.append(
        f"alpha={matrix.alpha}  corrected_alpha={matrix.corrected_alpha:.6f}  "
        f"pairs={matrix.m_pairs}  omnibus Q={omnibus.q:.4f} "
        f"p={omnibus.p:.4f} rejected={'yes' if omnibus.rejected else 'no'}"
    )
    return "\n".join(lines)
