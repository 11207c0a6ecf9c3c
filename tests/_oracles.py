"""Independent reference computations used to freeze expected test values.

These deliberately avoid LAPACK's symmetric eigensolver, which the package
itself calls: the characteristic polynomial oracle only uses LU
determinants, and the spectral norm comes from power iteration. The two
certificate-matrix builders use the per-model formulas in plain numpy,
not the package's D - Y construction they are compared against. The
Gaussian synchronization reference does call the eigensolver, but on a
different matrix: the Laplacian of the conjugated noise. ``exact_side`` uses no floating point
at all: exact integer elimination on the discrete certificate matrix.
"""

import numpy as np


def charpoly_bisect_eigs(a, samples=4001, iters=100):
    """Eigenvalues of a symmetric matrix as roots of det(A - x I).

    Scans a padded Gershgorin interval for sign changes of the determinant
    and bisects each bracket. Assumes distinct eigenvalues (random dense
    matrices); not suitable for clustered spectra.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    radius = np.sum(np.abs(a), axis=1)
    lo = float(np.min(np.diag(a) - radius)) - 1.0
    hi = float(np.max(np.diag(a) + radius)) + 1.0
    xs = np.linspace(lo, hi, samples)
    signs = np.array([np.linalg.slogdet(a - x * np.eye(n))[0] for x in xs])
    roots = []
    for i in range(samples - 1):
        s0, s1 = signs[i], signs[i + 1]
        if s0 == 0.0:
            roots.append(xs[i])
            continue
        if s0 * s1 < 0.0:
            left, right = xs[i], xs[i + 1]
            for _ in range(iters):
                mid = 0.5 * (left + right)
                sm = np.linalg.slogdet(a - mid * np.eye(n))[0]
                if sm == 0.0:
                    left = right = mid
                    break
                if sm == s0:
                    left = mid
                else:
                    right = mid
            roots.append(0.5 * (left + right))
    assert len(roots) == n, f"oracle isolated {len(roots)} of {n} roots"
    return np.array(sorted(roots))


def power_iteration_norm(a, iters=2000, seed=1234):
    """Spectral norm by power iteration on the squared matrix.

    Iterating A^2 avoids sign cancellation when the extreme eigenvalues
    have opposite signs and similar magnitude.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = a @ (a @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = norm
    return float(np.sqrt(lam))


def partition_gap_certificate(adjacency, labels):
    """SBM certificate matrix 2 Gamma + 11^T from the adjacency and labels,
    with Gamma = diag(deg_in - deg_out) - A counted edge by edge."""
    a = np.asarray(adjacency, dtype=np.float64)
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    deg_in = np.sum(np.where(same, a, 0.0), axis=1)
    deg_out = np.sum(np.where(same, 0.0, a), axis=1)
    return 2.0 * (np.diag(deg_in - deg_out) - a) + 1.0


def sync_certificate(g_edges, h_edges):
    """z2er certificate matrix L_G - 2 L_H from the measurement graph G and
    its corrupted edges H (planted signs all +1)."""
    g = np.asarray(g_edges, dtype=np.float64)
    h = np.asarray(h_edges, dtype=np.float64)
    l_g = np.diag(g.sum(axis=1)) - g
    l_h = np.diag(h.sum(axis=1)) - h
    return l_g - 2.0 * l_h


def z2sync_er_graphs(n, p, eps, rng):
    """0/1 adjacency of the measurement graph G and its corrupted part H
    from the draws ``sample_z2sync_er`` takes: a Bernoulli(p) mask over the
    pairs i < j in row-major order, then a Bernoulli(eps) flip of each pair,
    kept on the edges of G."""
    iu = np.triu_indices(n, 1)
    g_mask = rng.bernoulli(p, len(iu[0]))
    flipped = rng.bernoulli(eps, len(iu[0]))[g_mask]
    i, j = iu[0][g_mask], iu[1][g_mask]
    a_g = np.zeros((n, n))
    a_h = np.zeros((n, n))
    a_g[i, j] = a_g[j, i] = 1.0
    a_h[i[flipped], j[flipped]] = a_h[j[flipped], i[flipped]] = 1.0
    return a_g, a_h


def z2sync_gaussian_report(y, z, sigma, tau):
    """(lambda1, lambda2, band, residual_null, d_diag) of the Gaussian
    synchronization certificate for y = z z^T + sigma W, read off the
    Laplacian of the conjugated noise.

    With W' = diag(z) W diag(z) off the diagonal, D - Y conjugated by
    diag(z) is n I - 1 1^T - sigma L(-W'), so lambda2 = n - sigma mu_n for
    the extremes mu_1 <= mu_n of L(-W'), exact while the certificate holds;
    the band is tau (1 + max(|min(0, lambda2)|, n - sigma mu_1)). The dual
    diagonal and the null residual ||(D - Y) z|| are those of D - Y.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n = len(z)
    wprime = (z[:, None] * y * z[None, :] - 1.0) / sigma
    np.fill_diagonal(wprime, 0.0)
    lneg = np.diag(-wprime.sum(axis=1)) + wprime
    mu = np.linalg.eigvalsh(lneg)
    lam2 = n - sigma * mu[-1]
    lam1 = min(0.0, lam2)
    band = tau * (1.0 + max(abs(lam1), max(0.0, n - sigma * mu[0])))
    d = z * (y @ z)
    residual = float(np.linalg.norm((np.diag(d) - y) @ z))
    return lam1, lam2, band, residual, d


def _integer_definiteness(a):
    """"pd", "psd" or None (not positive semidefinite) for an integer
    symmetric matrix, by exact symmetric elimination.

    Fraction-free (Bareiss): after the pivots so far, each remaining entry
    is the last pivot, a positive leading minor, times the Schur complement
    entry, and every division is exact. A negative pivot is not PSD; a zero
    pivot is PSD only if its whole remaining row is zero, which is then
    dropped. Python integers do not round or overflow.
    """
    rows = [[int(v) for v in row] for row in a]
    live = list(range(len(rows)))
    prev, singular = 1, False
    while live:
        k = live.pop(0)
        rk = rows[k]
        pivot = rk[k]
        if pivot < 0:
            return None
        if pivot == 0:
            if any(rk[j] for j in live):
                return None
            singular = True
            continue
        for i in live:
            ri, rik = rows[i], rk[i]
            for j in live:
                ri[j] = (pivot * ri[j] - rik * rk[j]) // prev
        prev = pivot
    return "psd" if singular else "pd"


def exact_side(y, x):
    """The side of the rank-one certificate of (Y, x) with no rounding, for
    integer Y and x in {+-1}^n: C = D - Y with D_ii = sum_j Y_ij x_i x_j is
    integer, and the side is "above" where C + x x^T is positive definite,
    "boundary" where C is positive semidefinite but C + x x^T is not, and
    "below" otherwise."""
    y = np.asarray(getattr(y, "array", y))
    yi = y.astype(np.int64)
    assert np.array_equal(yi, y), "exact_side needs an integer Y"
    x = np.asarray(x).astype(np.int64)
    c = np.diag(x * (yi @ x)) - yi
    if _integer_definiteness(c + np.outer(x, x)) == "pd":
        return "above"
    return "boundary" if _integer_definiteness(c) else "below"
