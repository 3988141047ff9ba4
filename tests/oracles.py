"""Independent reference implementations used to validate the package.

Everything here is deliberately naive: plain loops, no shared code with
the implementations under test.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import combinations

import numpy as np
from scipy.integrate import quad
from scipy.special import fdtrc


def naive_ward(n: int, condensed: np.ndarray):
    """O(n^3) agglomeration: global minimum search + Lance-Williams update.

    Returns (heights, partitions) where partitions[k] is the set of
    frozenset clusters present when exactly k clusters remain.
    """
    dist: dict[tuple[int, int], float] = {}
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = float(condensed[pos])
            pos += 1

    clusters: dict[int, frozenset[int]] = {i: frozenset([i]) for i in range(n)}
    sizes: dict[int, int] = {i: 1 for i in range(n)}

    def d_of(a: int, b: int) -> float:
        return dist[(a, b) if a < b else (b, a)]

    heights: list[float] = []
    partitions: dict[int, set[frozenset[int]]] = {n: set(clusters.values())}
    while len(clusters) > 1:
        best = None
        best_d = math.inf
        for a, b in combinations(sorted(clusters), 2):
            dv = d_of(a, b)
            if dv < best_d:  # lexicographic tie-break via sorted scan order
                best_d = dv
                best = (a, b)
        a, b = best
        heights.append(best_d)
        na, nb = sizes[a], sizes[b]
        for c in list(clusters):
            if c in (a, b):
                continue
            nc = sizes[c]
            new_d = ((na + nc) * d_of(a, c) + (nb + nc) * d_of(b, c) - nc * best_d) / (
                na + nb + nc
            )
            dist[(a, c) if a < c else (c, a)] = new_d
        clusters[a] = clusters[a] | clusters[b]
        sizes[a] = na + nb
        del clusters[b], sizes[b]
        partitions[len(clusters)] = set(clusters.values())
    return heights, partitions


def labels_from_performed(z, performed) -> np.ndarray:
    """Leaf labels after the listed merges of a linkage matrix, by union-find.

    Row i of ``z`` merges nodes ``z[i][0]`` and ``z[i][1]`` into node n + i.
    Labels are assigned in order of first-leaf appearance.
    """
    n = len(z) + 1
    parent = list(range(2 * n - 1))

    def find(node: int) -> int:
        while parent[node] != node:
            node = parent[node]
        return node

    for i in performed:
        parent[find(int(z[i][0]))] = n + i
        parent[find(int(z[i][1]))] = n + i

    seen: dict[int, int] = {}
    labels = []
    for leaf in range(n):
        labels.append(seen.setdefault(find(leaf), len(seen)))
    return np.array(labels)


def partitions_of_labels(labels: np.ndarray) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(i)
    return {frozenset(g) for g in groups.values()}


def pair_counting_ari(a, b) -> float:
    """ARI via exhaustive pair agreement counts."""
    a = list(a)
    b = list(b)
    n11 = n10 = n01 = n00 = 0
    for i, j in combinations(range(len(a)), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            n11 += 1
        elif same_a:
            n10 += 1
        elif same_b:
            n01 += 1
        else:
            n00 += 1
    num = 2.0 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


def f_sf_by_quadrature(x: float, d1: int, d2: int) -> float:
    """Survival P(F > x) by numerical integration of the F density."""
    if x <= 0:
        return 1.0
    log_norm = (
        math.lgamma((d1 + d2) / 2.0)
        - math.lgamma(d1 / 2.0)
        - math.lgamma(d2 / 2.0)
        + (d1 / 2.0) * math.log(d1 / d2)
    )

    def pdf(t: float) -> float:
        return math.exp(
            log_norm
            + (d1 / 2.0 - 1.0) * math.log(t)
            - ((d1 + d2) / 2.0) * math.log(1.0 + d1 * t / d2)
        )

    value, _ = quad(pdf, x, np.inf, limit=200)
    return value


def brute_consensus(n: int, log: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Consensus matrix recomputed from a minipatch log with plain loops."""
    v = np.zeros((n, n))
    d = np.zeros((n, n))
    for idx, labels in log:
        idx = list(map(int, idx))
        labs = {i: lab for i, lab in zip(idx, labels)}
        for i in idx:
            v[i, i] += 1
            d[i, i] += 1
        for i, j in combinations(idx, 2):
            d[i, j] += 1
            d[j, i] += 1
            if labs[i] == labs[j]:
                v[i, j] += 1
                v[j, i] += 1
    return v / np.maximum(1, d)


def confusion(s: np.ndarray) -> np.ndarray:
    """Per-observation instability (1/N) sum_j S_ij (1 - S_ij) of dense S, diagonal included."""
    s = np.asarray(s, dtype=float)
    return (s * (1.0 - s)).sum(axis=1) / s.shape[0]


def dense_index_dissimilarity(s: np.ndarray) -> np.ndarray:
    """Condensed 1 - S by way of the dense matrix and its triangle indices."""
    s = np.asarray(s, dtype=float)
    d = 1.0 - s
    ii, jj = np.triu_indices(s.shape[0], k=1)
    return d[ii, jj]


def dense_laplacian_embedding(s: np.ndarray, k: int) -> np.ndarray:
    """Bottom-k eigenvectors of I - D^-1/2 S D^-1/2 from a full dense ``eigh``."""
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
    lap = np.eye(s.shape[0]) - inv_sqrt[:, None] * s * inv_sqrt[None, :]
    return np.linalg.eigh(lap)[1][:, :k]


def per_cell_matrix_csv(values: np.ndarray, row_ids, col_ids, delimiter: str = ",") -> str:
    """Matrix CSV text with every cell formatted by its own f-string, written by csv."""
    buf = io.StringIO()
    out = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    out.writerow(["id", *col_ids])
    for name, row in zip(row_ids, values):
        out.writerow([name, *(f"{x:.17g}" for x in row)])
    return buf.getvalue()


def per_cell_load_matrix(path, delimiter: str = ",", header: bool = True, ids: bool = True):
    """A matrix file read by the csv module with ``float()`` on every cell.

    Returns (values, row_ids, col_ids). Blank lines are skipped, the first
    data row needs a cell after its id, every row must be as wide as the
    first data row and the header, and a cell ``float()`` rejects is named
    by row and column id.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh, delimiter=delimiter) if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    head = rows.pop(0) if header else None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if ids and width == 1:
        raise ValueError(
            f"{path}: no value cell after the id column when split at {delimiter!r}; "
            "pass the file's delimiter with --delimiter"
        )
    if head is not None and len(head) != width:
        raise ValueError(f"{path}: row 1 has {width} cells but the header has {len(head)}")
    col_ids = None if head is None else [c.strip() for c in (head[1:] if ids else head)]

    row_ids = []
    values = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: ragged row {i + 1}: expected {width} cells, got {len(row)}")
        if ids:
            row_ids.append(row[0].strip())
            row = row[1:]
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                cname = col_ids[j] if col_ids else str(j)
                rname = row_ids[i] if ids else str(i)
                raise ValueError(
                    f"{path}: non-numeric cell {cell!r} at row {rname!r}, column {cname!r}"
                ) from None
        values.append(parsed)
    m = width - (1 if ids else 0)
    if not ids:
        row_ids = [f"row{i}" for i in range(len(values))]
    if col_ids is None:
        col_ids = [f"col{j}" for j in range(m)]
    return np.array(values, dtype=np.float64).reshape(len(values), m), row_ids, col_ids


def add_at_score_features(view: np.ndarray, labels: np.ndarray, eta: float):
    """One-way ANOVA per column with group sums scattered row by row by ``np.add.at``.

    Returns (support, pvalues) under the rules of ``sampling.score_features``.
    """
    x = np.asarray(view, dtype=float)
    _, inv = np.unique(np.asarray(labels), return_inverse=True)
    k = int(inv.max()) + 1
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    counts = np.bincount(inv, minlength=k).astype(float)
    group_sums = np.zeros((k, x.shape[1]))
    np.add.at(group_sums, inv, xc)
    ssb = ((group_sums**2) / counts[:, None]).sum(axis=0)
    sst = (xc**2).sum(axis=0)
    ssw = np.maximum(sst - ssb, 0.0)

    scale = np.maximum(1.0, (x**2).sum(axis=0))
    constant = sst <= 1e-20 * scale
    perfect = ~constant & (ssw <= 1e-12 * sst)

    p = np.ones(x.shape[1])
    regular = ~constant & ~perfect
    if regular.any():
        f_stat = (ssb[regular] / (k - 1)) / (ssw[regular] / (n - k))
        p[regular] = fdtrc(k - 1, n - k, f_stat)
    p[perfect] = 0.0

    cutoff = float(np.quantile(p, eta))
    support = np.flatnonzero(p < cutoff)
    if support.size == 0:
        best = int(np.argmin(p))
        if p[best] < 1.0:
            support = np.array([best])
    return support, p


def array_fisher_yates(count_total: int, count_draw: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted partial Fisher-Yates sample, swapping the numpy scalars of a full index array."""
    if not 0 < count_draw <= count_total:
        raise ValueError(f"cannot draw {count_draw} of {count_total}")
    pool = np.arange(count_total)
    spans = count_total - np.arange(count_draw)
    offsets = np.floor(rng.random(count_draw) * spans).astype(np.intp)
    for i in range(count_draw):
        j = i + offsets[i]
        pool[i], pool[j] = pool[j], pool[i]
    return np.sort(pool[:count_draw])


def dense_update(pair_seen, pair_same, diag, rows, n: int, sampled, labels) -> None:
    """Fold one minipatch into the counters in place, every sampled pair through the float work.

    Pairs go in row-major order over the sorted sample. Each pair's S(1-S)
    change is s_new (1 - s_new) - s_old (1 - s_old), and every observation
    sums the changes of its pairs as first member and as second member in
    two running sums, then adds their total to its row of ``rows``.
    """
    order = sorted(range(len(sampled)), key=lambda k: int(sampled[k]))
    obs = [int(sampled[k]) for k in order]
    lab = [labels[k] for k in order]
    as_first = [0.0] * len(obs)
    as_second = [0.0] * len(obs)
    for a, b in combinations(range(len(obs)), 2):
        i, j = obs[a], obs[b]
        p = n * i - i * (i + 1) // 2 + (j - i - 1)
        seen, same = int(pair_seen[p]), int(pair_same[p])
        s_old = same / max(seen, 1)
        seen += 1
        same += int(lab[a] == lab[b])
        s_new = same / seen
        delta = s_new * (1.0 - s_new) - s_old * (1.0 - s_old)
        pair_seen[p], pair_same[p] = seen, same
        as_first[a] += delta
        as_second[b] += delta
    for a, i in enumerate(obs):
        rows[i] += as_first[a] + as_second[a]
        diag[i] += 1


def snr_of(mu: np.ndarray) -> float:
    """L2 norm of a cluster-mean vector; for a (K, M) matrix, the mean norm."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 1:
        return float(np.linalg.norm(mu))
    if mu.ndim == 2:
        return float(np.mean(np.linalg.norm(mu, axis=1)))
    raise ValueError("expected a mean vector or a (K, M) mean matrix")
