/* Compiled inner loops of the frontier walks over a FlatTree.
 *
 * This file is compiled on demand by repro.index.ckernel.loader with
 * the platform C compiler and loaded through ctypes; it has no Python
 * or numpy dependency.  Two walks live here:
 *
 * - the count walk (repro_dpar_filter, repro_advance, repro_rect_rung),
 *   driven one frontier level at a time from Python;
 * - the nearest-element walk (repro_nearest), one call per batch.
 *
 * The count-walk functions operate on the row-aligned flat arrays of a
 * FlatTree frontier (nodes/pos/lo/hi plus the tree's struct-of-arrays
 * storage) exactly as _level_step does in repro/index/base.py, and
 * must stay bit-identical to it:
 *
 * - all node-level decisions are single IEEE-754 float64 operations
 *   (one add or subtract, then a ladder compare) — elementwise
 *   identical to numpy as long as FP contraction is off, which the
 *   loader enforces with -ffp-contract=off;
 * - lower_bound/upper_bound reproduce np.searchsorted side="left" /
 *   side="right" (the ladder is finite and ascending);
 * - scatter adds into the difference array are exact integer adds in
 *   float64 (far below 2**53) and commute, so per-entry scattering
 *   sums to the same matrix as numpy's grouped bincounts;
 * - the float32 rectangle only *brackets* squared distances: every
 *   cell inside the margin band is settled by the exact float64
 *   metric (in here for 1-/2-d euclidean data, whose column-take
 *   expansion is reproduced operation for operation; back in Python
 *   for everything else).
 *
 * repro_nearest does not reproduce numpy's floats at all: it measures
 * in its own summation order and returns a candidate set that provably
 * holds the exact minimiser, which Python re-measures through the
 * einsum path (see the comment above the function).
 *
 * ctypes releases the GIL around every call, so thread-backed shard
 * executors and concurrent scorers overlap these loops on real cores.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define REPRO_CKERNEL_ABI 2

/* np.searchsorted(radii, v, side="left"): first i with radii[i] >= v. */
static int64_t lower_bound(const double *r, int64_t n, double v) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (r[mid] < v) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* np.searchsorted(radii, v, side="right"): first i with radii[i] > v. */
static int64_t upper_bound(const double *r, int64_t n, double v) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (r[mid] <= v) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* _clipped_cols(side="left"): max(searchsorted(radii, v), lo), with the
 * clip gate (v > radii[lo]) evaluated before paying the search. */
static int64_t clipped_left(const double *r, int64_t a, double v, int64_t lo) {
    return (v > r[lo]) ? lower_bound(r, a, v) : lo;
}

static int64_t clipped_right(const double *r, int64_t a, double v, int64_t lo) {
    return (v >= r[lo]) ? upper_bound(r, a, v) : lo;
}

int64_t repro_ckernel_abi(void) { return REPRO_CKERNEL_ABI; }

/* M-tree parent-distance filter over one frontier chunk, compacting the
 * five row-aligned arrays in place.  Returns the surviving entry count.
 * Mirrors the dpar branch at the top of _level_step:
 *   lo = max(lo, searchsorted(radii, |dpar - d_parent[node]| - radius))
 *   keep iff lo < hi
 */
int64_t repro_dpar_filter(
    int64_t n, int64_t a, const double *radii,
    int64_t *nodes, int64_t *pos, int64_t *lo, int64_t *hi, double *dpar,
    const double *d_parent, const double *node_radius)
{
    int64_t w = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t nd = nodes[k];
        double bound = fabs(dpar[k] - d_parent[nd]) - node_radius[nd];
        int64_t l = lower_bound(radii, a, bound);
        if (l < lo[k]) l = lo[k];
        if (l < hi[k]) {
            nodes[w] = nd; pos[w] = pos[k]; lo[w] = l; hi[w] = hi[k];
            dpar[w] = dpar[k];
            w++;
        }
    }
    return w;
}

/* One depth of the level walk over a frontier chunk: swallow / prune /
 * window tightening / vantage handling / child expansion, scattering
 * whole-node credits straight into the per-query difference array and
 * emitting leaf entries plus the next-depth frontier into
 * caller-provided buffers (capacities: n for the leaf arrays, the
 * summed child count for the next-frontier arrays).
 *
 * Two distance sources:
 *   - d_in != 0:   query-to-center distances precomputed in Python
 *                  (any metric); dpar_in must be 0 (already filtered).
 *   - qcol0 != 0:  fused 1-/2-d euclidean path.  Reproduces the
 *                  column-take expansion of MetricSpace.paired_distances
 *                  operation for operation — ab = x0*y0 (+ x1*y1);
 *                  s = (sq_l + sq_r) - 2*ab; clamp at 0; sqrt — which is
 *                  bitwise identical with FP contraction off.  qids is 0
 *                  for identity query ids (pos is the data id).  The
 *                  parent-distance filter, when dpar_in != 0, runs
 *                  inline before paying for the distance.
 *
 * counters[0] <- number of leaf entries emitted
 * counters[1] <- number of next-frontier entries emitted
 */
void repro_advance(
    int64_t n, int64_t a, const double *radii,
    const int64_t *nodes, const int64_t *pos,
    const int64_t *lo_in, const int64_t *hi_in,
    const double *d_in, const double *dpar_in,
    const int64_t *qids, const double *qcol0, const double *qcol1,
    const double *sqn, int64_t ncols,
    const int64_t *center, const double *node_radius, const int64_t *node_size,
    const int64_t *child_lo, const int64_t *child_hi,
    const double *threshold, const double *d_parent,
    int64_t vp_split, int64_t route_max, int64_t emit_dpar,
    double *diff, int64_t stride,
    int64_t *leaf_nodes, int64_t *leaf_pos, int64_t *leaf_lo, int64_t *leaf_hi,
    double *leaf_d,
    int64_t *out_nodes, int64_t *out_pos, int64_t *out_lo, int64_t *out_hi,
    double *out_dpar,
    int64_t *counters)
{
    int64_t wl = 0, wn = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t nd = nodes[k];
        int64_t p = pos[k];
        int64_t lo = lo_in[k], hi = hi_in[k];
        double rnode = node_radius[nd];
        double d;
        if (qcol0 != 0) {
            if (dpar_in != 0) {
                double bound = fabs(dpar_in[k] - d_parent[nd]) - rnode;
                int64_t l2 = lower_bound(radii, a, bound);
                if (l2 > lo) lo = l2;
                if (lo >= hi) continue;
            }
            int64_t ql = (qids != 0) ? qids[p] : p;
            int64_t cr = center[nd];
            double ab = qcol0[ql] * qcol0[cr];
            if (ncols == 2) ab += qcol1[ql] * qcol1[cr];
            double s = (sqn[ql] + sqn[cr]) - 2.0 * ab;
            if (s <= 0.0) s = 0.0; /* np.maximum(out, 0.0) */
            d = sqrt(s);
        } else {
            d = d_in[k];
        }
        double rh = radii[hi - 1]; /* last undecided radius */
        double v = d + rnode;
        if (v <= rh) { /* ball swallowed whole: credit size[node] in O(1) */
            int64_t c = clipped_left(radii, a, v, lo);
            double w = (double)node_size[nd];
            double *row = diff + p * stride;
            row[c] += w;
            row[hi] -= w;
            hi = c;
            if (lo >= hi) continue; /* credit started at lo: window empty */
            rh = radii[hi - 1];
        }
        v = d - rnode;
        if (v > rh) continue; /* prune: no undecided radius reaches it */
        if (v > radii[lo]) lo = lower_bound(radii, a, v); /* floor rises */
        int leaf = (child_lo[nd] == child_hi[nd]);
        if (!leaf && route_max > 0 && node_size[nd] <= route_max && hi - lo == 1)
            leaf = 1; /* virtual leaf: small subtree, single-rung window */
        if (leaf) {
            leaf_nodes[wl] = nd; leaf_pos[wl] = p;
            leaf_lo[wl] = lo; leaf_hi[wl] = hi; leaf_d[wl] = d;
            wl++;
            continue;
        }
        if (vp_split) {
            if (d <= rh) { /* the vantage point itself */
                int64_t c = clipped_left(radii, a, d, lo);
                double *row = diff + p * stride;
                row[c] += 1.0;
                row[hi] -= 1.0;
            }
            double t = threshold[nd];
            int64_t ci = child_lo[nd];
            double vi = d - t;
            if (vi <= rh) { /* inside child still reachable */
                out_nodes[wn] = ci; out_pos[wn] = p;
                out_lo[wn] = clipped_left(radii, a, vi, lo); out_hi[wn] = hi;
                wn++;
            }
            double vo = t - d;
            if (vo < rh) { /* outside child: side="right" boundary */
                out_nodes[wn] = ci + 1; out_pos[wn] = p;
                out_lo[wn] = clipped_right(radii, a, vo, lo); out_hi[wn] = hi;
                wn++;
            }
        } else {
            for (int64_t c = child_lo[nd]; c < child_hi[nd]; c++) {
                out_nodes[wn] = c; out_pos[wn] = p;
                out_lo[wn] = lo; out_hi[wn] = hi;
                if (emit_dpar) out_dpar[wn] = d;
                wn++;
            }
        }
    }
    counters[0] = wl;
    counters[1] = wn;
}

/* Single-rung rectangular leaf kernel over NaN-padded member blocks:
 * the compiled twin of _rect_single_rung.  Every (entry, bucket-slot)
 * cell gets the float32 squared-distance expansion
 * ||q||^2 + ||m||^2 - 2 q.m against r^2 bracketed by an absolute
 * margin: provably-inside cells count, provably-outside cells drop,
 * and only the sliver in between pays the exact float64 metric.  NaN
 * padding fails every comparison and can never be counted.
 *
 * Band settlement:
 *   - ecol0 != 0: 1-/2-d euclidean data; the exact re-check runs right
 *     here with the same column-take expansion as the fused advance
 *     (bitwise identical to MetricSpace.paired_distances), and the
 *     per-entry counts are scattered into diff directly.
 *   - ecol0 == 0: band (entry, slot) pairs are emitted (capacity
 *     n * width) for the caller to settle through the exact metric;
 *     cnt_out holds the sure-in counts and the caller scatters.
 *
 * counters[0] <- number of band cells (emitted, or settled inline).
 */
void repro_rect_rung(
    int64_t n, int64_t width, int64_t ncols,
    const int64_t *nodes, const int64_t *pos, const int64_t *lo,
    const int64_t *qids,
    const float **pad, const float *sq_pad,
    const float **qcols, const float *qsq,
    const double *radii, double eps_abs,
    const double *ecol0, const double *ecol1, const double *esq,
    const int64_t *elems, const int64_t *elem_lo,
    double *diff, int64_t stride,
    int64_t *band_entry, int64_t *band_col,
    int64_t *cnt_out,
    int64_t *counters)
{
    int64_t wb = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t nd = nodes[k];
        int64_t q = (qids != 0) ? qids[pos[k]] : pos[k];
        double r = radii[lo[k]]; /* the one undecided rung */
        /* Signed square: a negative rung counts nothing (rr < 0 puts
         * every cell above the sure-in bracket); the margin mirrors
         * _rect_single_rung's float64 arithmetic exactly. */
        double rr = r * fabs(r);
        double eps = eps_abs + 1e-6 * rr;
        float r2lo = (float)(rr - eps);
        float r2hi = (float)(rr + eps);
        float qv[64];
        for (int64_t m = 0; m < ncols; m++) qv[m] = qcols[m][q];
        float q2 = qsq[q];
        const float *sqrow = sq_pad + nd * width;
        int64_t cnt = 0;
        for (int64_t j = 0; j < width; j++) {
            float ab = pad[0][nd * width + j] * qv[0];
            for (int64_t m = 1; m < ncols; m++) ab += pad[m][nd * width + j] * qv[m];
            float s2 = (sqrow[j] + q2) - 2.0f * ab;
            if (s2 <= r2lo) { cnt++; continue; } /* provably inside */
            if (s2 <= r2hi) { /* margin band: needs the exact metric */
                wb++;
                if (ecol0 != 0) {
                    int64_t mb = elems[elem_lo[nd] + j];
                    double ab2 = ecol0[q] * ecol0[mb];
                    if (ecol1 != 0) ab2 += ecol1[q] * ecol1[mb];
                    double s = (esq[q] + esq[mb]) - 2.0 * ab2;
                    if (s <= 0.0) s = 0.0;
                    if (sqrt(s) <= r) cnt++;
                } else {
                    band_entry[wb - 1] = k;
                    band_col[wb - 1] = j;
                }
            }
        }
        cnt_out[k] = cnt;
        if (ecol0 != 0 && cnt > 0) { /* settled: scatter the rung credit */
            double *row = diff + pos[k] * stride;
            row[lo[k]] += (double)cnt;
            row[lo[k] + 1] -= (double)cnt;
        }
    }
    counters[0] = wb;
}

/* L_p distance between two dim-vectors: kind 1 = L1, 2 = L2, 3 = L_inf,
 * 0 = general p.  Plain differences, any summation order: the caller
 * never compares these floats with numpy's, only brackets them. */
static double lp_distance(const double *x, const double *y, int64_t dim,
                          int64_t kind, double p) {
    double s = 0.0;
    if (kind == 2) {
        for (int64_t i = 0; i < dim; i++) {
            double t = x[i] - y[i];
            s += t * t;
        }
        return sqrt(s);
    }
    if (kind == 1) {
        for (int64_t i = 0; i < dim; i++) s += fabs(x[i] - y[i]);
        return s;
    }
    if (kind == 3) {
        for (int64_t i = 0; i < dim; i++) {
            double t = fabs(x[i] - y[i]);
            if (t > s) s = t;
        }
        return s;
    }
    for (int64_t i = 0; i < dim; i++) s += pow(fabs(x[i] - y[i]), p);
    return pow(s, 1.0 / p);
}

/* Exact k=1 nearest-element search for rows [counters[0], m), each row
 * walked on its own, depth first, near VP child first.  The pruning
 * bounds are those of the numpy nearest walk (repro/index/base.py):
 * an entry's lower bound rises with d(q, center) - radius, the VP
 * threshold (inside members: d - t; outside members: t - d) and, per
 * leaf member, |d(q, center) - d_elem|; an entry or member is skipped
 * when its bound exceeds best + slack[row].
 *
 * The kernel's distances differ from numpy's einsum distances in the
 * last bits, so it does not return the minimum.  It returns, per row,
 * every element it measured within best + slack[row] of its own final
 * best (cand_elem, row-major; row_end[r] is the running candidate
 * count after row r), and Python re-measures exactly those.  With E an
 * upper bound on the error of any one computed distance (einsum,
 * kernel, or the build-time radius / threshold / d_elem floats),
 * slack >= 5E keeps the einsum minimiser x* in the set: every bound
 * on a subtree holding x* is at most D(q, x*) + 2E while best is at
 * least D(q, x*) - 3E, so x* is measured; and its kernel distance is
 * within 4E of best, so it is emitted.  The caller's slack is 8E.
 *
 * Scratch is allocated here, once per call: a stack of n_nodes entries
 * (a node is pushed at most once per row) and a measured-pair list of
 * n_nodes + n_elems (every center and member is measured at most once
 * per row).
 *
 * counters[0] <- next row to walk (in: first row)
 * counters[1] <- candidates written (in: write offset)
 * counters[2] += distance evaluations
 * counters[3] += node visits
 * Stops early, before writing a row, when its candidates would pass
 * cap; the caller grows the buffer and calls again from counters[0].
 * Returns 0, or -1 when the scratch cannot be allocated.
 */
int64_t repro_nearest(
    int64_t m, int64_t dim, const double *rows, const double *data,
    int64_t kind, double p, const double *slack,
    int64_t n_nodes, const int64_t *center, const double *threshold,
    const double *radius, const int64_t *child_lo, const int64_t *child_hi,
    const int64_t *elem_lo, const int64_t *elem_hi,
    int64_t n_elems, const int64_t *elems, const double *d_elem,
    int64_t vp_split,
    int64_t cap, int64_t *cand_elem, int64_t *row_end,
    int64_t *counters)
{
    int64_t n_seen = n_nodes + n_elems;
    int64_t *stack_node = malloc(n_nodes * sizeof(int64_t));
    double *stack_lb = malloc(n_nodes * sizeof(double));
    int64_t *seen_elem = malloc(n_seen * sizeof(int64_t));
    double *seen_d = malloc(n_seen * sizeof(double));
    if (!stack_node || !stack_lb || !seen_elem || !seen_d) {
        free(stack_node); free(stack_lb); free(seen_elem); free(seen_d);
        return -1;
    }
    int64_t written = counters[1];
    int64_t evals = 0, visits = 0;
    int64_t r = counters[0];
    for (; r < m; r++) {
        const double *q = rows + r * dim;
        double sl = slack[r];
        double best = INFINITY;
        int64_t ns = 0, top = 1;
        stack_node[0] = 0;
        stack_lb[0] = 0.0;
        while (top > 0) {
            top--;
            int64_t nd = stack_node[top];
            double lb = stack_lb[top];
            if (lb > best + sl) continue;
            visits++;
            int64_t c = center[nd];
            double d = lp_distance(q, data + c * dim, dim, kind, p);
            evals++;
            if (d < best) best = d;
            if (d <= best + sl) { seen_elem[ns] = c; seen_d[ns] = d; ns++; }
            double v = d - radius[nd];
            if (v > lb) lb = v;
            if (lb > best + sl) continue;
            if (child_lo[nd] == child_hi[nd]) { /* leaf: its members */
                for (int64_t k = elem_lo[nd]; k < elem_hi[nd]; k++) {
                    int64_t e = elems[k];
                    if (e == c) continue; /* the center, measured above */
                    if (d_elem != 0 && fabs(d - d_elem[k]) > best + sl) continue;
                    double de = lp_distance(q, data + e * dim, dim, kind, p);
                    evals++;
                    if (de < best) best = de;
                    if (de <= best + sl) { seen_elem[ns] = e; seen_d[ns] = de; ns++; }
                }
                continue;
            }
            if (vp_split) { /* push the far child first: the near one pops next */
                double t = threshold[nd];
                int64_t ci = child_lo[nd];
                double lb_in = (d - t > lb) ? d - t : lb;  /* d(c, x) <= t */
                double lb_out = (t - d > lb) ? t - d : lb; /* d(c, x) > t */
                if (d > t) {
                    stack_node[top] = ci; stack_lb[top] = lb_in; top++;
                    stack_node[top] = ci + 1; stack_lb[top] = lb_out; top++;
                } else {
                    stack_node[top] = ci + 1; stack_lb[top] = lb_out; top++;
                    stack_node[top] = ci; stack_lb[top] = lb_in; top++;
                }
            } else { /* first child pops first */
                for (int64_t ch = child_hi[nd] - 1; ch >= child_lo[nd]; ch--) {
                    stack_node[top] = ch; stack_lb[top] = lb; top++;
                }
            }
        }
        double limit = best + sl;
        int64_t count = 0;
        for (int64_t k = 0; k < ns; k++) count += (seen_d[k] <= limit);
        if (written + count > cap) break;
        for (int64_t k = 0; k < ns; k++)
            if (seen_d[k] <= limit) cand_elem[written++] = seen_elem[k];
        row_end[r] = written;
    }
    counters[0] = r;
    counters[1] = written;
    counters[2] += evals;
    counters[3] += visits;
    free(stack_node); free(stack_lb); free(seen_elem); free(seen_d);
    return 0;
}
