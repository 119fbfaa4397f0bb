/* Compiled walks over a FlatTree, one query at a time, depth first.
 *
 * This file is compiled on demand by repro.index.ckernel.loader with
 * the platform C compiler and loaded through ctypes; it has no Python
 * or numpy dependency.  Two walks live here, each one ctypes call per
 * batch of queries:
 *
 * - the count walk (repro_count): every query's number of elements
 *   within one radius;
 * - the nearest-element walk (repro_nearest): every row's candidate
 *   set for its nearest element.
 *
 * Neither reproduces numpy's floats.  Each measures L_p distances in
 * its own summation order and decides only what a proven error margin
 * settles; Python re-measures the rest through the exact numpy path
 * (the einsum expansion for L2), so every count and every nearest
 * distance equals brute force bit for bit (the proofs are in the
 * comments above the two functions).  The walks read the tree's arrays
 * and the caller's data as they are, mmap-backed included, and write
 * only their output buffers.
 *
 * ctypes releases the GIL around every call, so thread-backed shard
 * executors and concurrent scorers overlap these loops on real cores.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define REPRO_CKERNEL_ABI 3

int64_t repro_ckernel_abi(void) { return REPRO_CKERNEL_ABI; }

/* The L_p distance without its final root, between two dim-vectors:
 * kind 1 = L1, 2 = L2 (the squared sum), 3 = L_inf, 0 = general p (the
 * sum of p-th powers).  Monotone in the distance, so a scan compares it
 * against key_bound(bound) instead of paying a root per member.  Plain
 * differences, any summation order: the callers never compare these
 * floats with numpy's, only bracket them. */
static inline double lp_key(const double *x, const double *y, int64_t dim,
                            int64_t kind, double p) {
    double s = 0.0;
    if (kind == 2) {
        for (int64_t i = 0; i < dim; i++) {
            double t = x[i] - y[i];
            s += t * t;
        }
    } else if (kind == 1) {
        for (int64_t i = 0; i < dim; i++) s += fabs(x[i] - y[i]);
    } else if (kind == 3) {
        for (int64_t i = 0; i < dim; i++) {
            double t = fabs(x[i] - y[i]);
            if (t > s) s = t;
        }
    } else {
        for (int64_t i = 0; i < dim; i++) s += pow(fabs(x[i] - y[i]), p);
    }
    return s;
}

/* The L_p distance itself: lp_key with its root. */
static double lp_distance(const double *x, const double *y, int64_t dim,
                          int64_t kind, double p) {
    double s = lp_key(x, y, dim, kind, p);
    if (kind == 2) return sqrt(s);
    if (kind == 0) return pow(s, 1.0 / p);
    return s;
}

/* A distance bound in lp_key's units.  A negative bound maps to -1,
 * below every key: squaring it would turn "nothing is that close" into
 * a positive threshold. */
static double key_bound(double v, int64_t kind, double p) {
    if (v < 0.0) return -1.0;
    if (kind == 2) return v * v;
    if (kind == 0) return pow(v, p);
    return v;
}

/* Range count of one radius r for queries [counters[0], nq), each
 * walked on its own, depth first, over the tree's arrays.
 *
 * Decisions.  d is the kernel's distance from the query to a node's
 * center, R the node's covering radius, m = margin[row]:
 *   - swallow: d + R <= r - m credits size[node] without a visit below;
 *   - prune:   d - R >  r + m drops the node;
 *   - scan:    a leaf, or a subtree of at most vleaf members, is scanned
 *     member by member over its contiguous elems slice (coords holds
 *     the members' coordinates in elems order): a member whose kernel
 *     distance is at most r - m counts, one beyond r + m does not, and
 *     one in between becomes a band pair;
 *   - a VP node (vp_split) counts or bands its vantage like a member,
 *     swallows its inside child (every member within the threshold t)
 *     when d + t <= r - m, prunes it when d - t > r + m, and prunes its
 *     outside child (every member beyond t) when t - d > r + m;
 *   - any other node descends into every child.
 * Band pairs (band_row = query row, band_elem = element id) are left
 * for the caller, which re-measures each through numpy and adds the
 * pairs within r to counts[row].
 *
 * Exactness.  Let E bound the error of any one computed distance: the
 * kernel's, numpy's paired / einsum value D~, and the build-time floats
 * (each radius is a max of numpy distances from the center, each
 * threshold separates numpy distances: inside <= t < outside).  With
 * m >= 4E every decision taken outside the margin agrees with numpy's
 * D~(q, x) <= r for every member x it covers.  Swallow: the exact
 * distance is at most d + E + R + E, so D~ <= d + R + 3E <= r - m + 3E
 * < r; the inside-child swallow is the same argument with t for R.
 * Prune: the exact distance is at least d - R - 2E (d - t - 2E for the
 * inside child, t - d - 2E for the outside child), so D~ > r + m - 3E
 * > r.  A member or vantage
 * decided outside [r - m, r + m] is off by at most 2E.  The float
 * rounding of the bound sums (and of squaring a bound for lp_key) is
 * a few ulps of the operands, far inside the spare E.  Everything in
 * the margin is descended or banded, and the caller's re-measurement
 * is numpy's own decision, so counts equal brute force.  When r - m
 * is negative nothing is sure-in (key_bound never squares it); when
 * r + m is negative every distance is beyond r, so the row counts 0.
 *
 * Scratch: a node stack of n_nodes entries, allocated per call; each
 * node is pushed at most once per query, by its parent.
 *
 * counters[0] <- next row to walk (in: first row)
 * counters[1] <- band pairs written (in: write offset)
 * counters[2] += distance evaluations (centers, scanned members, and
 *                the second pass over a slice with band members)
 * counters[3] += node visits
 * counters[4] += members scanned
 * counters[5] += scanned members settled here (not banded)
 * A row writes counts[row] and adds to the other counters only when it
 * completes.  When its band pairs would pass cap, the row is undone
 * and the call stops with counters[0] at that row; the caller settles
 * the band written so far, grows the buffer when the row alone did not
 * fit (a row bands at most every element once), and calls again.
 * Returns 0, or -1 when the stack cannot be allocated.
 */
int64_t repro_count(
    int64_t nq, const int64_t *qids, int64_t dim, const double *data,
    const double *coords, int64_t kind, double p,
    double r, const double *margin,
    int64_t n_nodes, const int64_t *center, const double *threshold,
    const double *radius, const int64_t *size,
    const int64_t *child_lo, const int64_t *child_hi,
    const int64_t *elem_lo, const int64_t *elem_hi, const int64_t *elems,
    int64_t vp_split, int64_t vleaf,
    int64_t *counts, int64_t cap, int64_t *band_row, int64_t *band_elem,
    int64_t *counters)
{
    int64_t *stack = malloc(n_nodes * sizeof(int64_t));
    if (!stack) return -1;
    int64_t written = counters[1];
    int64_t row = counters[0];
    for (; row < nq; row++) {
        double m = margin[row];
        double lo = r - m, hi = r + m;
        if (hi < 0.0) { /* every distance is >= 0 > r */
            counts[row] = 0;
            continue;
        }
        double klo = key_bound(lo, kind, p), khi = key_bound(hi, kind, p);
        const double *q = data + qids[row] * dim;
        int64_t start = written;
        int64_t count = 0, evals = 0, visits = 0, scanned = 0, settled = 0;
        int64_t top = 0;
        stack[top++] = 0;
        while (top > 0) {
            int64_t nd = stack[--top];
            if (size[nd] == 0) continue;
            visits++;
            int64_t c = center[nd];
            double d = lp_distance(q, data + c * dim, dim, kind, p);
            evals++;
            double rad = radius[nd];
            if (d + rad <= lo) { count += size[nd]; continue; }
            if (d - rad > hi) continue;
            if (child_lo[nd] == child_hi[nd] || size[nd] <= vleaf) {
                int64_t k0 = elem_lo[nd], k1 = elem_hi[nd];
                int64_t n_in = 0, n_near = 0; /* first pass, no branches */
                for (int64_t k = k0; k < k1; k++) {
                    double s = lp_key(q, coords + k * dim, dim, kind, p);
                    n_in += (s <= klo);
                    n_near += (s <= khi);
                }
                int64_t n_band = n_near - n_in;
                count += n_in;
                evals += k1 - k0;
                scanned += k1 - k0;
                settled += (k1 - k0) - n_band;
                if (n_band) { /* second pass: emit the band members */
                    if (written + n_band > cap) goto undo;
                    for (int64_t k = k0; k < k1; k++) {
                        double s = lp_key(q, coords + k * dim, dim, kind, p);
                        if (s > klo && s <= khi) {
                            band_row[written] = row;
                            band_elem[written] = elems[k];
                            written++;
                        }
                    }
                    evals += k1 - k0;
                }
                continue;
            }
            if (vp_split) {
                if (d <= lo) {
                    count++;
                } else if (d <= hi) { /* the vantage itself, in the band */
                    if (written == cap) goto undo;
                    band_row[written] = row;
                    band_elem[written] = c;
                    written++;
                }
                double t = threshold[nd];
                int64_t ci = child_lo[nd];
                if (d + t <= lo) count += size[ci];    /* inside, swallowed */
                else if (!(d - t > hi)) stack[top++] = ci;
                if (!(t - d > hi)) stack[top++] = ci + 1; /* outside child */
            } else {
                for (int64_t ch = child_lo[nd]; ch < child_hi[nd]; ch++)
                    stack[top++] = ch;
            }
        }
        counts[row] = count;
        counters[2] += evals;
        counters[3] += visits;
        counters[4] += scanned;
        counters[5] += settled;
        continue;
    undo:
        written = start;
        break;
    }
    counters[0] = row;
    counters[1] = written;
    free(stack);
    return 0;
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
