//! The facility-location core behind both best-response solvers.
//!
//! Definition 1's best response and Appendix A's bandwidth best response
//! are the same combinatorial problem on two semirings: choose `k`
//! candidate rows of a `|cand| × |dests|` assignment matrix so that
//! `Σ_t w_t · best_{c ∈ S} a(c, t)` is as good as possible, where "best"
//! is `min` and lower is better for additive costs ([`MinPlus`]), `max` and
//! higher is better for bottleneck bandwidth ([`MaxMin`]). One generic
//! [`Instance`] solves both with greedy seeding plus best-improvement
//! single swaps (\[5\] in the paper); the direction is a monomorphised
//! type parameter, so each semiring compiles to its own loops.
//!
//! The destinations are the alive candidates, so the matrix is at most
//! `|cand|²` floats. Once `n − 1 > m` the §5 shortlist caps that at
//! `(m + k)²` (72² floats ≈ 41 KB at the default `m` = 64, `k` = 8); at the
//! paper's scale it is `(n − 1)²`; on a protocol node it is the known
//! peers squared, less the rows of unmeasured peers, which share one null
//! row. Every full pass over it runs at memory speed, so the solver is
//! built to *not look at rows*:
//!
//! * **Lazy greedy.** Marginal gains are submodular — a candidate's gain
//!   over the chosen set only shrinks as the set grows,
//!   `gain_{r+1}(c) ≤ gain_r(c)` — so each candidate's last evaluated
//!   gain is an upper bound for every later round. A round evaluates the
//!   candidate with the largest stale gain first and then reads only the
//!   rows whose bound could still beat, or tie, that incumbent.
//! * **Lazy swap bounds.** A swap inserting `inn` improves the objective
//!   by at most `G(inn) = Σ_t w_t · gain(b2_t → a(inn, t))`, where `b2` is
//!   the second-best assignment of the current subset. When `b2` moves,
//!   `G_new(inn) ≤ G_old(inn) + Σ_t w_t · gain(b2_new,t → b2_old,t)`: one
//!   scalar per round (the *drift*) keeps every candidate's last exact
//!   `G` valid — across rounds and across consecutive local searches on
//!   one instance — and a row is re-read only when its drifted bound
//!   fails to reject the candidate.
//! * **Fused build.** [`Instance::build_in`] writes each row as slice
//!   copies out of the residual row and sums the row's singleton
//!   objective in the same pass, so the first greedy round starts with
//!   every candidate's bound in hand and the matrix is written once.
//! * **One null row.** A candidate whose direct cost is no better than
//!   [`PathAlgebra::UNREACHED`] (a peer the node never measured) serves
//!   nobody: its row is `unserved` everywhere, its own slot included.
//!   All such candidates share one null row through a per-candidate row
//!   index, written once with its singleton sum. Candidate indices,
//!   values, sums and ties are those of a row per candidate, and a null
//!   candidate's swap bound is exactly `G = 0` (nothing is worse than
//!   `unserved`), so it is set without reading the row.
//! * **Top-k gain bound.** `Instance::gain_bound` bounds what any
//!   subset of at most `k` candidates can gain over a start `init`:
//!   with `b1` the start's assignment and `G(c) = Σ_t w_t · gain(b1_t →
//!   a(c, t))`, every `S` with `|S| ≤ k` has `f(S) ≥ f(init) − Σ top-k G`
//!   (per destination, `S ∪ init` improves `b1_t` by at most the best
//!   single candidate's gain, the sum of all of them bounds that, and
//!   dropping `init` never helps). Best response uses it to settle a turn
//!   its dead band keeps before searching.
//!
//! None of this changes a decision. Every bound discards a candidate only
//! when it provably cannot *strictly* beat the incumbent (nor, in greedy,
//! tie it at a lower index), behind 1e-9 relative margins that dwarf the
//! ≤ ~1e-13 relative rounding of the reordered sums; every possible
//! winner is re-evaluated in the reference summation order, so accepted
//! values carry reference bits and winners are resolved by
//! `(exact value, index)`. Tests pin picks, subsets and objective bits
//! against the naive loops on both semirings.
//!
//! Min-plus evaluations also stop once a partial sum reaches the incumbent
//! (terms are non-negative). Max-min cannot: its terms grow *toward* the
//! incumbent, so a partial sum proves nothing — it prunes by bound and
//! evaluates survivors in full.

use super::WiringContext;
use egoist_graph::csr::{MaxMin, MinPlus, PathAlgebra};
use egoist_graph::NodeId;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Which way an objective (and each assignment value) is optimised, on
/// top of the path semiring it lives on: a candidate's assignment is its
/// first hop [`PathAlgebra::extend`]ed by the residual path behind it
/// (from [`PathAlgebra::SOURCE`] for the candidate itself), and
/// [`PathAlgebra::better`] ranks assignments as it ranks paths.
pub trait Direction: PathAlgebra {
    /// A partial sum reaching the incumbent proves a loss (non-negative
    /// terms, lower is better).
    const ABORTS: bool;
    /// The better of two assignment values.
    fn pick(a: f64, b: f64) -> f64;
    /// `x` moved by `by ≥ 0` toward better.
    fn improve(x: f64, by: f64) -> f64;
    /// How much better `to` is than `from`, zero when it is not.
    fn gain(from: f64, to: f64) -> f64;
}

/// Additive costs: smaller is better.
impl Direction for MinPlus {
    const ABORTS: bool = true;
    #[inline]
    fn pick(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline]
    fn improve(x: f64, by: f64) -> f64 {
        x - by
    }
    #[inline]
    fn gain(from: f64, to: f64) -> f64 {
        (from - to).max(0.0)
    }
}

/// Bottleneck bandwidth: larger is better.
impl Direction for MaxMin {
    const ABORTS: bool = false;
    #[inline]
    fn pick(a: f64, b: f64) -> f64 {
        a.max(b)
    }
    #[inline]
    fn improve(x: f64, by: f64) -> f64 {
        x + by
    }
    #[inline]
    fn gain(from: f64, to: f64) -> f64 {
        (to - from).max(0.0)
    }
}

/// Obs counters of the solve paths, in [`Tally`]'s field order. All are
/// pure functions of the instance (no wall clock, no RNG), so they
/// repeat exactly for a seed.
const COUNTERS: [&str; 6] = [
    "core.solver.rounds",
    "core.solver.candidates_scanned",
    "core.solver.gain_bound_rejects",
    "core.solver.prefilter_rejects",
    "core.solver.exact_evals",
    "core.solver.eval_aborts",
];

/// What one `greedy` / `local_search` call counted; hot loops count
/// here and [`Tally::flush`] adds to the registry once per call.
#[derive(Default)]
struct Tally {
    rounds: u64,
    scanned: u64,
    bound_rejects: u64,
    prefilter_rejects: u64,
    exact_evals: u64,
    eval_aborts: u64,
}

impl Tally {
    fn flush(self) {
        static OBS: OnceLock<[egoist_obs::Counter; 6]> = OnceLock::new();
        let obs = OBS.get_or_init(|| COUNTERS.map(|name| egoist_obs::registry().counter(name)));
        let counted = [
            self.rounds,
            self.scanned,
            self.bound_rejects,
            self.prefilter_rejects,
            self.exact_evals,
            self.eval_aborts,
        ];
        for (counter, n) in obs.iter().zip(counted) {
            counter.add(n);
        }
    }
}

/// Maximum local-search rounds of every best-response policy.
pub const MAX_ROUNDS: usize = 64;

/// `ver` of a candidate whose swap bound was never evaluated.
const UNKNOWN: u32 = u32::MAX;

/// `Instance::null_row` when no candidate needs it.
const NO_ROW: u32 = u32::MAX;

/// Reusable backing storage for an [`Instance`]: the assignment matrix
/// (one row per candidate that serves anyone, plus one shared null row;
/// sizes in the module docs) plus the O(n) solver vectors. Solver
/// owners keep one arena and recycle it across turns, so a warmed-up
/// turn allocates nothing; contents never survive a build, so reuse
/// cannot change a decision.
#[derive(Default)]
pub struct SolverArena {
    /// One `|dests|`-wide row per candidate that serves anyone, plus
    /// the null row when some candidate serves nobody; row-major.
    m: Vec<f64>,
    /// Maximal runs of consecutive node ids in `dests`, as
    /// `(first slot, first id, length)`: a run is copied out of a
    /// residual row as one slice.
    runs: Vec<(usize, usize, usize)>,
    // Per destination.
    b1: Vec<f64>,
    b1_by: Vec<u32>,
    b2: Vec<f64>,
    /// The `b2` the swap bounds have drifted up to.
    b2_ref: Vec<f64>,
    /// Greedy's best-so-far, then each swap scan's surviving assignment.
    cap: Vec<f64>,
    // Per candidate.
    /// The candidate's own destination slot (`usize::MAX` when dead).
    slot: Vec<usize>,
    /// The candidate's row of `m`: every candidate that serves nobody
    /// shares the one null row.
    row_of: Vec<u32>,
    /// Objective of the singleton `{c}`, up to summation order.
    solo: Vec<f64>,
    /// Greedy's stale upper bound on the marginal gain.
    stale: Vec<f64>,
    /// Last evaluated swap bound `G(c)` …
    g: Vec<f64>,
    /// … and the `b2` version it was evaluated against.
    ver: Vec<u32>,
    /// This round's `G(c)` bound: drifted or fresh, margin included.
    ub: Vec<f64>,
    member: Vec<bool>,
    pinned: Vec<bool>,
    /// Cumulative drift at each `b2` version.
    drift_at: Vec<f64>,
}

fn reset<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// `Σ_t w_t · f(x_t, y_t)` over four independent accumulators, so the
/// compiler vectorizes it. The summation order differs from the
/// reference's, so results are only ever used behind a margin.
#[inline]
fn sum4(w: &[f64], x: &[f64], y: &[f64], f: impl Fn(f64, f64) -> f64) -> f64 {
    let mut acc = [0.0f64; 4];
    let (wc, xc, yc) = (w.chunks_exact(4), x.chunks_exact(4), y.chunks_exact(4));
    let mut rest = 0.0;
    for ((w, x), y) in wc
        .remainder()
        .iter()
        .zip(xc.remainder())
        .zip(yc.remainder())
    {
        rest += w * f(*x, *y);
    }
    for ((w, x), y) in wc.zip(xc).zip(yc) {
        acc[0] += w[0] * f(x[0], y[0]);
        acc[1] += w[1] * f(x[1], y[1]);
        acc[2] += w[2] * f(x[2], y[2]);
        acc[3] += w[3] * f(x[3], y[3]);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
}

/// `Σ_t w_t · pick(cap_t, row_t)` accumulated left to right — the
/// reference summation order, so a returned value carries reference
/// bits. `None` once a partial sum proves the candidate loses against
/// `limit` (only [`Direction::ABORTS`] directions can tell);
/// `ties_win` keeps a partial sum equal to the limit alive.
#[inline]
fn exact<D: Direction>(
    w: &[f64],
    cap: &[f64],
    row: &[f64],
    limit: f64,
    ties_win: bool,
) -> Option<f64> {
    let mut acc = 0.0;
    for ((&w, &cap), &a) in w.iter().zip(cap).zip(row) {
        acc += w * D::pick(cap, a);
        if D::ABORTS && (acc > limit || (acc == limit && !ties_win)) {
            return None;
        }
    }
    Some(acc)
}

/// Write `row[t] = pick(extend(first, tail[t]), unserved)` and return
/// `Σ w·row` from the same pass, over four lanes.
fn write_span<D: Direction>(
    first: f64,
    unserved: f64,
    tail: &[f64],
    w: &[f64],
    row: &mut [f64],
) -> f64 {
    let mut solo = [0.0f64; 4];
    let mut lane = |l: usize, tail: f64, w: f64, slot: &mut f64| {
        *slot = D::pick(D::extend(first, tail), unserved);
        solo[l] += w * *slot;
    };
    let (tc, wc) = (tail.chunks_exact(4), w.chunks_exact(4));
    let mut rc = row.chunks_exact_mut(4);
    for ((t, w), r) in tc.clone().zip(wc.clone()).zip(&mut rc) {
        lane(0, t[0], w[0], &mut r[0]);
        lane(1, t[1], w[1], &mut r[1]);
        lane(2, t[2], w[2], &mut r[2]);
        lane(3, t[3], w[3], &mut r[3]);
    }
    for ((t, w), r) in tc
        .remainder()
        .iter()
        .zip(wc.remainder())
        .zip(rc.into_remainder())
    {
        lane(0, *t, *w, r);
    }
    (solo[0] + solo[1]) + (solo[2] + solo[3])
}

/// Write candidate row `row` from its first hop and residual row
/// (`None`: the first hop is unusable, nothing is served), one slice per
/// run of consecutive destination ids, the candidate's `own` slot from
/// the semiring unit. Returns the row's weighted sum, up to summation
/// order.
fn write_row<D: Direction>(
    hop: Option<(f64, &[f64])>,
    own: usize,
    runs: &[(usize, usize, usize)],
    unserved: f64,
    w: &[f64],
    row: &mut [f64],
) -> f64 {
    let Some((first, tail)) = hop else {
        row.fill(unserved);
        return w.iter().map(|w| w * unserved).sum();
    };
    let mut solo = 0.0;
    let mut span = |t: usize, tail: &[f64]| {
        let to = t + tail.len();
        solo += write_span::<D>(first, unserved, tail, &w[t..to], &mut row[t..to]);
    };
    for &(t, id, len) in runs {
        if (t..t + len).contains(&own) {
            let before = own - t;
            span(t, &tail[id..id + before]);
            span(own, &[D::SOURCE]);
            span(own + 1, &tail[id + before + 1..id + len]);
        } else {
            span(t, &tail[id..id + len]);
        }
    }
    solo
}

/// Best and second-best assignment per destination over `subset`'s rows
/// (in subset order: the first of equal values keeps `b1`).
fn two_best<'m, D: Direction>(
    row: impl Fn(usize) -> &'m [f64],
    subset: &[usize],
    unserved: f64,
    b1: &mut [f64],
    b1_by: &mut [u32],
    b2: &mut [f64],
) {
    let nd = b1.len();
    b1.fill(unserved);
    b1_by.fill(u32::MAX);
    b2.fill(unserved);
    for &c in subset {
        let row = row(c);
        for t in 0..nd {
            let v = row[t];
            if D::better(v, b1[t]) {
                b2[t] = b1[t];
                b1[t] = v;
                b1_by[t] = c as u32;
            } else if D::better(v, b2[t]) {
                b2[t] = v;
            }
        }
    }
}

/// Positions of `nodes` in `cand` (absent nodes are dropped).
pub fn indices_of(cand: &[NodeId], nodes: &[NodeId]) -> Vec<usize> {
    nodes
        .iter()
        .filter_map(|w| cand.iter().position(|c| c == w))
        .collect()
}

/// One node's best-response instance: `a(c, t)` is what the node gets
/// for destination `t` when candidate `c` is its first hop. Built once
/// per re-wiring and shared by all solvers.
pub struct Instance<D> {
    /// Candidate neighbor ids.
    pub cand: Vec<NodeId>,
    /// Destination ids (alive, ≠ i).
    pub dests: Vec<NodeId>,
    /// Preference weight per destination (aligned with `dests`).
    pub weight: Vec<f64>,
    /// What a destination no chosen candidate serves is worth: the
    /// disconnection penalty (min-plus, an upper bound of any
    /// assignment) or zero bandwidth (max-min).
    pub unserved: f64,
    s: SolverArena,
    /// The shared row of every candidate that serves nobody, all
    /// `unserved` ([`NO_ROW`] when every candidate serves someone).
    null_row: u32,
    /// The last subset a local search proved swap-optimal, sorted, with
    /// the `forced` set it was proved under.
    settled: Option<(Vec<usize>, Vec<usize>)>,
    _direction: PhantomData<D>,
}

impl<D: Direction> Instance<D> {
    /// Build the instance from a wiring context, allocating fresh
    /// storage (tests and one-shot callers).
    pub fn build(ctx: &WiringContext<'_>) -> Self {
        Self::build_in(ctx, &mut SolverArena::default())
    }

    /// Build the instance into `arena`'s recycled buffers: destinations
    /// are the alive candidates, `a(c, t) = pick(extend(direct cost of
    /// c, residual tail c ⇝ t), unserved)`, and what nobody serves is
    /// worth `ctx.penalty`. Candidate rows are read straight through the
    /// residual view, so a warmed-up engine allocates nothing per turn; a
    /// candidate whose direct cost is no better than no link at all
    /// serves nobody and its residual row is never read. Call
    /// [`Self::recycle`] when done to hand the storage back.
    pub fn build_in(ctx: &WiringContext<'_>, arena: &mut SolverArena) -> Self {
        let unserved = ctx.penalty;
        let cand: Vec<NodeId> = ctx.candidates.to_vec();
        let mut s = std::mem::take(arena);
        let mut dests: Vec<NodeId> = Vec::with_capacity(cand.len());
        s.slot.clear();
        s.runs.clear();
        for &j in &cand {
            if !ctx.alive[j.index()] {
                s.slot.push(usize::MAX);
                continue;
            }
            s.slot.push(dests.len());
            match s.runs.last_mut() {
                Some((_, id, len)) if *id + *len == j.index() => *len += 1,
                _ => s.runs.push((dests.len(), j.index(), 1)),
            }
            dests.push(j);
        }
        let weight: Vec<f64> = dests.iter().map(|&j| ctx.prefs.get(ctx.node, j)).collect();
        let (nc, nd) = (cand.len(), dests.len());
        // A candidate no better than no link at all gets the null row.
        let serves = |w: NodeId| D::better(ctx.direct[w.index()], D::UNREACHED);
        let mut rows = 0u32;
        let mut null_row = NO_ROW;
        s.row_of.clear();
        for &w in &cand {
            if serves(w) {
                s.row_of.push(rows);
                rows += 1;
            } else {
                if null_row == NO_ROW {
                    null_row = rows;
                    rows += 1;
                }
                s.row_of.push(null_row);
            }
        }
        // No clear: every row is overwritten below, and a re-used
        // matrix of the same size is then not written twice.
        s.m.resize(rows as usize * nd, unserved);
        s.solo.clear();
        let mut null_solo = None;
        for (c, &w) in cand.iter().enumerate() {
            let r = s.row_of[c] as usize;
            let row = &mut s.m[r * nd..(r + 1) * nd];
            let solo = if serves(w) {
                let hop = (ctx.direct[w.index()], ctx.residual.row(w.index()));
                write_row::<D>(Some(hop), s.slot[c], &s.runs, unserved, &weight, row)
            } else {
                *null_solo
                    .get_or_insert_with(|| write_row::<D>(None, 0, &[], unserved, &weight, row))
            };
            s.solo.push(solo);
        }
        static NULL_ROWS: OnceLock<egoist_obs::Counter> = OnceLock::new();
        NULL_ROWS
            .get_or_init(|| egoist_obs::registry().counter("core.solver.null_rows"))
            .add(nc as u64 + u64::from(null_row != NO_ROW) - u64::from(rows));
        // No swap bound is known yet; the first search's first `b2` is
        // version 0.
        reset(&mut s.b1, nd, unserved);
        reset(&mut s.b1_by, nd, u32::MAX);
        reset(&mut s.b2, nd, unserved);
        reset(&mut s.b2_ref, nd, unserved);
        reset(&mut s.cap, nd, unserved);
        reset(&mut s.g, nc, 0.0);
        reset(&mut s.ver, nc, UNKNOWN);
        reset(&mut s.drift_at, 1, 0.0);
        Instance {
            cand,
            dests,
            weight,
            unserved,
            s,
            null_row,
            settled: None,
            _direction: PhantomData,
        }
    }

    /// Return the instance's backing storage to `arena` for the next
    /// turn.
    pub fn recycle(self, arena: &mut SolverArena) {
        *arena = self.s;
    }

    /// What candidate `c` gives destination `t` — read-only probe for
    /// the reference loops, benches and tests.
    #[inline]
    pub fn assignment(&self, c: usize, t: usize) -> f64 {
        self.s.m[self.s.row_of[c] as usize * self.dests.len() + t]
    }

    /// How much better than `init` a subset of at most `k` candidates
    /// can possibly be: the sum of the `k` largest `G(c) = Σ_t w_t ·
    /// gain(b1_t → a(c, t))`, `b1` being `init`'s assignment. Marginal
    /// gains are submodular, so adding `S` to `init` gains at most
    /// `Σ_{c ∈ S} G(c)`, and dropping `init` never helps: every `S` with
    /// `|S| ≤ k` stays within this bound of `eval(init)`. Sums are
    /// reordered, so the bound is only good behind a margin. A null
    /// candidate gains nothing and its row is not read.
    pub(crate) fn gain_bound(&mut self, init: &[usize], k: usize) -> f64 {
        let nd = self.dests.len();
        let w = &self.weight;
        let SolverArena {
            m,
            row_of,
            b1,
            ub: gains,
            ..
        } = &mut self.s;
        let row = |c: usize| &m[row_of[c] as usize * nd..][..nd];
        reset(b1, nd, self.unserved);
        for &c in init {
            for (b, &a) in b1.iter_mut().zip(row(c)) {
                *b = D::pick(*b, a);
            }
        }
        gains.clear();
        gains.extend((0..self.cand.len()).map(|c| match row_of[c] {
            r if r == self.null_row => 0.0,
            _ => sum4(w, b1, row(c), D::gain),
        }));
        let k = k.min(gains.len());
        if k < gains.len() {
            gains.select_nth_unstable_by(k, |a, b| b.total_cmp(a));
        }
        gains[..k].iter().sum()
    }

    /// Objective of a candidate subset (indices into `cand`).
    pub fn eval(&self, subset: &[usize]) -> f64 {
        let mut total = 0.0;
        for (t, &w) in self.weight.iter().enumerate() {
            let mut best = self.unserved;
            for &c in subset {
                best = D::pick(best, self.assignment(c, t));
            }
            total += w * best;
        }
        total
    }

    /// Greedy seeding: repeatedly add the candidate with the best
    /// marginal objective, the lowest index among exact ties. `forced`
    /// members are taken first.
    ///
    /// Lazy (see the module docs): per round one exact evaluation of the
    /// candidate with the largest stale gain, then a pass that reads a
    /// row only when `base ∓ stale_gain` could still beat or tie the
    /// incumbent. Picks are identical to the eager loop's.
    pub fn greedy(&mut self, k: usize, forced: &[usize]) -> Vec<usize> {
        let (nc, nd) = (self.cand.len(), self.dests.len());
        let w = &self.weight;
        let SolverArena {
            m,
            row_of,
            cap: best,
            solo,
            stale,
            member,
            ..
        } = &mut self.s;
        let row = |c: usize| &m[row_of[c] as usize * nd..][..nd];
        let mut chosen: Vec<usize> = forced.to_vec();
        reset(member, nc, false);
        reset(best, nd, self.unserved);
        for &c in forced {
            member[c] = true;
            for (b, &a) in best.iter_mut().zip(row(c)) {
                *b = D::pick(*b, a);
            }
        }
        // A candidate's gain when it took the objective from `base` to
        // `value`, inflated to cover the rounding of the two sums.
        let gain_at =
            |base: f64, value: f64| D::gain(base, value) + 1e-11 * (base.abs() + value.abs());
        // A gain over the empty set bounds the gain over any set.
        let empty: f64 = w.iter().map(|w| w * self.unserved).sum();
        stale.clear();
        stale.extend(solo.iter().map(|&v| gain_at(empty, v)));
        let mut tally = Tally::default();
        while chosen.len() < k.min(nc) {
            let base = sum4(w, best, best, |b, _| b);
            let Some(first) = (0..nc)
                .filter(|&c| !member[c])
                .max_by(|&a, &b| stale[a].total_cmp(&stale[b]))
            else {
                break;
            };
            tally.scanned += 1;
            tally.exact_evals += 1;
            let mut pick = first;
            let mut pick_val = exact::<D>(w, best, row(first), f64::INFINITY, true)
                .expect("nothing aborts against an infinite limit");
            stale[first] = gain_at(base, pick_val);
            for c in (0..nc).filter(|&c| !member[c] && c != first) {
                tally.scanned += 1;
                let slack = 1e-9 * (base.abs() + stale[c] + 1.0);
                if D::better(pick_val, D::improve(base, stale[c] + slack)) {
                    tally.bound_rejects += 1;
                    continue;
                }
                let approx = sum4(w, best, row(c), D::pick);
                stale[c] = gain_at(base, approx);
                if D::better(pick_val, D::improve(approx, 1e-9 * (approx.abs() + 1.0))) {
                    tally.prefilter_rejects += 1;
                    continue;
                }
                tally.exact_evals += 1;
                match exact::<D>(w, best, row(c), pick_val, c < pick) {
                    None => tally.eval_aborts += 1,
                    Some(v) => {
                        if D::better(v, pick_val) || (v == pick_val && c < pick) {
                            pick = c;
                            pick_val = v;
                        }
                    }
                }
            }
            chosen.push(pick);
            member[pick] = true;
            for (b, &a) in best.iter_mut().zip(row(pick)) {
                *b = D::pick(*b, a);
            }
        }
        tally.flush();
        chosen
    }

    /// Best-improvement single-swap local search starting from `init`
    /// (filled up by [`Self::greedy`] when shorter than `k`). `forced`
    /// members are never swapped out. Returns the subset and its
    /// objective.
    ///
    /// Each `(out, inn)` pair passes three sound filters before it costs
    /// an exact evaluation — the drifted swap bound, that bound
    /// re-evaluated against the current `b2` (once per candidate and
    /// round, only for candidates the drifted one lets through), and a
    /// vectorized approximation of the pair's objective — so accepted
    /// swaps, their values and the whole trajectory are those of the
    /// naive scan. A start that an earlier search on this instance
    /// already proved swap-optimal is returned as it is: whether a
    /// strictly improving swap exists depends on the subset as a set,
    /// not on its order.
    pub fn local_search(
        &mut self,
        k: usize,
        init: Vec<usize>,
        forced: &[usize],
        max_rounds: usize,
    ) -> (Vec<usize>, f64) {
        let (nc, nd) = (self.cand.len(), self.dests.len());
        let mut subset = init;
        subset.sort_unstable();
        subset.dedup();
        if subset.len() < k.min(nc) {
            subset = self.greedy(k, &subset);
        }
        let mut value = self.eval(&subset);
        let sorted = |v: &[usize]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        let forced_key = sorted(forced);
        if (self.settled.as_ref()).is_some_and(|(s, f)| *s == sorted(&subset) && *f == forced_key) {
            return (subset, value);
        }
        let w = &self.weight;
        let SolverArena {
            m,
            row_of,
            b1,
            b1_by,
            b2,
            b2_ref,
            cap: surviving,
            g,
            ver,
            ub,
            member,
            pinned,
            drift_at,
            ..
        } = &mut self.s;
        let (m, row_of): (&[f64], &[u32]) = (m, row_of);
        let row = |c: usize| &m[row_of[c] as usize * nd..][..nd];
        reset(member, nc, false);
        for &c in &subset {
            member[c] = true;
        }
        reset(pinned, nc, false);
        for &c in forced {
            pinned[c] = true;
        }
        let mut tally = Tally::default();
        for _ in 0..max_rounds {
            tally.rounds += 1;
            two_best::<D>(row, &subset, self.unserved, b1, b1_by, b2);
            // Every stored swap bound stays valid if it is widened by
            // how much better the old `b2` was than the new one.
            let (mut moved, mut drift) = (false, 0.0);
            for ((&w, &new), old) in w.iter().zip(b2.iter()).zip(b2_ref.iter_mut()) {
                if new.to_bits() != old.to_bits() {
                    moved = true;
                    drift += w * D::gain(new, *old);
                    *old = new;
                }
            }
            if moved {
                drift_at.push(drift_at[drift_at.len() - 1] + drift);
            }
            let now = drift_at.len() - 1;
            // 1e-9 relative: dwarfs the ≤ ~1e-13 rounding of the sums
            // behind a bound, prunes everything that is not a near-tie.
            ub.clear();
            ub.extend(g.iter().zip(ver.iter()).map(|(&g, &v)| match v {
                UNKNOWN => f64::INFINITY,
                v => (g + (drift_at[now] - drift_at[v as usize])) * (1.0 + 1e-9),
            }));

            let mut best_swap: Option<(usize, usize)> = None; // (out, in)
            let mut threshold = D::improve(value, 1e-12);
            for &out in subset.iter().filter(|&&c| !pinned[c]) {
                // The assignment that survives dropping `out`, and its
                // total: the swap's objective before `inn` helps anywhere.
                for t in 0..nd {
                    surviving[t] = if b1_by[t] == out as u32 { b2[t] } else { b1[t] };
                }
                let base = sum4(w, surviving, surviving, |s, _| s);
                // The surviving assignment is never better than `b2`, so
                // `inn` improves on `base` by at most G(inn): a pair
                // whose bound leaves `base` short of the threshold
                // cannot win.
                let room_under =
                    |threshold: f64| D::gain(base, threshold) - 1e-9 * (base.abs() + 1.0);
                let mut room = room_under(threshold);
                for inn in (0..nc).filter(|&c| !member[c]) {
                    tally.scanned += 1;
                    if ub[inn] <= room {
                        tally.bound_rejects += 1;
                        continue;
                    }
                    if ver[inn] != now as u32 {
                        // Nothing is worse than a null row's `unserved`.
                        g[inn] = match row_of[inn] {
                            r if r == self.null_row => 0.0,
                            _ => sum4(w, b2, row(inn), D::gain),
                        };
                        ver[inn] = now as u32;
                        ub[inn] = g[inn] * (1.0 + 1e-9);
                        if ub[inn] <= room {
                            tally.bound_rejects += 1;
                            continue;
                        }
                    }
                    let approx = sum4(w, surviving, row(inn), D::pick);
                    if !D::better(D::improve(approx, 1e-9 * (approx.abs() + 1.0)), threshold) {
                        tally.prefilter_rejects += 1;
                        continue; // the exact evaluation could not win
                    }
                    tally.exact_evals += 1;
                    match exact::<D>(w, surviving, row(inn), threshold, false) {
                        None => tally.eval_aborts += 1,
                        Some(v) => {
                            if D::better(v, threshold) {
                                best_swap = Some((out, inn));
                                threshold = v;
                                room = room_under(threshold);
                            }
                        }
                    }
                }
            }
            match best_swap {
                Some((out, inn)) => {
                    subset.retain(|&c| c != out);
                    subset.push(inn);
                    member[out] = false;
                    member[inn] = true;
                    value = threshold;
                }
                None => {
                    self.settled = Some((sorted(&subset), forced_key));
                    break;
                }
            }
        }
        tally.flush();
        (subset, value)
    }

    /// Exhaustive optimum over all `C(|cand|, k)` subsets containing
    /// `forced`. Returns `None` when the enumeration would exceed
    /// `budget` subsets.
    pub fn exhaustive(&self, k: usize, forced: &[usize], budget: u64) -> Option<(Vec<usize>, f64)> {
        let k = k.min(self.cand.len());
        let free: Vec<usize> = (0..self.cand.len())
            .filter(|c| !forced.contains(c))
            .collect();
        let pick = k.saturating_sub(forced.len());
        if combinations(free.len() as u64, pick as u64) > budget {
            return None;
        }
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut subset: Vec<usize> = forced.to_vec();
        self.enumerate(&free, pick, 0, &mut subset, &mut best);
        best
    }

    fn enumerate(
        &self,
        free: &[usize],
        remaining: usize,
        start: usize,
        subset: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        if remaining == 0 {
            let v = self.eval(subset);
            if best.as_ref().map(|(_, b)| D::better(v, *b)).unwrap_or(true) {
                *best = Some((subset.clone(), v));
            }
            return;
        }
        for idx in start..free.len() {
            if free.len() - idx < remaining {
                break;
            }
            subset.push(free[idx]);
            self.enumerate(free, remaining - 1, idx + 1, subset, best);
            subset.pop();
        }
    }

    /// Map candidate indices back to node ids.
    pub fn to_nodes(&self, subset: &[usize]) -> Vec<NodeId> {
        subset.iter().map(|&c| self.cand[c]).collect()
    }
}

fn combinations(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
        if acc > 1 << 60 {
            return u64::MAX;
        }
    }
    acc
}

#[cfg(test)]
impl<D: Direction> Instance<D> {
    /// Candidate `c`'s row and singleton sum as [`write_row`] writes them
    /// for `ctx` on a row of its own — what `build_in` stored for every
    /// candidate before unserved ones shared the null row.
    pub(crate) fn written_row(&self, ctx: &WiringContext<'_>, c: usize) -> (Vec<f64>, f64) {
        let w = self.cand[c];
        let first = ctx.direct[w.index()];
        let hop = D::better(first, D::UNREACHED).then(|| (first, ctx.residual.row(w.index())));
        let mut row = vec![f64::NAN; self.dests.len()];
        let own = self.s.slot[c];
        let solo = write_row::<D>(
            hop,
            own,
            &self.s.runs,
            self.unserved,
            &self.weight,
            &mut row,
        );
        (row, solo)
    }

    /// The singleton sum `build_in` stored for candidate `c`.
    pub(crate) fn singleton_sum(&self, c: usize) -> f64 {
        self.s.solo[c]
    }
}

#[cfg(test)]
mod tests {
    // The solver itself is pinned against the eager loops where those
    // live: `best_response.rs`, `bandwidth.rs` and `crate::proptests`.
    #[test]
    fn combinations_helper() {
        assert_eq!(super::combinations(5, 2), 10);
        assert_eq!(super::combinations(49, 3), 18424);
        assert_eq!(super::combinations(3, 5), 0);
    }
}
