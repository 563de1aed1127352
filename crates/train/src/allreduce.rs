//! Synchronous allreduce over rank threads, with the paper's optimizations.
//!
//! Paper §4.4.4: "the set of non-null gradient tensors differs for each rank
//! and is a small fraction of the total set of tensors. Therefore we first
//! perform an allreduce to obtain a map of all the tensors that are present
//! on all ranks; then ... we reduce all of the gradient tensors in the list"
//! — with small tensors concatenated into one buffer so the communication is
//! a single bandwidth-bound operation instead of thousands of latency-bound
//! calls. Reducing only non-null gradients gave 4×; concatenation removed
//! the remaining per-tensor latency.
//!
//! Ranks are threads sharing an [`AllReduceCtx`]; every reduction "round"
//! costs barrier crossings (mirroring an `MPI_Allreduce` call), so the
//! per-tensor strategy pays the latency the paper measured and the
//! concatenated strategy amortizes it.
//!
//! Sums are added in rank order `0..n` from zero, never in the order ranks
//! happen to arrive: f32 addition does not associate, so with three or more
//! ranks an arrival-order sum would make a run's bits depend on scheduling.

use crate::network::IcNetwork;
use etalumis_nn::Module;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// Reduction strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllReduceStrategy {
    /// One reduction round per tensor, all tensors (pre-optimization).
    DensePerTensor,
    /// Presence-map round, then one round per non-null tensor (4× step).
    SparsePerTensor,
    /// Presence-map round, then a single concatenated round (full
    /// optimization).
    SparseConcat,
}

/// Calls its argument on every tensor of a gradient set, in a fixed order.
type VisitGrads<'a> = dyn FnMut(&mut dyn FnMut(&mut [f32])) + 'a;

/// Shared state for `n` rank threads.
pub struct AllReduceCtx {
    n: usize,
    barrier: Barrier,
    /// Each rank's contribution to the current `reduce_sum` round.
    slots: Vec<RwLock<Vec<f32>>>,
    flags: Mutex<Vec<bool>>,
    /// Reduction rounds performed (for instrumentation).
    rounds: AtomicUsize,
}

impl AllReduceCtx {
    /// New context for `n` ranks.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            barrier: Barrier::new(n),
            slots: (0..n).map(|_| RwLock::new(Vec::new())).collect(),
            flags: Mutex::new(Vec::new()),
            rounds: AtomicUsize::new(0),
        }
    }

    /// Number of participating ranks.
    pub fn num_ranks(&self) -> usize {
        self.n
    }

    /// Total reduction rounds so far.
    pub fn rounds(&self) -> usize {
        self.rounds.load(Ordering::Relaxed)
    }

    /// One synchronous sum-reduction round over a flat buffer; on return
    /// every rank's `data` holds the element-wise sum across ranks, added
    /// in rank order starting from zero — identical bits on every rank and
    /// in every run.
    pub fn reduce_sum(&self, rank: usize, data: &mut [f32]) {
        {
            let mut slot = self.slots[rank].write();
            slot.clear();
            slot.extend_from_slice(data);
        }
        self.barrier.wait();
        data.fill(0.0);
        for slot in &self.slots {
            for (d, &x) in data.iter_mut().zip(slot.read().iter()) {
                *d += x;
            }
        }
        // No rank refills its slot until every rank has read them all.
        self.barrier.wait();
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Synchronous logical-OR reduction of a presence bitmap.
    pub fn reduce_or(&self, bits: &mut [bool]) {
        self.barrier.wait();
        {
            let mut fl = self.flags.lock();
            if fl.len() != bits.len() {
                fl.clear();
                fl.resize(bits.len(), false);
            }
            for (f, &b) in fl.iter_mut().zip(bits.iter()) {
                *f |= b;
            }
        }
        self.barrier.wait();
        {
            let fl = self.flags.lock();
            bits.copy_from_slice(&fl);
        }
        self.barrier.wait();
        {
            let mut fl = self.flags.lock();
            if !fl.is_empty() {
                fl.clear();
            }
        }
        self.barrier.wait();
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Allreduce-average a list of named gradient tensors under a strategy.
    ///
    /// `rank` is the caller's rank. Every rank must call this with the same
    /// tensor list (same names, same order, same shapes) — exactly the
    /// contract of the paper's globally shared pre-generated network.
    /// Returns the number of scalar elements communicated by this rank.
    pub fn allreduce_gradients(
        &self,
        rank: usize,
        grads: &mut [(&str, &mut [f32])],
        strategy: AllReduceStrategy,
    ) -> usize {
        self.average(rank, strategy, &mut |f| {
            for (_, g) in grads.iter_mut() {
                f(g);
            }
        })
    }

    /// The strategies over any gradient set: `visit` hands every gradient
    /// tensor to its argument, in the same order on every rank.
    fn average(
        &self,
        rank: usize,
        strategy: AllReduceStrategy,
        visit: &mut VisitGrads<'_>,
    ) -> usize {
        let inv_n = 1.0 / self.n as f32;
        let mut elems = 0usize;
        if strategy == AllReduceStrategy::DensePerTensor {
            visit(&mut |g| {
                self.reduce_sum(rank, g);
                g.iter_mut().for_each(|v| *v *= inv_n);
                elems += g.len();
            });
            return elems;
        }
        // Presence map: which tensors have any non-zero gradient on any
        // rank.
        let mut present = Vec::new();
        visit(&mut |g| present.push(g.iter().any(|&x| x != 0.0)));
        self.reduce_or(&mut present);
        elems += present.len();
        let mut i = 0usize;
        if strategy == AllReduceStrategy::SparsePerTensor {
            visit(&mut |g| {
                if present[i] {
                    self.reduce_sum(rank, g);
                    g.iter_mut().for_each(|v| *v *= inv_n);
                    elems += g.len();
                }
                i += 1;
            });
            return elems;
        }
        // Concatenate all present tensors into one buffer.
        let mut buf = Vec::new();
        visit(&mut |g| {
            if present[i] {
                buf.extend_from_slice(g);
            }
            i += 1;
        });
        self.reduce_sum(rank, &mut buf);
        elems += buf.len();
        let (mut i, mut off) = (0usize, 0usize);
        visit(&mut |g| {
            if present[i] {
                for (dst, src) in g.iter_mut().zip(&buf[off..]) {
                    *dst = src * inv_n;
                }
                off += g.len();
            }
            i += 1;
        });
        elems
    }
}

/// One rank's seat in a reduction group: the collectives a distributed
/// training step runs between its gradient and update halves.
pub(crate) struct RankSeat<'a> {
    pub ctx: &'a AllReduceCtx,
    pub rank: usize,
    pub strategy: AllReduceStrategy,
}

impl RankSeat<'_> {
    /// Average the network's gradients across ranks under the seat's
    /// strategy; returns the scalar elements this rank communicated.
    pub fn average_gradients(&self, net: &mut IcNetwork) -> usize {
        self.ctx.average(self.rank, self.strategy, &mut |f| {
            net.visit_params("", &mut |_, p| f(p.grad.data_mut()));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn run_ranks<F: Fn(usize) + Sync>(n: usize, f: F) {
        std::thread::scope(|s| {
            for r in 0..n {
                let f = &f;
                s.spawn(move || f(r));
            }
        });
    }

    #[test]
    fn reduce_sum_sums_across_ranks() {
        let ctx = Arc::new(AllReduceCtx::new(3));
        let out = Mutex::new(vec![Vec::new(); 3]);
        run_ranks(3, |r| {
            let mut data = vec![r as f32 + 1.0; 4];
            ctx.reduce_sum(r, &mut data);
            out.lock()[r] = data;
        });
        let res = out.lock();
        for r in 0..3 {
            assert_eq!(res[r], vec![6.0; 4], "rank {r}");
        }
    }

    #[test]
    fn reduce_sum_adds_in_rank_order_whatever_the_arrival_order() {
        // (1e8 + 1) + -1e8 is 0 in f32 but 1e8 + -1e8 + 1 is 1: a sum in
        // lock-arrival order returns either, depending on scheduling.
        let contributions = [1e8f32, 1.0, -1e8];
        for _ in 0..300 {
            let ctx = AllReduceCtx::new(3);
            let out = Mutex::new(vec![f32::NAN; 3]);
            run_ranks(3, |r| {
                let mut data = [contributions[r]];
                ctx.reduce_sum(r, &mut data);
                out.lock()[r] = data[0];
            });
            assert_eq!(*out.lock(), vec![0.0; 3]);
        }
    }

    #[test]
    fn repeated_rounds_do_not_leak_state() {
        let ctx = Arc::new(AllReduceCtx::new(2));
        run_ranks(2, |r| {
            for round in 0..5 {
                let mut data = vec![(r + round) as f32; 3];
                ctx.reduce_sum(r, &mut data);
                let expect = (0 + round) as f32 + (1 + round) as f32;
                assert_eq!(data, vec![expect; 3], "round {round}");
            }
        });
        assert_eq!(ctx.rounds(), 10); // 5 rounds × both ranks counted once each...
    }

    #[test]
    fn strategies_agree_on_the_averaged_result() {
        for strategy in [
            AllReduceStrategy::DensePerTensor,
            AllReduceStrategy::SparsePerTensor,
            AllReduceStrategy::SparseConcat,
        ] {
            let ctx = Arc::new(AllReduceCtx::new(2));
            let results = Mutex::new(vec![Vec::<Vec<f32>>::new(); 2]);
            run_ranks(2, |r| {
                // Rank 0 has grads in tensor A only; rank 1 in tensor B only;
                // tensor C is null on both (skipped by sparse strategies).
                let mut a = if r == 0 { vec![2.0, 4.0] } else { vec![0.0, 0.0] };
                let mut b = if r == 1 { vec![6.0] } else { vec![0.0] };
                let mut c = vec![0.0, 0.0, 0.0];
                {
                    let mut list: Vec<(&str, &mut [f32])> =
                        vec![("a", &mut a), ("b", &mut b), ("c", &mut c)];
                    ctx.allreduce_gradients(r, &mut list, strategy);
                }
                results.lock()[r] = vec![a, b, c];
            });
            let res = results.lock();
            for r in 0..2 {
                assert_eq!(res[r][0], vec![1.0, 2.0], "{strategy:?} rank {r} tensor a");
                assert_eq!(res[r][1], vec![3.0], "{strategy:?} rank {r} tensor b");
                assert_eq!(res[r][2], vec![0.0, 0.0, 0.0], "{strategy:?} tensor c");
            }
        }
    }

    #[test]
    fn sparse_strategies_move_fewer_elements() {
        let ctx_dense = Arc::new(AllReduceCtx::new(2));
        let ctx_sparse = Arc::new(AllReduceCtx::new(2));
        let dense_elems = Mutex::new(0usize);
        let sparse_elems = Mutex::new(0usize);
        run_ranks(2, |r| {
            let mut tensors: Vec<Vec<f32>> =
                (0..10).map(|i| if i == r { vec![1.0; 100] } else { vec![0.0; 100] }).collect();
            {
                let mut list: Vec<(&str, &mut [f32])> =
                    tensors.iter_mut().map(|t| ("t", t.as_mut_slice())).collect();
                let e =
                    ctx_dense.allreduce_gradients(r, &mut list, AllReduceStrategy::DensePerTensor);
                if r == 0 {
                    *dense_elems.lock() = e;
                }
            }
            let mut tensors2: Vec<Vec<f32>> =
                (0..10).map(|i| if i == r { vec![1.0; 100] } else { vec![0.0; 100] }).collect();
            {
                let mut list: Vec<(&str, &mut [f32])> =
                    tensors2.iter_mut().map(|t| ("t", t.as_mut_slice())).collect();
                let e =
                    ctx_sparse.allreduce_gradients(r, &mut list, AllReduceStrategy::SparseConcat);
                if r == 0 {
                    *sparse_elems.lock() = e;
                }
            }
        });
        assert_eq!(*dense_elems.lock(), 1000);
        // Sparse: presence map (10) + 2 non-null tensors (200).
        assert_eq!(*sparse_elems.lock(), 210);
    }
}
