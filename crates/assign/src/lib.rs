//! VIP→instance assignment (paper §4.4–4.5, Figure 7).
//!
//! The Yoda controller decides which VIPs (and hence which rule sets) live
//! on which L7 instances. The paper formulates this as an ILP:
//!
//! * **Objective** — minimize the number of instances used.
//! * **Eq. 1 traffic** — every instance can absorb its VIPs' traffic even
//!   after `f_v = n_v · o_v` of each VIP's instances fail: each replica
//!   carries `t_v / (n_v − f_v)`.
//! * **Eq. 2 rules** — per-instance rule memory `R_y` (which caps lookup
//!   latency; Figure 6 maps 2K rules ≈ 5 ms target).
//! * **Eq. 3 replicas** — each VIP gets exactly `n_v` instances.
//! * **Eq. 4–5 transient traffic** — mux updates are not atomic, so during
//!   a transition an instance may carry the max of its old and new load;
//!   that max must fit capacity.
//! * **Eq. 6–7 migration** — at most a fraction δ of connections may
//!   migrate between instances per update (TCPStore throughput bound).
//!
//! The paper solves this with CPLEX at a 10% optimality gap. This crate
//! provides: an exact solver ([`solve_exact`]: a dense two-phase simplex,
//! [`LinearProgram`], under branch-and-bound) for small/medium instances,
//! the migration-aware greedy solver with local search for trace-scale
//! inputs ([`solve_greedy`]), and the all-to-all baseline the paper
//! compares against in Figure 16 ([`all_to_all`]).

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "an offline planner over dense matrices the controller sizes itself; no packet or timer handler calls it"
)]

mod alltoall;
mod bnb;
mod greedy;
mod model;
mod simplex;

pub use alltoall::{all_to_all, AllToAll};
pub use bnb::solve_exact;
pub use greedy::{solve_greedy, GreedyOutcome};
pub use model::{transition_stats, AssignError, AssignInput, Assignment, TransitionStats, VipSpec};
pub use simplex::{Cmp, LinearProgram, LpError, LpResult};
