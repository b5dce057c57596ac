//! `submit_open` — what the scheduler sees. Paper-shaped model behind two
//! shards and a router; independent submissions arrive on a Poisson
//! schedule whether or not earlier ones were answered, so this is an open
//! loop. Compute (`text` → `nn` → `tensor`) does most of the work of a
//! request; `fleet` and `serve` do little.

use crate::api::paper_config;
use crate::workloads::serving::{self, Load, Plan};
use crate::workloads::{Args, Outcome};

/// Fixed offered rate, requests per second: about 40 % of the closed-loop
/// capacity measured on the 2-core reference host (see the README), frozen.
pub const RATE_PER_S: f64 = 60.0;

pub fn run(args: &Args) -> Outcome {
    serving::run(
        args,
        &Plan {
            model: paper_config(),
            load: Load::Open {
                rate: RATE_PER_S,
                threads: 2,
            },
            replay_requests: 200,
            price_repo_tracing: false,
        },
    )
}
