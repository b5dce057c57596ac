//! `wire_closed` — the request path with the model taken out. Same two
//! shards and router as `submit_open`, but a toy model whose forward pass
//! costs about 0.1 ms, and two callers that each wait for their reply
//! (closed loop). Frame codec, router, the shard's reader/worker/writer
//! threads, admission, queue, linger and reply dominate. A kernel change
//! must not move this workload; a request-path change must.

use crate::api::toy_config;
use crate::workloads::serving::{self, Load, Plan};
use crate::workloads::{Args, Outcome};

pub fn run(args: &Args) -> Outcome {
    serving::run(
        args,
        &Plan {
            model: toy_config(),
            load: Load::Closed { clients: 2 },
            replay_requests: 400,
            // Priced here, on the workload where the request path is the cost.
            price_repo_tracing: true,
        },
    )
}
