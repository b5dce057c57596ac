//! What `submit_open` and `wire_closed` share: two in-process shards on
//! loopback TCP behind one router, one script per request, users hashed
//! across both shards. The two differ in the model (paper-shaped or toy) and
//! in the loop (open at a fixed rate, or closed).

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::api::*;
use crate::layers::{self, KernelReplay};
use crate::loadgen::{self, PhaseResult};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{
    repeat_setup, set_latencies, set_tail_metrics, time_median, Args, Outcome, PROBES,
};

pub const SHARDS: usize = 2;
/// Jobs the initial model is trained on (also the word2vec corpus).
const TRAIN_JOBS: usize = 128;
/// Distinct jobs requests are drawn from.
const POOL_JOBS: usize = 1000;
/// Warm-up requests: dial both shards' pooled connections, grow pack
/// buffers, fault in the replica's scratch.
const WARMUP: usize = 64;

/// How the load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Poisson arrivals at `rate` per second from `threads` generators.
    Open { rate: f64, threads: usize },
    /// `clients` callers that each wait for their reply.
    Closed { clients: usize },
}

pub struct Plan {
    pub model: PrionnConfig,
    pub load: Load,
    /// Requests of the uncontended nested replay in a traced run.
    pub replay_requests: usize,
    /// Also price the repository's own tracing (tracer + flight recorder on
    /// router and shards) in a traced run.
    pub price_repo_tracing: bool,
}

/// A booted fleet plus everything needed to drive and check it.
pub struct Serving {
    pub fleet: Fleet,
    /// In-process model from the same checkpoint the shards serve.
    pub reference: Prionn,
    pub checkpoint: Checkpoint,
    pub pool: Vec<JobRecord>,
    pub scripts: Vec<String>,
    pub users: Vec<u64>,
    pub gen_s: f64,
    pub w2v_s: f64,
}

/// FNV-1a of the user name: a stable numeric user id for the router's ring.
fn user_id(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn setup(seed: u64, model: &PrionnConfig) -> Serving {
    // Cancelled submissions are dropped, so ask for a tenth more than needed.
    let wanted = TRAIN_JOBS + POOL_JOBS;
    let (jobs, gen_s) = generate_jobs(seed, wanted + wanted / 5);
    assert!(jobs.len() >= wanted, "trace too short: {}", jobs.len());
    let (trained, w2v_s) = trained_model(model.clone(), &jobs[..TRAIN_JOBS]);
    let checkpoint = trained.to_checkpoint().expect("checkpoint trained model");
    let fleet = Fleet::boot(&checkpoint, SHARDS, false);
    let reference = Prionn::from_checkpoint(&checkpoint).expect("reference model");
    let pool: Vec<JobRecord> = jobs[TRAIN_JOBS..wanted].to_vec();
    let scripts: Vec<String> = pool.iter().map(|j| j.script.clone()).collect();
    let users: Vec<u64> = pool.iter().map(|j| user_id(&j.user)).collect();
    for i in 0..WARMUP {
        let k = i % scripts.len();
        fleet
            .router
            .predict(users[k], std::slice::from_ref(&scripts[k]))
            .expect("warm-up request");
    }
    Serving {
        fleet,
        reference,
        checkpoint,
        pool,
        scripts,
        users,
        gen_s,
        w2v_s,
    }
}

/// Predicted runtimes by pool index, as `f64` bits (NaN = not yet asked).
struct Answers(Vec<AtomicU64>);

impl Answers {
    fn new(n: usize) -> Answers {
        Answers((0..n).map(|_| AtomicU64::new(f64::NAN.to_bits())).collect())
    }

    fn put(&self, k: usize, runtime_minutes: f64) {
        // Relaxed: a plain value read only after the generator threads join.
        self.0[k].store(runtime_minutes.to_bits(), Ordering::Relaxed);
    }

    /// Mean relative accuracy of the answered jobs against their true
    /// runtimes, and how many were answered.
    fn accuracy(&self, pool: &[JobRecord]) -> (f64, usize) {
        let scored: Vec<f64> = self
            .0
            .iter()
            .zip(pool)
            .filter_map(|(slot, job)| {
                let pred = f64::from_bits(slot.load(Ordering::Relaxed));
                (!pred.is_nan()).then(|| relative_accuracy(job.runtime_minutes(), pred))
            })
            .collect();
        (
            scored.iter().sum::<f64>() / scored.len().max(1) as f64,
            scored.len(),
        )
    }
}

/// Offer `load` for `seconds`; a request is ok when the reply carries
/// exactly one prediction.
fn offer(s: &Serving, load: Load, seed: u64, seconds: f64, answers: &Answers) -> PhaseResult {
    // The in-process model is not `Sync`; the generator threads share only
    // the router and the request pool.
    let Serving {
        fleet,
        scripts,
        users,
        ..
    } = s;
    let send = |i: usize| {
        let k = i % scripts.len();
        match fleet
            .router
            .predict(users[k], std::slice::from_ref(&scripts[k]))
        {
            Ok(reply) if reply.predictions.len() == 1 => {
                answers.put(k, reply.predictions[0].runtime_minutes);
                true
            }
            _ => false,
        }
    };
    drive(load, seed, seconds, send)
}

/// Run `send` under `load` for `seconds`.
fn drive(load: Load, seed: u64, seconds: f64, send: impl Fn(usize) -> bool + Sync) -> PhaseResult {
    match load {
        Load::Open { rate, threads } => {
            let due = loadgen::poisson_schedule(seed, rate, seconds);
            loadgen::open_loop(&due, threads, send)
        }
        Load::Closed { clients } => loadgen::closed_loop(clients, seconds, send),
    }
}

/// Compare probe answers with what the in-process model says.
pub fn check_probes(
    expected: &[ResourcePrediction],
    got: &[Option<ResourcePrediction>],
) -> Result<(), String> {
    for (i, (want, have)) in expected.iter().zip(got).enumerate() {
        match have {
            Some(have) if have == want => {}
            Some(have) => {
                return Err(format!(
                    "probe {i}: served {have:?}, in-process model says {want:?}"
                ))
            }
            None => return Err(format!("probe {i}: no single-prediction reply")),
        }
    }
    Ok(())
}

/// Send [`PROBES`] scripts one at a time through `ask` and require exactly
/// what `reference` predicts in process.
pub fn probe(
    reference: &mut Prionn,
    scripts: &[String],
    ask: impl Fn(usize) -> Option<ResourcePrediction>,
) -> Result<(), String> {
    let stride = (scripts.len() / PROBES).max(1);
    let picks: Vec<usize> = (0..PROBES).map(|p| (p * stride) % scripts.len()).collect();
    let expected: Vec<ResourcePrediction> = picks
        .iter()
        .map(|&k| {
            reference
                .predict(&[scripts[k].as_str()])
                .expect("reference predict")[0]
        })
        .collect();
    let got: Vec<Option<ResourcePrediction>> = picks.iter().map(|&k| ask(k)).collect();
    check_probes(&expected, &got)
}

fn router_probe(s: &mut Serving) -> Result<(), String> {
    let Serving {
        fleet,
        reference,
        scripts,
        users,
        ..
    } = s;
    probe(reference, scripts, |k| {
        let reply = fleet
            .router
            .predict(users[k], std::slice::from_ref(&scripts[k]))
            .ok()?;
        (reply.predictions.len() == 1).then(|| reply.predictions[0])
    })
}

pub fn run(args: &Args, plan: &Plan) -> Outcome {
    let (mut s, setup_s) = repeat_setup(
        args,
        || setup(args.seed, &plan.model),
        |s| s.fleet.shutdown(),
    );
    let mut out = Outcome::default();
    match plan.load {
        Load::Open { rate, threads } => {
            out.note("loop", "open");
            out.note("rate_per_s", rate);
            out.note("generator_threads", threads);
        }
        Load::Closed { clients } => {
            out.note("loop", "closed");
            out.note("clients", clients);
        }
    }
    if args.trace {
        trace(args, plan, &mut s, &mut out);
    } else {
        out.set("setup_s", setup_s);
        let answers = Answers::new(s.scripts.len());
        let cpu0 = crate::hostquiet::cpu_seconds();
        let phase = offer(&s, plan.load, args.seed, args.seconds, &answers);
        let cpu = crate::hostquiet::cpu_seconds() - cpu0;
        out.set("cpu_ms_per_op", cpu * 1e3 / phase.ok().max(1) as f64);
        out.attempted = phase.sent() as u64;
        out.failed = phase.failed() as u64;
        set_throughput(&mut out, &phase, plan.load, args.seconds);
        set_latencies(&mut out, &phase.latencies(), args.seconds);
        let (accuracy, scored) = answers.accuracy(&s.pool);
        out.note("accuracy_mean", accuracy);
        out.note("accuracy_jobs", scored);
        println!("# accuracy_mean {accuracy:.6} over {scored} jobs");
        note_phase(&mut out, "timed", &phase);
        flag_late(&mut out, &phase);
        if let Err(e) = router_probe(&mut s) {
            out.errors.push(e);
        }
    }
    s.fleet.shutdown();
    out
}

/// Width of the windows a closed loop's rate is counted in, seconds. Short,
/// because on the reference host stalls of 4–16 ms land every few tenths of
/// a second: over sixteen runs the best 1-second window spread 37 %, the
/// best 0.1-second window 9 %.
const CLOSED_RATE_WINDOW_S: f64 = 0.1;

/// Requests answered per second. An open loop completes what was offered,
/// so its rate over the whole phase is the number; a closed loop runs as
/// fast as the system lets it, so it is cut into windows like the latencies.
fn set_throughput(out: &mut Outcome, phase: &PhaseResult, load: Load, span_s: f64) {
    let value = match load {
        Load::Open { .. } => phase.ok() as f64 / phase.wall_s,
        Load::Closed { .. } => {
            let answered = phase.latencies();
            let n = ((span_s / CLOSED_RATE_WINDOW_S).round() as usize).max(1);
            let per_window: Vec<f64> = stats::windows(&answered, span_s, n)
                .iter()
                .map(|w| w.len() as f64 / (span_s / n as f64))
                .collect();
            let best = stats::best(&per_window, stats::Better::Higher);
            out.note("windows_throughput_per_s", per_window);
            best
        }
    };
    out.set("throughput_per_s", value);
}

pub fn note_phase(out: &mut Outcome, name: &str, phase: &PhaseResult) {
    out.note(
        &format!("phase_{name}"),
        serde_json::json!({
            "sent": phase.sent(),
            "ok": phase.ok(),
            "failed": phase.failed(),
            "wall_s": phase.wall_s,
            "late_p99_ms": phase.late_p99_ms(),
        }),
    );
}

/// An open loop whose generator ran later than the median latency measured
/// the generator, not the system.
pub fn flag_late(out: &mut Outcome, phase: &PhaseResult) {
    let p50 = out
        .metrics
        .get("latency_p50_ms")
        .copied()
        .unwrap_or(f64::INFINITY);
    if phase.late_p99_ms() > p50 {
        out.note("flag_generator_late", true);
        println!(
            "# FLAG: generator lateness p99 {:.3} ms exceeds latency p50 {:.3} ms",
            phase.late_p99_ms(),
            p50
        );
    }
}

/// Fill the `loadgen.*` metrics from a loaded phase.
pub fn set_loadgen(out: &mut Outcome, phase: &PhaseResult) {
    out.set("loadgen.sent", phase.sent() as f64);
    out.set("loadgen.ok", phase.ok() as f64);
    out.set("loadgen.failed", phase.failed() as f64);
    out.set("loadgen.offered_per_s", phase.sent() as f64 / phase.wall_s);
    out.set("loadgen.late_p99_ms", phase.late_p99_ms());
}

/// The boundaries one request is sent through in turn.
struct Boundaries<'a> {
    s: &'a mut Serving,
    local: &'a Gateway,
    kernels: KernelReplay,
}

impl Boundaries<'_> {
    /// Request `k` through each boundary; microseconds spent in router,
    /// gateway, core, map, im2col and gemm.
    fn measure(&mut self, k: usize) -> [f64; 6] {
        let one = std::slice::from_ref(&self.s.scripts[k]);
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        black_box(
            self.s
                .fleet
                .router
                .predict(self.s.users[k], one)
                .expect("router predict"),
        );
        let router = us(t);
        let t = Instant::now();
        black_box(self.local.predict(one).expect("gateway predict"));
        let gateway = us(t);
        let script = [self.s.scripts[k].as_str()];
        let t = Instant::now();
        black_box(self.s.reference.predict(&script).expect("core predict"));
        let core = us(t);
        let t = Instant::now();
        black_box(self.s.reference.map_scripts(&script).expect("map"));
        let map = us(t);
        let cost = self.kernels.run(1);
        [
            router,
            gateway,
            core,
            map,
            cost.im2col_s * 1e6,
            cost.gemm_s * 1e6,
        ]
    }
}

fn trace(args: &Args, plan: &Plan, s: &mut Serving, out: &mut Outcome) {
    out.set("workload.trace_generate_s", s.gen_s);
    out.set("text.w2v_train_s", s.w2v_s);

    // A short loaded phase, spans off then on: validity of the loop, and
    // what recording a span per request costs the harness itself.
    let short = (args.seconds * 0.2).max(0.5);
    let answers = Answers::new(s.scripts.len());
    let plain = offer(s, plan.load, args.seed, short, &answers);
    let recorder = Mutex::new(Recorder::default());
    let traced = {
        let Serving {
            fleet,
            scripts,
            users,
            ..
        } = &*s;
        let send = |i: usize| {
            let k = i % scripts.len();
            let started = Instant::now();
            let ok = fleet
                .router
                .predict(users[k], std::slice::from_ref(&scripts[k]))
                .is_ok_and(|r| r.predictions.len() == 1);
            let dur = started.elapsed().as_secs_f64() * 1e6;
            recorder.lock().expect("span recorder poisoned").push(
                i as u32,
                None,
                "loadgen.request",
                0.0,
                dur,
            );
            ok
        };
        drive(plan.load, args.seed, short, send)
    };
    set_loadgen(out, &traced);
    set_tail_metrics(out, &plain.latencies(), short);
    out.set("answers.accuracy_mean", answers.accuracy(&s.pool).0);
    note_phase(out, "loaded_plain", &plain);
    note_phase(out, "loaded_traced", &traced);
    let p50 = |p: &PhaseResult| {
        stats::percentile(
            &stats::sorted(p.latencies().iter().map(|l| l.1).collect()),
            50.0,
        )
    };
    let overhead = (p50(&traced) / p50(&plain) - 1.0) * 100.0;
    out.set("loadgen.span_overhead_pct", overhead);
    println!(
        "# harness span overhead under load: p50 {:.4} ms plain, {:.4} ms with spans ({overhead:+.2} %)",
        p50(&plain),
        p50(&traced)
    );

    // The uncontended nested replay.
    let local = Gateway::spawn(
        Prionn::from_checkpoint(&s.checkpoint).expect("local model"),
        shard_gateway_config(),
    )
    .expect("spawn local gateway");
    let kernels = KernelReplay::new(&plan.model, 32);
    let mut rec = Recorder::default();
    let mut durs: Vec<[f64; 6]> = Vec::with_capacity(plan.replay_requests);
    {
        let mut b = Boundaries {
            s,
            local: &local,
            kernels,
        };
        for k in 0..8 {
            b.measure(k);
        }
        for r in 0..plan.replay_requests {
            let d = b.measure(r % b.s.scripts.len());
            let [router, gateway, core, map, im2col, gemm] = d;
            let req = r as u32;
            let root = rec.push(req, None, "fleet.router_predict", 0.0, router);
            let gw = rec.push(req, Some(root), "serve.gateway_predict", 0.0, gateway);
            let co = rec.push(req, Some(gw), "core.predict", 0.0, core);
            rec.push(req, Some(co), "text.map", 0.0, map);
            let nn = rec.push(req, Some(co), "nn.forward", map, (core - map).max(0.0));
            rec.push(req, Some(nn), "tensor.im2col", map, im2col);
            rec.push(req, Some(nn), "tensor.gemm", map + im2col, gemm);
            durs.push(d);
        }
    }
    let col = |i: usize| stats::median(&durs.iter().map(|d| d[i]).collect::<Vec<_>>());
    let (router, gateway, core, map) = (col(0), col(1), col(2), col(3));
    out.set("fleet.router.predict_ms_p50", router / 1e3);
    out.set(
        "fleet.router.self_ms_p50",
        (router - gateway).max(0.0) / 1e3,
    );
    out.set("serve.gateway.predict_ms_p50", gateway / 1e3);
    out.set("serve.gateway.self_ms_p50", (gateway - core).max(0.0) / 1e3);
    out.set("core.predict.ms_b1", core / 1e3);
    out.set("text.map.us_per_script_b1", map);
    out.set("nn.forward.ms_b1", (core - map).max(0.0) / 1e3);
    out.set("tensor.im2col.us_per_script", col(4));

    println!("# uncontended request, median self time per layer:");
    let table = rec.layer_table();
    for row in &table {
        println!(
            "#   {:<24} total {:>9.1} us  self {:>9.1} us  {:>5.1} %",
            row.name,
            row.total_us,
            row.self_us,
            row.share * 100.0
        );
    }
    let share = |names: &[&str]| {
        table
            .iter()
            .filter(|r| names.contains(&r.name))
            .map(|r| r.share)
            .sum::<f64>()
    };
    let compute = share(&["text.map", "nn.forward", "tensor.im2col", "tensor.gemm"]);
    out.set("trace.compute_share", compute);
    out.set("trace.within_10pct_share", rec.within_10pct_share());
    println!(
        "#   compute (text + nn + tensor) share {:.1} %; self times sum to within 10 % of the outermost span in {:.1} % of requests",
        compute * 100.0,
        rec.within_10pct_share() * 100.0
    );
    out.spans = Some(rec.to_json());

    // Layer probes on this workload's model and scripts.
    let refs: Vec<&str> = s.scripts.iter().map(String::as_str).collect();
    out.set(
        "text.map.us_per_script_b32",
        layers::map_seconds(&s.reference, &refs, 32, 9) * 1e6 / 32.0,
    );
    let b4 = layers::predict_seconds(&mut s.reference, &refs, 4, 15);
    let b32 = layers::predict_seconds(&mut s.reference, &refs, 32, 7);
    let map4 = layers::map_seconds(&s.reference, &refs, 4, 15);
    let map32 = layers::map_seconds(&s.reference, &refs, 32, 7);
    out.set("core.predict.ms_b4", b4 * 1e3);
    out.set("core.predict.ms_b32", b32 * 1e3);
    out.set("nn.forward.ms_b4", (b4 - map4).max(0.0) * 1e3);
    out.set("nn.forward.ms_b32", (b32 - map32).max(0.0) * 1e3);
    let mut kernels = KernelReplay::new(&plan.model, 32);
    let k1 = kernels.median_cost(1, 15);
    let k32 = kernels.median_cost(32, 5);
    out.set("tensor.gemm.gflops_b1", k1.flops / k1.gemm_s / 1e9);
    out.set("tensor.gemm.gflops_b32", k32.flops / k32.gemm_s / 1e9);
    out.set("tensor.gemm.pack_share_b32", k32.pack_s / k32.gemm_s);
    out.set("tensor.gemm.flops_per_script", k1.flops);
    out.set("tensor.gemm.bytes_per_script", k1.gemm_bytes);
    out.set("tensor.im2col.bytes_per_script", k1.im2col_bytes);
    out.set(
        "nn.forward.gflops_b1",
        k1.flops / ((core - map).max(1.0) * 1e-6) / 1e9,
    );
    out.set(
        "nn.train_step.ms_b32",
        layers::train_step_seconds(&s.reference, &refs, 5) * 1e3,
    );

    // Wire and routing.
    let reply = s.reference.predict(&refs[..1]).expect("reference predict")[0];
    let (frame_s, codec_s, req_bytes, reply_bytes) = layers::wire_costs(refs[0], &reply, 2001);
    out.set("store.frame.roundtrip_us", frame_s * 1e6);
    out.set("fleet.proto.codec_us", codec_s * 1e6);
    out.set("fleet.proto.req_bytes", req_bytes as f64);
    out.set("fleet.proto.reply_bytes", reply_bytes as f64);
    let mut user = 0u64;
    let lookup_s = time_median(2001, || {
        user = user.wrapping_add(0x9E37_79B9_7F4A_7C15);
        black_box(s.fleet.router.route(user));
    });
    out.set("fleet.ring.lookup_ns", lookup_s * 1e9);

    // Two closed-loop callers straight into one in-process gateway.
    let scripts = &s.scripts;
    let closed = loadgen::closed_loop(2, short, |i| {
        local
            .predict(std::slice::from_ref(&scripts[i % scripts.len()]))
            .is_ok()
    });
    out.set(
        "serve.gateway.closed2_per_s",
        closed.ok() as f64 / closed.wall_s,
    );
    let render_s = time_median(21, || {
        black_box(local.telemetry().prometheus());
    });
    out.set("telemetry.render_ms", render_s * 1e3);
    local.shutdown();

    // What the shards themselves counted.
    let stats: Vec<_> = (0..SHARDS)
        .map(|i| s.fleet.router.shard_stats(i).expect("shard stats"))
        .collect();
    let served: Vec<f64> = stats.iter().map(|st| st.requests_served as f64).collect();
    let total: f64 = served.iter().sum();
    out.set("fleet.shard.served", total);
    out.set(
        "fleet.shard.shed",
        stats.iter().map(|st| st.requests_shed as f64).sum(),
    );
    out.set(
        "fleet.shard.failover_arrivals",
        stats.iter().map(|st| st.failover_arrivals as f64).sum(),
    );
    let max = served.iter().copied().fold(0.0, f64::max);
    out.set("fleet.shard.balance", max / (total / SHARDS as f64));
    if plan.price_repo_tracing {
        let pct = observed_overhead_pct(s, short);
        out.set("observe.tracing.overhead_pct", pct);
        println!("# repository tracing on router and shards: p50 {pct:+.2} %");
    }
    out.attempted = (plain.sent() + traced.sent() + plan.replay_requests) as u64;
    out.failed = (plain.failed() + traced.failed()) as u64;
}

/// `wire_closed` once more with a tracer and flight recorder on the router
/// and both shards: what the *repository's* tracing costs a request.
fn observed_overhead_pct(s: &Serving, seconds: f64) -> f64 {
    let Serving { scripts, users, .. } = s;
    let p50 = |fleet: &Fleet| {
        let phase = loadgen::closed_loop(2, seconds, |i| {
            let k = i % scripts.len();
            fleet
                .router
                .predict(users[k], std::slice::from_ref(&scripts[k]))
                .is_ok()
        });
        stats::percentile(
            &stats::sorted(phase.latencies().iter().map(|l| l.1).collect()),
            50.0,
        )
    };
    let observed = Fleet::boot(&s.checkpoint, SHARDS, true);
    for k in 0..WARMUP {
        let _ = observed
            .router
            .predict(users[k], std::slice::from_ref(&scripts[k]));
    }
    // Interleave so host drift hits both sides.
    let plain = [p50(&s.fleet), p50(&s.fleet)];
    let traced = [p50(&observed), p50(&observed)];
    observed.shutdown();
    (stats::median(&traced) / stats::median(&plain) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(minutes: f64) -> ResourcePrediction {
        ResourcePrediction {
            runtime_minutes: minutes,
            read_bytes: 1.0,
            write_bytes: 2.0,
        }
    }

    #[test]
    fn a_wrong_probe_answer_fails_the_run() {
        let expected = vec![pred(10.0), pred(20.0)];
        assert!(check_probes(&expected, &[Some(pred(10.0)), Some(pred(20.0))]).is_ok());
        let wrong = check_probes(&expected, &[Some(pred(10.0)), Some(pred(21.0))]);
        assert!(wrong.unwrap_err().starts_with("probe 1"));
        let missing = check_probes(&expected, &[None, Some(pred(20.0))]);
        assert!(missing.unwrap_err().starts_with("probe 0"));
        // A broken check makes the invocation exit non-zero.
        let mut out = Outcome::default();
        out.errors.push("probe 1: wrong".into());
        assert_eq!(crate::report::exit_code(&out), 1);
    }

    #[test]
    fn user_ids_are_stable() {
        assert_eq!(user_id("alice"), user_id("alice"));
        assert_ne!(user_id("alice"), user_id("bob"));
    }
}
