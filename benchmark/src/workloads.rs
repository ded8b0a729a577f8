//! The five workloads. Each is a closed loop with a stated client count:
//! every caller of this system — an application server asking for a
//! decision, an administrator submitting a change, an author running an
//! analysis — waits for its reply before asking again, and the load
//! generator shares the machine's cores with the server threads, so an
//! open-loop rate sweep would measure the generator. Client threads
//! never exceed two.
//!
//! Product code is reached through `PolicyService`, `Request` and
//! `Response` only; everything else goes through `probes`.

use std::time::{Duration, Instant};

use adminref_service::{PolicyService, Request, Response};

use crate::metrics::{Values, Workload};
use crate::probes::{self, Acked, Analysis, Inputs, RawConn, Reader, JOBS, STATES_JOB};
use crate::stats::{median, slice_median_rate, tail, Reservoir, SLICES};
use crate::trace::{Trace, Tracer};

type Res<T> = Result<T, String>;

/// How one workload run spends its time.
#[derive(Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    /// Full set-ups (and tear-downs) per run, at least; `setup_s` is
    /// their median.
    pub setup_repeats: usize,
    /// Per-layer pass: record spans and run the probes.
    pub trace: bool,
    /// Time each layer probe samples for.
    pub probe_budget: Duration,
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold (empty = correct).
    pub violations: Vec<String>,
    /// `ops_per_s`, `latency_p50_us`, `setup_s`, and — in a traced run —
    /// the workload's per-layer metrics.
    pub values: Values,
    pub trace: Trace,
    /// The blocking-path reconciliation of a traced run, ready to print.
    pub notes: Vec<String>,
}

pub fn run(workload: Workload, plan: Plan) -> Res<Outcome> {
    match workload {
        Workload::WireRead => wire_read(plan),
        Workload::ReplicaRead => replica_read(plan),
        Workload::WireWrite => wire_write(plan),
        Workload::AdmissionTrickle => admission_trickle(plan),
        Workload::AnalysisSuite => analysis_suite(plan),
    }
}

// ----- shared machinery ---------------------------------------------------

/// The measured window, shared by a workload's client threads.
#[derive(Clone, Copy)]
struct Clock {
    origin: Instant,
    start: Instant,
    end: Instant,
    slice: Duration,
}

impl Clock {
    fn starting_now(plan: &Plan) -> Clock {
        let origin = Instant::now();
        let start = origin + plan.warmup;
        Clock {
            origin,
            start,
            end: start + plan.window,
            slice: plan.window / SLICES as u32,
        }
    }

    /// The slice an operation that completed at `at` counts in; `None`
    /// during warm-up and after the window.
    fn slice_of(&self, at: Instant) -> Option<usize> {
        if at < self.start || at >= self.end {
            return None;
        }
        let index = (at - self.start).as_nanos() / self.slice.as_nanos();
        Some((index as usize).min(SLICES - 1))
    }
}

/// One client thread's counts.
struct Tally {
    attempted: u64,
    failed: u64,
    /// Operations completed per slice of the window.
    slices: [u64; SLICES],
    /// Latencies of the workload's designated operation, in the window.
    latency_us: Reservoir,
    /// Submits acknowledged, from the first (warm-up included). A writer
    /// cycles its batches in order, so the count is the whole history the
    /// oracle replays.
    acked: u64,
}

impl Tally {
    fn new(thread: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            slices: [0; SLICES],
            latency_us: Reservoir::new(thread as u64 + 1),
            acked: 0,
        }
    }

    /// Counts `n` operations, `failed` of them wrong, completed at `at`.
    fn count(&mut self, clock: &Clock, at: Instant, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
        if let Some(slice) = clock.slice_of(at) {
            self.slices[slice] += n;
        }
    }

    fn latency(&mut self, clock: &Clock, from: Instant, to: Instant) {
        if clock.slice_of(to).is_some() {
            self.latency_us.push((to - from).as_nanos() as f64 / 1e3);
        }
    }
}

/// Runs `setup` (timing it) at least `plan.setup_repeats` times — and,
/// when more than one, on for [`SETUP_BUDGET`] or four times as many,
/// since a set-up of a few milliseconds needs more repeats for a steady
/// median. Every instance but the last is torn down again: dropped on
/// the spot when `teardown` is `None`, else handed to `teardown` on a
/// thread of its own — a daemon or a follower takes up to a poll interval
/// to notice it should stop, and waiting that out between set-ups would
/// buy a handful of repeats where the time allows twenty. Returns the
/// last instance and the median.
fn repeated_setup<R: Send>(
    plan: &Plan,
    mut setup: impl FnMut() -> Res<R>,
    teardown: Option<&(dyn Fn(R) -> Res<()> + Sync)>,
) -> Res<(R, f64)> {
    let begun = Instant::now();
    let mut seconds = Vec::new();
    std::thread::scope(|scope| {
        let mut teardowns: Vec<std::thread::ScopedJoinHandle<'_, Res<()>>> = Vec::new();
        loop {
            let start = Instant::now();
            let rig = setup()?;
            seconds.push(start.elapsed().as_secs_f64());
            let enough = seconds.len() >= plan.setup_repeats
                && (plan.setup_repeats <= 1
                    || begun.elapsed() >= SETUP_BUDGET
                    || seconds.len() >= 4 * plan.setup_repeats);
            if enough {
                for handle in teardowns {
                    handle.join().map_err(|_| "a tear-down panicked")??;
                }
                return Ok((rig, median(&mut seconds)));
            }
            match teardown {
                Some(teardown) => {
                    // Few instances alive at once, so that peak memory is
                    // the workload's and not the set-up loop's.
                    if teardowns.len() >= MAX_TEARDOWNS {
                        let oldest = teardowns.remove(0);
                        oldest.join().map_err(|_| "a tear-down panicked")??;
                    }
                    teardowns.push(scope.spawn(move || teardown(rig)));
                }
                None => drop(rig),
            }
        }
    })
}

const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Tear-downs in flight at once during the set-up repeats.
const MAX_TEARDOWNS: usize = 2;

/// Runs `work(i, item)` for every item at once, each on a client thread
/// of its own, and returns the results in item order.
fn on_threads<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    work: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| scope.spawn(move || work(i, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// One check through `service`; `true` iff it answered `expected`.
fn check(service: &dyn PolicyService, request: &Request, expected: bool) -> bool {
    matches!(service.call(request.clone()), Ok(Response::Access(granted)) if granted == expected)
}

/// A block of alternating granted/denied checks; returns how many
/// answered wrong.
const CHECK_BLOCK: u64 = 256;

fn check_block(service: &dyn PolicyService, reader: &Reader) -> u64 {
    let mut wrong = 0;
    for _ in 0..CHECK_BLOCK / 2 {
        wrong += u64::from(!check(service, &reader.hit, true));
        wrong += u64::from(!check(service, &reader.miss, false));
    }
    wrong
}

/// Notes `message()` as a correctness violation unless `holds`.
fn require(violations: &mut Vec<String>, holds: bool, message: impl FnOnce() -> String) {
    if !holds {
        violations.push(message());
    }
}

fn set_monitor_counters(values: &mut Values, (incremental_share, deactivations): (f64, f64)) {
    values.set("monitor.incremental_share", incremental_share);
    values.set("monitor.forced_deactivations", deactivations);
}

/// Records a tail percentile (0 when too few samples support it) and the
/// sample count it rests on. Round trips over a socket come by the
/// hundred thousand and carry a p99; publishes and replica catch-ups come
/// by the hundred and carry a p90.
fn set_tail(
    values: &mut Values,
    (tail_name, percent): (&'static str, usize),
    samples_name: &'static str,
    us: &mut [f64],
) {
    values.set(tail_name, tail(us, percent).unwrap_or(0.0));
    values.set(samples_name, us.len() as f64);
}

fn path_table(title: &str, whole: (&str, f64), parts: &[(&str, f64)], rest: &str) -> Vec<String> {
    let explained: f64 = parts.iter().map(|(_, v)| v).sum();
    let mut lines = vec![format!("blocking path of {title}")];
    for (name, us) in parts {
        lines.push(format!("  {name:<44} {us:>10.2} us"));
    }
    lines.push(format!(
        "  {rest:<44} {:>10.2} us  (unexplained remainder)",
        whole.1 - explained
    ));
    lines.push(format!("  {:<44} {:>10.2} us", whole.0, whole.1));
    if explained > whole.1 {
        lines.push("  WARNING: the parts sum to more than the whole".to_string());
    }
    lines
}

// ----- wire_read -----------------------------------------------------------

/// Connection 0 replaces every 4096th request with a 32-command `Submit`:
/// about thirty epoch swaps a second under the readers at this
/// container's 6 µs round trip.
const SUBMIT_EVERY: u64 = 4096;

struct WireReadRig {
    inputs: Inputs,
    served: probes::Served,
    clients: Vec<(Box<dyn PolicyService>, Reader)>,
}

fn wire_read_setup(seed: u64) -> Res<WireReadRig> {
    let inputs = Inputs::wire_read(seed);
    let served = probes::Served::start(&inputs, "wire_read", None)?;
    let mut clients = Vec::new();
    for i in 0..2 {
        let client = served.connect()?;
        let reader = probes::open_reader(&*client, &inputs, i)?;
        // The first warm-up operation ends set-up.
        if !check(&*client, &reader.hit, true) {
            return Err("the first check over the socket answered wrong".into());
        }
        clients.push((client, reader));
    }
    Ok(WireReadRig {
        inputs,
        served,
        clients,
    })
}

fn wire_read(plan: Plan) -> Res<Outcome> {
    let (rig, setup_s) = repeated_setup(
        &plan,
        || wire_read_setup(plan.seed),
        Some(&|rig: WireReadRig| {
            drop(rig.clients);
            rig.served.stop().map(drop)
        }),
    )?;
    let submits = rig.inputs.submits();
    let clock = Clock::starting_now(&plan);

    let results = on_threads(&rig.clients, |i, (client, reader)| {
        let mut tally = Tally::new(i);
        let mut tracer = Tracer::new(plan.trace, i as u16, clock.origin);
        let mut n = 0u64;
        loop {
            let start = Instant::now();
            if start >= clock.end {
                break;
            }
            n += 1;
            if i == 0 && n % SUBMIT_EVERY == 0 {
                let index = tally.acked as usize % submits.len();
                let request = &submits[index];
                let ok = client
                    .call(request.clone())
                    .is_ok_and(|r| probes::all_changed(&r, probes::command_count(request)));
                let end = Instant::now();
                tally.acked += 1;
                tally.count(&clock, end, 1, u64::from(!ok));
                tracer.record("client.submit", n, 0, start, end);
            } else {
                let (request, expected) = if n % 2 == 0 {
                    (&reader.hit, true)
                } else {
                    (&reader.miss, false)
                };
                let ok = check(&**client, request, expected);
                let end = Instant::now();
                tally.count(&clock, end, 1, u64::from(!ok));
                tally.latency(&clock, start, end);
                tracer.record("client.check", n, 0, start, end);
            }
        }
        (tally, tracer)
    });

    let mut out = Collected::new(results, setup_s);
    let mut latencies: Vec<f64> = out.take_latencies();
    out.set_ops_per_s(plan.window);
    let check_p50 = median(&mut latencies);
    out.values.set("latency_p50_us", check_p50);

    // Every acknowledged batch, replayed: the daemon must sit on the
    // oracle's epoch and checksum, over the wire and in process.
    let expected = probes::oracle(&rig.inputs, &[out.history(submits.len())], false)?;
    let remote = probes::version_of(&*rig.clients[0].0)?;
    let local = probes::version_of(rig.served.local())?;
    require(
        &mut out.violations,
        remote == expected && local == expected,
        || format!("daemon at {remote:?} / {local:?}, oracle at {expected:?}"),
    );

    if plan.trace {
        let values = &mut out.values;
        set_tail(
            values,
            ("client.check_p99_us", 99),
            "client.check_samples",
            &mut latencies,
        );
        probes::probe_wire_codec(&rig.inputs, values, plan.probe_budget)?;
        probes::probe_monitor_reads(&rig.inputs, values, plan.probe_budget, false);
        probes::probe_monitor_submit(&rig.inputs, values, plan.probe_budget);
        probes::probe_core_steps(&rig.inputs, values, plan.probe_budget);
        values.set(
            "daemon.noop_rtt_us",
            probes::probe_noop_rtt(&*rig.clients[0].0, plan.probe_budget),
        );
        set_monitor_counters(values, rig.served.monitor_counters());
        let us = |name: &str| values.get(name).unwrap_or(0.0) / 1e3;
        let parts = [
            (
                "wire.encode_request_check_ns",
                us("wire.encode_request_check_ns"),
            ),
            (
                "wire.decode_request_check_ns",
                us("wire.decode_request_check_ns"),
            ),
            (
                "monitor.check_{hit,miss}_ns (mean)",
                (us("monitor.check_hit_ns") + us("monitor.check_miss_ns")) / 2.0,
            ),
            (
                "wire.encode_response_check_ns",
                us("wire.encode_response_check_ns"),
            ),
            (
                "wire.decode_response_check_ns",
                us("wire.decode_response_check_ns"),
            ),
        ];
        let whole = out.trace.median_us("client.check");
        let explained: f64 = parts.iter().map(|(_, v)| v).sum();
        out.notes = path_table(
            "wire_read (one CheckAccess round trip)",
            ("client.check span, median", whole),
            &parts,
            "daemon.residual_us: socket, wake-ups, dispatch",
        );
        out.values.set("daemon.residual_us", whole - explained);
    }

    drop(rig.clients);
    rig.served.stop()?;
    Ok(out.finish())
}

// ----- replica_read --------------------------------------------------------

/// Reader 0 submits one batch to the primary per this many checks.
const SUBMIT_EVERY_CHECKS: u64 = 32_768;

struct ReplicaReadRig {
    inputs: Inputs,
    system: probes::Replicated,
    readers: Vec<Reader>,
}

fn replica_read_setup(seed: u64) -> Res<ReplicaReadRig> {
    let inputs = Inputs::replica_read(seed);
    let system = probes::Replicated::start(&inputs)?;
    let mut readers = Vec::new();
    for i in 0..2 {
        let reader = probes::open_reader(system.replica(), &inputs, i)?;
        if !check(system.replica(), &reader.hit, true) {
            return Err("the first check on the replica answered wrong".into());
        }
        readers.push(reader);
    }
    Ok(ReplicaReadRig {
        inputs,
        system,
        readers,
    })
}

fn replica_read(plan: Plan) -> Res<Outcome> {
    let (rig, setup_s) = repeated_setup(
        &plan,
        || replica_read_setup(plan.seed),
        Some(&|rig: ReplicaReadRig| {
            rig.system.stop();
            Ok(())
        }),
    )?;
    let submits = rig.inputs.submits();
    let (primary, replica) = (rig.system.primary(), rig.system.replica());
    let clock = Clock::starting_now(&plan);

    let results = on_threads(&rig.readers, |i, reader| {
        let mut tally = Tally::new(i);
        let mut tracer = Tracer::new(plan.trace, i as u16, clock.origin);
        let mut checks = 0u64;
        loop {
            let start = Instant::now();
            if start >= clock.end {
                break;
            }
            let wrong = check_block(replica, reader);
            let end = Instant::now();
            checks += CHECK_BLOCK;
            tally.count(&clock, end, CHECK_BLOCK, wrong);
            // One check's latency, from the block's: a check is too short
            // to time alone.
            tally.latency(&clock, start, start + (end - start) / CHECK_BLOCK as u32);
            tracer.record("replica.check_block", checks, 0, start, end);
            if i != 0 || checks % SUBMIT_EVERY_CHECKS != 0 {
                continue;
            }
            // Submit on the primary, then wait (yielding) until
            // the replica serves the acknowledged epoch.
            let index = tally.acked as usize % submits.len();
            let request = &submits[index];
            let submitted = Instant::now();
            let ok = primary
                .call(request.clone())
                .is_ok_and(|r| probes::all_changed(&r, probes::command_count(request)));
            let acked = Instant::now();
            tally.acked += 1;
            let epoch = probes::version_of(primary).map_or(u64::MAX, |v| v.0);
            let mut caught_up = true;
            while probes::version_of(replica).map_or(0, |v| v.0) < epoch {
                if acked.elapsed() > Duration::from_secs(5) {
                    caught_up = false;
                    break;
                }
                std::thread::yield_now();
            }
            let visible = Instant::now();
            tally.count(&clock, visible, 1, u64::from(!(ok && caught_up)));
            let id = tally.acked;
            let name = if probes::is_revoke(request) {
                "replication.visible_revoke"
            } else {
                "replication.visible_grant"
            };
            let root = tracer.record(name, id, 0, submitted, visible);
            tracer.record("replication.ack", id, root, submitted, acked);
            tracer.record("replication.ack_to_visible", id, root, acked, visible);
        }
        (tally, tracer)
    });

    let mut out = Collected::new(results, setup_s);
    let mut check_us = out.take_latencies();
    out.set_ops_per_s(plan.window);
    out.values.set("latency_p50_us", median(&mut check_us));

    // Primary and replica must both sit on the oracle's epoch and checksum
    // (the last submit was waited for, so the replica has caught up).
    let expected = probes::oracle(&rig.inputs, &[out.history(submits.len())], false)?;
    let on_primary = probes::version_of(primary)?;
    let on_replica = probes::version_of(replica)?;
    require(
        &mut out.violations,
        on_primary == expected && on_replica == expected,
        || format!("primary at {on_primary:?}, replica at {on_replica:?}, oracle at {expected:?}"),
    );
    require(&mut out.violations, out.tallies[0].acked > 0, || {
        "no batch was submitted".to_string()
    });

    if plan.trace {
        let values = &mut out.values;
        // Submit → replica-visible, from the spans. Grant batches and
        // revoke batches form two clusters (a revoke makes the replica
        // revalidate its sessions under the write lock the two readers
        // keep taking for reading), so each gets its own median; the
        // overall median sits in the valley between them.
        let mut visible = out.trace.durations_us("replication.visible_");
        values.set("replication.visible_p50_us", median(&mut visible));
        for name in [
            "replication.visible_grant_p50_us",
            "replication.visible_revoke_p50_us",
        ] {
            let span = name.trim_end_matches("_p50_us");
            values.set(name, out.trace.median_us(span));
        }
        set_tail(
            values,
            ("replication.visible_p90_us", 90),
            "replication.visible_samples",
            &mut visible,
        );
        values.set("replication.ack_us", out.trace.median_us("replication.ack"));
        values.set(
            "replication.ack_to_visible_us",
            out.trace.median_us("replication.ack_to_visible"),
        );
        values.set("replication.bootstrap_ms", rig.system.bootstrap_ms);
        probes::probe_replication(&rig.inputs, values, plan.probe_budget)?;
        probes::probe_monitor_reads(&rig.inputs, values, plan.probe_budget, true);
        probes::probe_monitor_submit(&rig.inputs, values, plan.probe_budget);
        probes::probe_core_steps(&rig.inputs, values, plan.probe_budget);
        set_monitor_counters(values, rig.system.monitor_counters());
    }

    rig.system.stop();
    Ok(out.finish())
}

// ----- wire_write ----------------------------------------------------------

/// Single-command `Submit`s each connection keeps in flight.
const IN_FLIGHT: usize = 8;

struct WireWriteRig {
    inputs: Inputs,
    served: probes::Served,
    conns: Vec<RawConn>,
}

fn wire_write_setup(seed: u64) -> Res<WireWriteRig> {
    let inputs = Inputs::wire_write(seed);
    let served = probes::Served::start(&inputs, "wire_write", Some(Duration::from_micros(50)))?;
    let mut conns = Vec::new();
    for _ in 0..2 {
        let mut conn = served.connect_raw()?;
        // The first warm-up operation ends set-up: a no-op round trip.
        conn.send(0, &Request::Version)?;
        conn.flush()?;
        RawConn::decode(&conn.read_reply()?).1?;
        conns.push(conn);
    }
    Ok(WireWriteRig {
        inputs,
        served,
        conns,
    })
}

/// One connection's closed loop with a window of [`IN_FLIGHT`] requests:
/// slot `j` toggles stream `first_stream + j`, so each stream has one
/// request in flight at a time and its grant/revoke order is kept.
fn wire_write_client(
    conn: &mut RawConn,
    submits: &[Request],
    first_stream: usize,
    clock: &Clock,
    tracer: &mut Tracer,
) -> Res<(Tally, [usize; IN_FLIGHT])> {
    let mut tally = Tally::new(first_stream);
    // Per slot: how many of its stream's commands were sent, when the one
    // in flight was sent, and when its flush ended.
    let mut sent = [0usize; IN_FLIGHT];
    let mut sent_at = [clock.origin; IN_FLIGHT];
    let mut flushed_at = [clock.origin; IN_FLIGHT];
    let mut in_flight = 0usize;
    let batch_of = |slot: usize, nth: usize| 2 * (first_stream + slot) + nth % 2;

    let mut pending: Vec<usize> = (0..IN_FLIGHT).collect();
    loop {
        // Send the successor of every slot that just completed, one flush
        // for all of them — unless the window has closed.
        let now = Instant::now();
        if now < clock.end {
            for &slot in &pending {
                sent_at[slot] = Instant::now();
                let id = (sent[slot] * IN_FLIGHT + slot) as u64;
                conn.send(id, &submits[batch_of(slot, sent[slot])])?;
                sent[slot] += 1;
                in_flight += 1;
            }
            if !pending.is_empty() {
                conn.flush()?;
                let flushed = Instant::now();
                for &slot in &pending {
                    flushed_at[slot] = flushed;
                }
            }
        }
        pending.clear();
        if in_flight == 0 {
            // Everything sent was answered: `sent` is each stream's history.
            return Ok((tally, sent));
        }
        // Take one reply, and every further one already buffered.
        loop {
            let frame = conn.read_reply()?;
            let read = Instant::now();
            let (id, answer) = RawConn::decode(&frame);
            let decoded = Instant::now();
            let slot = id as usize % IN_FLIGHT;
            let ok = answer.is_ok_and(|r| probes::all_changed(&r, 1));
            in_flight -= 1;
            tally.acked += 1;
            tally.count(clock, decoded, 1, u64::from(!ok));
            tally.latency(clock, sent_at[slot], decoded);
            let root = tracer.record("client.submit", id, 0, sent_at[slot], decoded);
            tracer.record("client.send", id, root, sent_at[slot], flushed_at[slot]);
            tracer.record("client.wait", id, root, flushed_at[slot], read);
            tracer.record("client.decode", id, root, read, decoded);
            pending.push(slot);
            if !conn.has_buffered() {
                break;
            }
        }
    }
}

fn wire_write(plan: Plan) -> Res<Outcome> {
    let (mut rig, setup_s) = repeated_setup(
        &plan,
        || wire_write_setup(plan.seed),
        Some(&|rig: WireWriteRig| {
            drop(rig.conns);
            rig.served.stop().map(drop)
        }),
    )?;
    let submits = rig.inputs.submits();
    let clock = Clock::starting_now(&plan);

    let results = on_threads(&mut rig.conns, |i, conn| {
        let mut tracer = Tracer::new(plan.trace, i as u16, clock.origin);
        wire_write_client(conn, &submits, i * IN_FLIGHT, &clock, &mut tracer)
            .map(|(tally, sent)| ((tally, tracer), sent))
    })
    .into_iter()
    .collect::<Res<Vec<_>>>()?;
    let (results, sent): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    // Stream `s` cycled batches `2s` (grant) and `2s + 1` (revoke).
    let histories: Vec<Acked> = sent
        .iter()
        .flatten()
        .enumerate()
        .map(|(stream, &count)| Acked {
            first: 2 * stream,
            cycle: 2,
            count: count as u64,
        })
        .collect();

    let mut out = Collected::new(results, setup_s);
    let mut latencies = out.take_latencies();
    out.set_ops_per_s(plan.window);
    let submit_p50 = median(&mut latencies);
    out.values.set("latency_p50_us", submit_p50);

    // Pinned verdicts: no toggle stream can touch the reader's edges.
    let client = rig.served.connect()?;
    let reader = probes::open_reader(&*client, &rig.inputs, 0)?;
    let wrong = check_block(&*client, &reader);
    out.attempted += CHECK_BLOCK;
    out.failed += wrong;

    // The oracle's final policy does not depend on how the server grouped
    // the commands; its epoch count does, so only the checksum compares.
    let acked: u64 = out.tallies.iter().map(|t| t.acked).sum();
    let (_, expected) = probes::oracle(&rig.inputs, &histories, true)?;
    let (epochs, served_checksum) = probes::version_of(rig.served.local())?;
    require(&mut out.violations, served_checksum == expected, || {
        format!("daemon checksum {served_checksum:#x}, oracle {expected:#x}")
    });

    let noop_rtt = plan
        .trace
        .then(|| probes::probe_noop_rtt(&*client, plan.probe_budget));
    let counters = rig.served.monitor_counters();
    drop(client);
    drop(rig.conns);

    // Every acknowledged write must survive a reopen of the directory.
    let stopped = rig.served.stop()?;
    let reopened = stopped.reopen()?;
    require(
        &mut out.violations,
        reopened.divergent == 0 && reopened.checksum == expected,
        || {
            format!(
                "reopened store: {} divergent entries, checksum {:#x}, oracle {expected:#x}",
                reopened.divergent, reopened.checksum
            )
        },
    );

    if let Some(noop_rtt) = noop_rtt {
        let values = &mut out.values;
        set_tail(
            values,
            ("client.submit_p99_us", 99),
            "client.submit_samples",
            &mut latencies,
        );
        values.set("daemon.noop_rtt_us", noop_rtt);
        values.set("client.send_us", out.trace.median_us("client.send"));
        values.set("client.wait_us", out.trace.median_us("client.wait"));
        values.set("client.decode_us", out.trace.median_us("client.decode"));
        values.set(
            "group_commit.cmds_per_epoch",
            acked as f64 / epochs.max(1) as f64,
        );
        values.set("store.open_replay_ms", reopened.replay_ms);
        set_monitor_counters(values, counters);
        probes::probe_wire_codec(&rig.inputs, values, plan.probe_budget)?;
        probes::probe_monitor_reads(&rig.inputs, values, plan.probe_budget, false);
        probes::probe_monitor_submit(&rig.inputs, values, plan.probe_budget);
        probes::probe_core_steps(&rig.inputs, values, plan.probe_budget);
        probes::probe_store(&rig.inputs, values, plan.probe_budget)?;
        values.set(
            "group_commit.solo_overhead_us",
            probes::probe_group_commit_solo(&rig.inputs, plan.probe_budget)?,
        );
        let get = |name: &str| values.get(name).unwrap_or(0.0);
        let parts = [
            ("client.send_us (span)", get("client.send_us")),
            (
                "wire.decode_request_submit_ns",
                get("wire.decode_request_submit_ns") / 1e3,
            ),
            (
                "store.execute_batch8_us (append x8 + one sync)",
                get("store.execute_batch8_us"),
            ),
            (
                "monitor.submit_batch_us (in-memory publish)",
                get("monitor.submit_batch_us"),
            ),
            (
                "wire.encode_response_submit_ns",
                get("wire.encode_response_submit_ns") / 1e3,
            ),
            ("client.decode_us (span)", get("client.decode_us")),
            (
                "client.submit self time (outside its child spans)",
                out.trace.median_self_us("client.submit"),
            ),
        ];
        let whole = out.trace.median_us("client.submit");
        let explained: f64 = parts.iter().map(|(_, v)| v).sum();
        out.notes = path_table(
            "wire_write (one single-command Submit, send to ack)",
            ("client.submit span, median", whole),
            &parts,
            "daemon.residual_us: queue wait, gather, socket",
        );
        out.values.set("daemon.residual_us", whole - explained);
    }
    Ok(out.finish())
}

// ----- admission_trickle ---------------------------------------------------

fn admission_trickle(plan: Plan) -> Res<Outcome> {
    let ((inputs, gated, reader), setup_s) = repeated_setup(
        &plan,
        || {
            let inputs = Inputs::admission_trickle(plan.seed);
            let gated = probes::Gated::start(&inputs)?;
            let reader = probes::open_reader(gated.service(), &inputs, 0)?;
            if !check(gated.service(), &reader.hit, true) {
                return Err("the first check answered wrong".into());
            }
            Ok((inputs, gated, reader))
        },
        None,
    )?;
    let submits = inputs.submits();
    let service = gated.service();
    let clock = Clock::starting_now(&plan);

    let results: Vec<(Tally, Tracer)> = std::thread::scope(|scope| {
        let writing = scope.spawn(|| {
            let mut tally = Tally::new(0);
            let mut tracer = Tracer::new(plan.trace, 0, clock.origin);
            loop {
                let start = Instant::now();
                if start >= clock.end {
                    break;
                }
                let index = tally.acked as usize % submits.len();
                let ok = service
                    .call(submits[index].clone())
                    .is_ok_and(|r| probes::all_changed(&r, 1));
                let end = Instant::now();
                tally.acked += 1;
                tally.count(&clock, end, 1, u64::from(!ok));
                tally.latency(&clock, start, end);
                tracer.record("service.submit", tally.acked, 0, start, end);
            }
            (tally, tracer)
        });
        let reading = scope.spawn(|| {
            let mut tally = Tally::new(1);
            let mut tracer = Tracer::new(plan.trace, 1, clock.origin);
            let mut checks = 0u64;
            loop {
                let start = Instant::now();
                if start >= clock.end {
                    break;
                }
                let wrong = check_block(service, &reader);
                let end = Instant::now();
                checks += CHECK_BLOCK;
                tally.count(&clock, end, CHECK_BLOCK, wrong);
                tracer.record("monitor.check_block", checks, 0, start, end);
            }
            (tally, tracer)
        });
        vec![
            writing.join().expect("writer thread"),
            reading.join().expect("reader thread"),
        ]
    });

    let mut out = Collected::new(results, setup_s);
    let mut publishes = out.take_latencies();
    out.set_ops_per_s(plan.window);
    let publish_p50 = median(&mut publishes);
    out.values.set("latency_p50_us", publish_p50);

    // One writer, so the oracle's epoch count compares too; and the gate
    // must have checked every batch and refused none.
    let acked = out.tallies[0].acked;
    let expected = probes::oracle(&inputs, &[out.history(submits.len())], false)?;
    let live = probes::version_of(service)?;
    require(&mut out.violations, live == expected, || {
        format!("monitor at {live:?}, oracle at {expected:?}")
    });
    let (checked, refused) = gated.admission_counts();
    require(
        &mut out.violations,
        refused == 0 && checked == acked,
        || {
            format!(
                "gate checked {checked} of {} batches and refused {refused}",
                acked
            )
        },
    );

    if plan.trace {
        let values = &mut out.values;
        set_tail(
            values,
            ("service.publish_p90_us", 90),
            "service.publish_samples",
            &mut publishes,
        );
        values.set(
            "service.publish_per_s",
            // The writer's own tally counts publishes and nothing else.
            slice_median_rate(&out.tallies[0].slices, plan.window),
        );
        probes::probe_monitor_reads(&inputs, values, plan.probe_budget, true);
        probes::probe_monitor_submit(&inputs, values, plan.probe_budget);
        probes::probe_core_steps(&inputs, values, plan.probe_budget);
        probes::probe_publish_path(&inputs, values, plan.probe_budget)?;
        probes::probe_admission(&inputs, values, plan.probe_budget);
        set_monitor_counters(values, gated.monitor_counters());
        let get = |name: &str| values.get(name).unwrap_or(0.0);
        let parts = [
            (
                "admission.evaluate_us (the gate, on the candidate)",
                get("admission.evaluate_us"),
            ),
            (
                "transition.step_ns (x2: simulated, then executed)",
                2.0 * get("transition.step_ns") / 1e3,
            ),
            ("snapshot.next_us", get("snapshot.next_us")),
        ];
        out.notes = path_table(
            "admission_trickle (one gated single-edge publish)",
            (
                "service.submit span, median",
                out.trace.median_us("service.submit"),
            ),
            &parts,
            "candidate clones, audit, epoch swap",
        );
    }
    Ok(out.finish())
}

// ----- analysis_suite ------------------------------------------------------

fn analysis_suite(plan: Plan) -> Res<Outcome> {
    let (mut analysis, setup_s) = repeated_setup(&plan, || Ok(Analysis::build(plan.seed)), None)?;
    let clock = Clock::starting_now(&plan);
    let mut tracer = Tracer::new(plan.trace, 0, clock.origin);
    let mut tally = Tally::new(0);
    // Per job: every measured run's nanoseconds, and the first outcome,
    // which every later pass must repeat exactly.
    let mut job_ns: Vec<Vec<f64>> = vec![Vec::new(); JOBS.len()];
    let mut pinned = Vec::new();
    let mut pass_us = Vec::new();
    let mut pass = 0u64;
    loop {
        let pass_start = Instant::now();
        // A pass counts when it starts after warm-up; the one in flight
        // when the window closes runs to its end, and at least one counts
        // however short the window.
        if pass_start >= clock.end && !pass_us.is_empty() {
            break;
        }
        let measured = pass_start >= clock.start;
        pass += 1;
        let mut spans = Vec::new();
        for (index, job) in JOBS.iter().enumerate() {
            let start = Instant::now();
            let outcome = analysis.run(index);
            let end = Instant::now();
            if pinned.len() == index {
                pinned.push(outcome);
            }
            tally.attempted += 1;
            tally.failed += u64::from(!outcome.verdict_ok || outcome != pinned[index]);
            if measured {
                job_ns[index].push((end - start).as_nanos() as f64);
            }
            spans.push(tracer.record(job.metric, pass, 0, start, end));
        }
        let pass_end = Instant::now();
        let root = tracer.record("analysis.pass", pass, 0, pass_start, pass_end);
        for span in spans {
            tracer.adopt(span, root);
        }
        if measured {
            pass_us.push((pass_end - pass_start).as_nanos() as f64 / 1e3);
        }
    }

    let mut out = Collected::new(vec![(tally, tracer)], setup_s);
    // Jobs per second at the median pass: a pass is too coarse a unit
    // for per-slice counting, and a mean over the window would carry every
    // burst of interference the median shrugs off.
    let pass_p50 = median(&mut pass_us);
    out.values
        .set("ops_per_s", JOBS.len() as f64 / (pass_p50 / 1e6));
    out.values.set("latency_p50_us", pass_p50);
    if plan.trace {
        for (job, ns) in JOBS.iter().zip(&mut job_ns) {
            out.values.set(job.metric, median(ns) / job.ns_per_unit);
        }
        out.values
            .set("search.states_expanded", pinned[STATES_JOB].count as f64);
    }
    Ok(out.finish())
}

// ----- outcome assembly ----------------------------------------------------

impl Collected {
    fn new(results: Vec<(Tally, Tracer)>, setup_s: f64) -> Collected {
        let mut trace = Trace::default();
        let mut tallies = Vec::new();
        for (tally, tracer) in results {
            trace.absorb(tracer);
            tallies.push(tally);
        }
        let mut values = Values::default();
        values.set("setup_s", setup_s);
        Collected {
            attempted: tallies.iter().map(|t| t.attempted).sum(),
            failed: tallies.iter().map(|t| t.failed).sum(),
            tallies,
            violations: Vec::new(),
            values,
            trace,
            notes: Vec::new(),
        }
    }
}

/// An [`Outcome`] still holding the per-thread tallies its checks read.
struct Collected {
    attempted: u64,
    failed: u64,
    tallies: Vec<Tally>,
    violations: Vec<String>,
    values: Values,
    trace: Trace,
    notes: Vec<String>,
}

impl Collected {
    /// `ops_per_s`: every thread's operations, per slice, median slice.
    fn set_ops_per_s(&mut self, window: Duration) {
        let mut total = [0u64; SLICES];
        for tally in &self.tallies {
            for (sum, n) in total.iter_mut().zip(&tally.slices) {
                *sum += n;
            }
        }
        self.values
            .set("ops_per_s", slice_median_rate(&total, window));
    }

    /// The history of a workload's one writer (thread 0), which cycles
    /// all `batches` in order.
    fn history(&self, batches: usize) -> Acked {
        Acked {
            first: 0,
            cycle: batches,
            count: self.tallies[0].acked,
        }
    }

    fn take_latencies(&mut self) -> Vec<f64> {
        self.tallies
            .iter_mut()
            .flat_map(|t| std::mem::replace(&mut t.latency_us, Reservoir::new(0)).into_samples())
            .collect()
    }

    fn finish(mut self) -> Outcome {
        if self.trace.len() > 0 {
            self.values.set("trace.spans", self.trace.len() as f64);
        }
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            violations: self.violations,
            values: self.values,
            trace: self.trace,
            notes: self.notes,
        }
    }
}
