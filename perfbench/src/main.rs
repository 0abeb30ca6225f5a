//! `sfs-perfbench`: the repository's end-to-end benchmark, with a
//! per-layer trace measured from outside the program.
//!
//! Usage:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!    --workload <seq_read|small_ops|mount_churn> --seed <n> --seconds <s> --trace <0|1>`
//!
//! **Load model.** Everything runs in this one process, on one thread,
//! through the real stack: `sfs_bench::kernel::SfsBench` (the simulated
//! kernel's page and name caches) → `sfs` client → simulated wire →
//! `sfs` server → NFS3 → VFS and simulated disk. The loop is closed:
//! one simulated client at a time issues one op and waits for its reply,
//! as an NFS system call does. There are no real sockets, so host time is
//! the reproduction's own CPU time, not network time. Every world
//! negotiates the suite `sfs_bench::scenario` offers (ChaCha20-Poly1305).
//! The workloads, their client counts and sizes are in [`workloads`].
//!
//! **Two clocks.** Host time (`std::time::Instant`) gives the end-to-end
//! metrics. The simulator's virtual clock gives the `virtual_*` metrics,
//! which repeat exactly for a seed; the traced run reports them, in
//! simulated units (`sim_us`, `1/sim_s`), beside the per-layer split.
//!
//! **`--trace 0`** sets the world up `SETUPS` times and reports the
//! upper quartile as `setup_s` (key generation and input files: work
//! moved into set-up shows there rather than as a gain), warms up, then
//! runs ops for `--seconds`. Throughput and the median latency are taken
//! per quarter-second slice and, like `setup_s`, summarised on the slow
//! side (see `untraced` for why). `op_p99_us` is over every op. `peak_rss_mib` is the
//! process's peak resident set through set-up and warm-up.
//!
//! **`--trace 1`** runs the same op stream, of a fixed length, on three
//! fresh worlds built alike: plain, with the packet interceptor of
//! [`trace`], and with a counter sink. Their rounds are interleaved so
//! host drift hits all three alike. It reports the per-layer split of
//! the intercepted world, the counts of the counted one, the tracing
//! overhead against the plain one, and the virtual-clock metrics, which
//! must match across all three exactly (a mismatch fails the run).
//!
//! **Which layer moves which end-to-end metric.**
//! - `proto.channel.*` moves `mib_per_s`/`ops_per_s` on `seq_read`; it
//!   is a small share on `mount_churn`.
//! - `crypto.rabin.*` and `bignum.modpow_768_us` move `ops_per_s` and
//!   `op_p50_us` on `mount_churn`, and `setup_s` everywhere (key
//!   generation); they stay near 0 in the timed phases of `seq_read` and
//!   `small_ops`.
//! - `core.{client,server}.host_us_per_op`, `alloc.allocs_per_op`,
//!   `core.bufpool.hit_ratio` and `nfs3.calls_per_op` move `ops_per_s`
//!   and `op_p50_us`/`op_p99_us` on `small_ops`.
//! - `sim.net.round_trips_per_op` and the attribute/access hit ratios
//!   move `virtual_op_p50_us`/`virtual_ops_per_s` on `small_ops`;
//!   `sim.disk.syncs_per_op` moves `virtual_op_p99_us` there.
//! - `core.client.readahead_hits_per_op` moves `virtual_mib_per_s` on
//!   `seq_read`.
//! - Retransmits, reconnects and sequence-window rejections are wasted
//!   work and must stay 0 on all three workloads. Reply-cache evictions
//!   are not: the server keeps the last 256 replies per connection, so a
//!   long-lived pipelined connection (`seq_read`) evicts one per call.
//! - `bench.harness.host_us_per_op` must stay a small share.

mod trace;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sfs_bench::alloc_count::CountingAlloc;
use sfs_bench::scenario::scenario_suite;

use sfs_telemetry::sync::Mutex;
use trace::{Clock, Probe, Tracer};
use workloads::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their upper quartile.
const SETUPS: usize = 7;
/// Length of the slices a timed run's host metrics are taken over.
const SLICE: Duration = Duration::from_millis(250);
/// Most failures printed in full.
const MAX_REPORTED: u64 = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {:?})",
            workloads::NAMES
        ));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: must be 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
    })
}

/// When a phase stops.
#[derive(Clone, Copy)]
enum Stop {
    After(Duration),
    Ops(u64),
}

/// Per-op samples a phase reserves room for up front, so its buffers
/// do not reallocate while timing.
const SAMPLES_RESERVED: usize = 1 << 21;

/// Host metrics of one slice of a timed run.
struct Slice {
    ops_per_s: f64,
    mib_per_s: f64,
    p50_ns: f64,
}

/// What one timed phase measured.
struct Phase {
    ops: u64,
    /// Host ns inside system calls, per op.
    host_ns: Vec<u32>,
    keep_virt: bool,
    /// Virtual ns, per op, when `keep_virt`.
    virt_ns: Vec<u32>,
    bytes: u64,
    failed: u64,
    sys_ns: u64,
    allocs: u64,
    wall: Duration,
    slices: Vec<Slice>,
}

type TracerRef<'a> = Option<&'a Mutex<Tracer>>;

impl Phase {
    /// An empty phase; `keep_virt` keeps every op's virtual time.
    fn new(keep_virt: bool) -> Phase {
        Phase {
            ops: 0,
            host_ns: Vec::with_capacity(SAMPLES_RESERVED),
            keep_virt,
            virt_ns: Vec::with_capacity(if keep_virt { SAMPLES_RESERVED } else { 0 }),
            bytes: 0,
            failed: 0,
            sys_ns: 0,
            allocs: 0,
            wall: Duration::ZERO,
            slices: Vec::new(),
        }
    }

    /// Runs ops of `w` until `stop`, adding them to this phase. Only a
    /// timed stop cuts slices.
    fn run(&mut self, w: &mut dyn Workload, stop: Stop, tracer: TracerRef) {
        let slice_len = match stop {
            Stop::After(_) => SLICE,
            Stop::Ops(_) => Duration::MAX,
        };
        let start = Instant::now();
        let (mut slice_start, mut slice_ops, mut slice_bytes) = (start, 0u64, 0u64);
        let mut done = 0;
        loop {
            let now = Instant::now();
            match stop {
                Stop::After(d) if now.duration_since(start) >= d => break,
                Stop::Ops(n) if done >= n => break,
                _ => {}
            }
            if now.duration_since(slice_start) >= slice_len {
                self.close_slice(slice_ops, slice_bytes, now.duration_since(slice_start));
                (slice_start, slice_ops, slice_bytes) = (now, 0, 0);
            }
            let v0 = w.world().clock.now();
            let mut clock = Clock::new(tracer);
            let moved = match w.op(&mut clock) {
                Ok(b) => b,
                Err(e) => {
                    self.failed += 1;
                    if self.failed <= MAX_REPORTED {
                        eprintln!("WRONG OUTPUT: {e}");
                    }
                    0
                }
            };
            if self.keep_virt {
                let dv = w.world().clock.now().since(v0).as_nanos();
                self.virt_ns.push(u32::try_from(dv).unwrap_or(u32::MAX));
            }
            done += 1;
            self.host_ns
                .push(u32::try_from(clock.sys_ns).unwrap_or(u32::MAX));
            self.sys_ns += clock.sys_ns;
            self.allocs += clock.allocs;
            self.bytes += moved;
            slice_ops += 1;
            slice_bytes += moved;
        }
        let wall = start.elapsed();
        self.ops += done;
        self.wall += wall;
        let tail = wall - slice_start.duration_since(start);
        if slice_len != Duration::MAX && slice_ops > 0 && tail >= slice_len / 2 {
            self.close_slice(slice_ops, slice_bytes, tail);
        }
    }

    fn per_op(&self, total: f64) -> f64 {
        total / self.ops as f64
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    fn close_slice(&mut self, ops: u64, bytes: u64, len: Duration) {
        let secs = len.as_secs_f64();
        self.slices.push(Slice {
            ops_per_s: ops as f64 / secs,
            mib_per_s: bytes as f64 / MIB / secs,
            p50_ns: exact_quantile(
                &mut self.host_ns[self.host_ns.len() - ops as usize..].to_vec(),
                0.5,
            ),
        });
    }
}

/// Nearest-rank quantile of `v` (sorted in place).
fn exact_quantile(v: &mut [u32], q: f64) -> f64 {
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    f64::from(v[rank - 1])
}

/// Quantile `q` of `v`, interpolated between order statistics.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let k = q * last as f64;
    let (i, f) = (k.floor() as usize, k.fract());
    v[i] + (v[(i + 1).min(last)] - v[i]) * f
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

const MIB: f64 = 1024.0 * 1024.0;

/// The metrics of one run, in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Outcome {
    attempted: u64,
    failed: u64,
    /// Violated self-checks; any makes the run incorrect.
    broken: Vec<String>,
    metrics: Metrics,
}

/// Runs the workload's warm-up ops; returns how many failed.
fn warm_up(w: &mut dyn Workload, tracer: TracerRef) -> u64 {
    let mut failed = 0;
    for _ in 0..w.warmup_ops() {
        if let Err(e) = w.op(&mut Clock::new(tracer)) {
            failed += 1;
            eprintln!("WRONG OUTPUT (warm-up): {e}");
        }
    }
    failed
}

fn untraced(args: &Args) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let t = Instant::now();
        w = workloads::setup(&args.workload, args.seed, None);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("workload name was validated");
    let warm_failed = warm_up(w.as_mut(), None);
    // Taken before the timed phase: the program's resident state grows
    // with the ops it serves (about 300 B per remount on `mount_churn`),
    // and a peak taken at the end would read a faster program as a
    // bigger one.
    let rss = peak_rss_mib();
    let mut p = Phase::new(false);
    p.run(
        w.as_mut(),
        Stop::After(Duration::from_secs(args.seconds)),
        None,
    );
    // The host shares its cores with other tenants. Bursts of their load
    // come and go within seconds and change this process's speed by up
    // to 2x (bignum code the most), so a run's mean speed depends on how
    // much of it the bursts covered. Set-up time, throughput and the
    // median are therefore summarised over set-ups or quarter-second
    // slices on the slow side: the speed of the host's loaded state,
    // which every run of a few tens of seconds spends some time in. The
    // 99th percentile is over every op, for enough samples above it; its
    // ops come from the loaded state anyway.
    let slow_side = |f: fn(&Slice) -> f64, q: f64| quantile(p.slices.iter().map(f).collect(), q);
    Outcome {
        attempted: p.ops + w.warmup_ops(),
        failed: p.failed + warm_failed,
        broken: Vec::new(),
        metrics: vec![
            ("setup_s", quantile(setup_s, 0.75), "s"),
            ("ops_per_s", slow_side(|s| s.ops_per_s, 0.1), "1/s"),
            ("op_p50_us", slow_side(|s| s.p50_ns, 0.9) / 1e3, "us"),
            (
                "op_p99_us",
                exact_quantile(&mut p.host_ns, 0.99) / 1e3,
                "us",
            ),
            ("mib_per_s", slow_side(|s| s.mib_per_s, 0.1), "MiB/s"),
            ("peak_rss_mib", rss, "MiB"),
        ],
    }
}

/// Ops each of the traced run's three worlds runs, per second of
/// `--seconds`: about a third of the op rate each workload reaches on a
/// 2-core x86-64 host, so the whole traced run takes about `--seconds`.
fn traced_ops_per_second(workload: &str) -> u64 {
    match workload {
        "seq_read" => 8192,
        "small_ops" => 12288,
        _ => 96,
    }
}

/// Rounds the traced run interleaves its worlds in. The host's speed
/// drifts over seconds; interleaving keeps that drift out of the
/// comparisons between worlds and between a side of the wire and the
/// layer replayed against it.
const ROUNDS: u64 = 8;

/// Share by which a replayed layer may exceed its side of the wire
/// before the trace check flags it: on `mount_churn` the client side is
/// almost all Rabin, so the two agree to within timing noise.
const REPLAY_SLACK: f64 = 0.05;

/// One world of the traced run and what it measured.
struct Traced {
    w: Box<dyn Workload>,
    probe: Probe,
    phase: Phase,
    /// Virtual ns and wire RPCs after warm-up and after the last round.
    fingerprint: [(u64, u64); 2],
    /// Counters after warm-up.
    counts_before: BTreeMap<String, u64>,
}

impl Traced {
    fn new(args: &Args, probe: Probe) -> Traced {
        let mut w = workloads::setup(&args.workload, args.seed, Some(&probe)).expect("validated");
        let tracer = probe.tracer.as_deref();
        let mut phase = Phase::new(true);
        phase.failed += warm_up(w.as_mut(), tracer);
        if let Some(t) = tracer {
            *t.lock() = Tracer::default();
        }
        let fp = w.world().fingerprint();
        Traced {
            counts_before: probe.counters(),
            w,
            probe,
            phase,
            fingerprint: [fp, fp],
        }
    }

    fn round(&mut self, ops: u64) {
        let tracer = self.probe.tracer.as_deref();
        self.phase.run(self.w.as_mut(), Stop::Ops(ops), tracer);
        self.fingerprint[1] = self.w.world().fingerprint();
    }

    /// Counter deltas since warm-up.
    fn counts(&self) -> BTreeMap<String, u64> {
        let mut counts = self.probe.counters();
        for (k, v) in &mut counts {
            *v -= self.counts_before.get(k).copied().unwrap_or(0);
        }
        counts
    }
}

fn traced(args: &Args) -> Outcome {
    let n = traced_ops_per_second(&args.workload) * args.seconds;
    // The same op stream on three fresh worlds: plain (the baseline for
    // tracing overhead), with the interceptor (host-time split,
    // allocations), and with the counter sink (counts), so neither
    // probe's cost lands in the other's numbers.
    let mut plain = Traced::new(args, Probe::default());
    let mut split = Traced::new(args, Probe::with_tracer());
    let mut counted = Traced::new(args, Probe::with_counters());
    let tracer = split
        .probe
        .tracer
        .clone()
        .expect("split world has a tracer");
    let suite = scenario_suite();
    let (mut chan_client_ns, mut chan_server_ns) = (0.0, 0.0);
    let mut rabin: Option<trace::RabinBench> = None;
    let mut done = 0;
    for r in 0..ROUNDS {
        let ops = n * (r + 1) / ROUNDS - done;
        done += ops;
        plain.round(ops);
        counted.round(ops);
        split.round(ops);
        let frames = std::mem::take(&mut tracer.lock().frames);
        let chan = trace::replay_channel(&frames, suite);
        chan_client_ns += chan.client_ns;
        chan_server_ns += chan.server_ns;
        let keynegs = counted.counts().get("client/keyneg.completed").copied();
        if keynegs.unwrap_or(0) > 0 {
            let world = counted.w.world();
            rabin
                .get_or_insert_with(|| {
                    trace::RabinBench::new(
                        &world.server_key,
                        world.client_ephemerals(),
                        &world.user_key,
                    )
                })
                .sample();
        }
    }
    let tr = std::mem::take(&mut *tracer.lock());

    // Neither probe may move virtual time or the wire traffic.
    let mut broken = Vec::new();
    for (what, r) in [("interceptor", &split), ("counter sink", &counted)] {
        if r.fingerprint != plain.fingerprint || r.phase.virt_ns != plain.phase.virt_ns {
            broken.push(format!(
                "the {what} changed the simulated run: (virtual ns, rpcs) {:?}, plain {:?}",
                r.fingerprint, plain.fingerprint
            ));
        }
    }

    let ops = n as f64;
    let counts = counted.counts();
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let per_op = |name: &str| count(name) / ops;
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };

    let s = &split.phase;
    let client_us = s.per_op(tr.client_ns as f64) / 1e3;
    let server_us = s.per_op(tr.server_ns as f64) / 1e3;
    let sys_us = s.per_op(s.sys_ns as f64) / 1e3;
    let harness_us = s.per_op(s.wall.as_nanos() as f64) / 1e3 - sys_us;
    let keynegs = per_op("client/keyneg.completed");
    let (chan_client_us, chan_server_us) = (
        s.per_op(chan_client_ns) / 1e3,
        s.per_op(chan_server_ns) / 1e3,
    );
    let (rabin_client_us, rabin_server_us) = match &rabin {
        Some(r) => {
            let r = r.result();
            (r.client_ns / 1e3 * keynegs, r.server_ns / 1e3 * keynegs)
        }
        None => (0.0, 0.0),
    };
    let modpow_us = trace::modpow_768_ns(&counted.w.world().server_key) / 1e3;

    // Sanity of the split: the interceptor's intervals must tile the
    // time spent in system calls, and each replayed layer must fit in
    // the side of the wire it runs on. Replay and side are timed at
    // interleaved moments, so the fit allows `REPLAY_SLACK` of noise.
    let mut violations = Vec::new();
    if (client_us + server_us - sys_us).abs() > 0.01 * sys_us {
        violations.push(format!(
            "client {client_us:.3} + server {server_us:.3} us/op do not cover the {sys_us:.3} us/op in system calls"
        ));
    }
    for (layer, part, side, whole) in [
        ("proto.channel", chan_client_us, "client", client_us),
        ("proto.channel", chan_server_us, "server", server_us),
        ("crypto.rabin", rabin_client_us, "client", client_us),
        ("crypto.rabin", rabin_server_us, "server", server_us),
    ] {
        if part > whole * (1.0 + REPLAY_SLACK) {
            violations.push(format!(
                "{layer} replay {part:.3} us/op exceeds the {side} side's {whole:.3} us/op"
            ));
        }
    }
    for v in &violations {
        eprintln!("TRACE CHECK: {v}");
    }

    let failed = plain.phase.failed + split.phase.failed + counted.phase.failed;
    let a = &mut plain.phase;
    let vsecs = a.virt_ns.iter().map(|&v| f64::from(v)).sum::<f64>() / 1e9;
    let attempted = 3 * (n + plain.w.warmup_ops());
    let metrics = vec![
        ("core.client.host_us_per_op", client_us, "us"),
        ("core.server.host_us_per_op", server_us, "us"),
        ("bench.harness.host_us_per_op", harness_us, "us"),
        (
            "proto.channel.host_us_per_op",
            chan_client_us + chan_server_us,
            "us",
        ),
        (
            "crypto.rabin.host_us_per_op",
            rabin_client_us + rabin_server_us,
            "us",
        ),
        ("bignum.modpow_768_us", modpow_us, "us"),
        (
            "trace.overhead_frac",
            1.0 - s.ops_per_s() / a.ops_per_s(),
            "frac",
        ),
        ("trace.violations", violations.len() as f64, "count"),
        ("virtual_ops_per_s", ops / vsecs, "1/sim_s"),
        (
            "virtual_op_p50_us",
            exact_quantile(&mut a.virt_ns, 0.50) / 1e3,
            "sim_us",
        ),
        (
            "virtual_op_p99_us",
            exact_quantile(&mut a.virt_ns, 0.99) / 1e3,
            "sim_us",
        ),
        (
            "virtual_mib_per_s",
            a.bytes as f64 / MIB / vsecs,
            "MiB/sim_s",
        ),
        ("op_fail_frac", failed as f64 / attempted as f64, "frac"),
        (
            "sim.net.rpcs_per_op",
            per_op("wire/net.round_trips"),
            "count",
        ),
        (
            "sim.net.round_trips_per_op",
            tr.round_trips as f64 / ops,
            "count",
        ),
        ("sim.net.bytes_per_op", per_op("wire/net.bytes_sent"), "B"),
        ("sim.net.packets_per_op", tr.packets as f64 / ops, "count"),
        (
            "core.client.attr_hit_ratio",
            ratio(
                count("client/cache.attr_hits"),
                count("client/cache.attr_misses"),
            ),
            "ratio",
        ),
        (
            "core.client.access_hit_ratio",
            ratio(
                count("client/cache.access_hits"),
                count("client/cache.access_misses"),
            ),
            "ratio",
        ),
        (
            "core.client.readahead_hits_per_op",
            per_op("client/pipeline.readahead_hits"),
            "count",
        ),
        (
            "core.client.crypto_bytes_per_op",
            per_op("client/cpu.crypto_bytes"),
            "B",
        ),
        (
            "core.client.crossings_per_op",
            per_op("client/cpu.crossings"),
            "count",
        ),
        (
            "core.client.retransmits_per_op",
            per_op("client/retry.retransmits"),
            "count",
        ),
        (
            "core.client.reconnects_per_op",
            per_op("client/reconnect.attempts"),
            "count",
        ),
        (
            "core.bufpool.hit_ratio",
            ratio(
                count("client/bufpool.hits") + count("server/bufpool.hits"),
                count("client/bufpool.misses") + count("server/bufpool.misses"),
            ),
            "ratio",
        ),
        (
            "core.server.dispatch_calls_per_op",
            per_op("server/dispatch.calls"),
            "count",
        ),
        (
            "core.server.seqwin_rejected_per_op",
            per_op("server/seqwin.rejected"),
            "count",
        ),
        (
            "core.server.replycache_evictions_per_op",
            per_op("server/replycache.evictions"),
            "count",
        ),
        ("nfs3.calls_per_op", per_op("server/nfs3.calls"), "count"),
        (
            "sim.disk.syncs_per_op",
            per_op("server/disk.syncs"),
            "count",
        ),
        (
            "sim.disk.seeks_per_op",
            per_op("server/disk.seeks"),
            "count",
        ),
        (
            "sim.disk.bytes_written_per_op",
            per_op("server/disk.bytes_written"),
            "B",
        ),
        (
            "sim.disk.bytes_read_per_op",
            per_op("server/disk.bytes_read"),
            "B",
        ),
        ("proto.keyneg.completed_per_op", keynegs, "count"),
        ("alloc.allocs_per_op", s.per_op(s.allocs as f64), "count"),
    ];
    Outcome {
        attempted,
        failed,
        broken,
        metrics,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sfs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for b in &out.broken {
        eprintln!("SELF-CHECK FAILED: {b}");
    }
    let correct = out.failed == 0 && out.broken.is_empty();
    println!(
        "# {} seed={} seconds={} trace={} ops={} failed={}",
        args.workload, args.seed, args.seconds, args.trace as u8, out.attempted, out.failed
    );
    let mut metrics = BTreeMap::new();
    for (name, value, unit) in &out.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
        metrics.insert(
            *name,
            format!(r#"{{"value": {}, "unit": "{unit}"}}"#, json_number(*value)),
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!(r#""{k}": {v}"#))
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("sfs-perfbench: run produced wrong output (see above)");
        ExitCode::FAILURE
    }
}
