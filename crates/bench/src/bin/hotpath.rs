//! `hotpath`: the per-RPC data-path baseline.
//!
//! Measures the layers every sealed NFS3 RPC crosses — XDR encode,
//! secure-channel seal/open, and the full client↔server relay — and
//! reports three numbers per stage and payload size: wall-clock ns per
//! operation, throughput in MiB/s, and (the regression-proof one)
//! allocations per operation under a counting global allocator.
//!
//! Results land in `BENCH_hotpath.json` (see EXPERIMENTS.md for the
//! schema) so later PRs can diff against this baseline. `--smoke` runs a
//! few iterations with no timing claims and validates only the JSON
//! shape and the allocation invariants; CI runs that mode.
//!
//! Usage: `cargo run --release -p sfs-bench --bin hotpath [-- --smoke] [--out PATH]`

use std::sync::Arc;
use std::time::Instant;

use sfs::authserver::{AuthServer, UserRecord};
use sfs::client::{SfsClient, SfsNetwork};
use sfs::server::{ServerConfig, SfsServer};
use sfs_bench::alloc_count::{count_allocs, CountingAlloc};
use sfs_bench::args::Args;
use sfs_bench::microbench;
use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::generate_keypair;
use sfs_crypto::srp::SrpGroup;
use sfs_crypto::SfsPrg;
use sfs_nfs3::proto::{FileHandle, Nfs3Reply, Nfs3Request, StableHow};
use sfs_proto::channel::{SecureChannelEnd, SuiteId, FRAME_HEADER_LEN};
use sfs_proto::keyneg::SessionKeys;
use sfs_sim::{NetParams, SimClock, Transport};
use sfs_vfs::{Credentials, Vfs};
use sfs_xdr::XdrEncoder;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Payload sizes exercised at every stage (8 B … 8 KiB).
const PAYLOAD_SIZES: [usize; 5] = [8, 64, 512, 4096, 8192];

/// Iterations for allocation counting (exact, so few are enough).
const ALLOC_ITERS: u64 = 64;
const ALLOC_ITERS_SMOKE: u64 = 16;

/// Steady-state allocation ceilings validated in `--smoke` (and always).
/// The channel and encode stages must be allocation-free once buffers
/// are warm; the full relay crosses the VFS and NFS server so it keeps
/// a small budget. Measured after the direct-encode change (client
/// marshals `InnerCall::Nfs` straight into the pooled plaintext, the
/// server decrypts handles on the stack and borrows session
/// credentials): 7 allocs per GETATTR RPC and 9 per READ RPC (down
/// from 11/14, and from 36/39 before pooling). Raising these numbers
/// is a perf regression — justify it in the PR that does.
const MICRO_ALLOC_CEILING: f64 = 0.0;
const RELAY_GETATTR_ALLOC_CEILING: f64 = 8.0;
const RELAY_READ_ALLOC_CEILING: f64 = 12.0;

/// The negotiated AEAD fast path must beat the paper-baseline
/// ARC4+SHA-1 channel by at least this factor on the 8 KiB
/// seal+open round trip.
const CHACHA_MIN_SPEEDUP: f64 = 3.0;

/// The speedup gate times the two suites in this many alternating
/// batches of `GATE_BATCH_ITERS` round trips each and gates on the
/// median ratio, so a burst of host load lands on both sides of a ratio
/// instead of on one suite's whole sweep.
const GATE_BATCHES: usize = 9;
const GATE_BATCH_ITERS: u32 = 64;

struct Micro {
    name: &'static str,
    payload: usize,
    ns_per_op: u128,
    mib_per_s: f64,
    allocs_per_op: f64,
}

fn measure(name: &'static str, payload: usize, smoke: bool, mut f: impl FnMut()) -> Micro {
    for _ in 0..8 {
        f(); // warm buffers, caches, and freelists out of the measurement
    }
    let iters = if smoke {
        ALLOC_ITERS_SMOKE
    } else {
        ALLOC_ITERS
    };
    let (_, allocs) = count_allocs(|| {
        for _ in 0..iters {
            f();
        }
    });
    let allocs_per_op = allocs as f64 / iters as f64;
    let ns_per_op = if smoke {
        let t0 = Instant::now();
        for _ in 0..8 {
            f();
        }
        (t0.elapsed().as_nanos() / 8).max(1)
    } else {
        microbench::bench(&format!("{name}/{payload}B"), &mut f).max(1)
    };
    let mib_per_s = payload as f64 * 1e9 / ns_per_op as f64 / (1024.0 * 1024.0);
    println!("  {name:<24} {payload:>5} B   {ns_per_op:>9} ns/op   {mib_per_s:>9.1} MiB/s   {allocs_per_op:>7.2} allocs/op");
    Micro {
        name,
        payload,
        ns_per_op,
        mib_per_s,
        allocs_per_op,
    }
}

/// Seals `payload` into `buf` on `tx` and opens it on `rx`.
fn seal_open(
    tx: &mut SecureChannelEnd,
    rx: &mut SecureChannelEnd,
    buf: &mut Vec<u8>,
    payload: &[u8],
) {
    buf.clear();
    buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    buf.extend_from_slice(payload);
    tx.seal_into(buf, 0).expect("seal");
    let plain = rx.open_in_place(buf).expect("open");
    std::hint::black_box(plain.len());
}

/// Median, over alternating batches, of the arc4-sha1 time over the
/// chacha20-poly1305 time for the 8 KiB seal+open round trip. The batch
/// order alternates too, so neither suite always runs first.
fn suite_speedup() -> f64 {
    let payload = vec![0x44u8; 8192];
    let mut sides = [SuiteId::Arc4Sha1, SuiteId::ChaCha20Poly1305].map(|suite| {
        let (tx, rx) = channel_pair(suite);
        (tx, rx, Vec::new())
    });
    let mut batch_ns = |side: usize| {
        let (tx, rx, buf) = &mut sides[side];
        let t0 = Instant::now();
        for _ in 0..GATE_BATCH_ITERS {
            seal_open(tx, rx, buf, &payload);
        }
        t0.elapsed().as_nanos().max(1) as f64
    };
    batch_ns(0); // warm both sides out of the measurement
    batch_ns(1);
    let mut ratios: Vec<f64> = (0..GATE_BATCHES)
        .map(|i| {
            let (arc4, chacha) = if i % 2 == 0 {
                let arc4 = batch_ns(0);
                (arc4, batch_ns(1))
            } else {
                let chacha = batch_ns(1);
                (batch_ns(0), chacha)
            };
            arc4 / chacha
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

fn channel_pair(suite: SuiteId) -> (SecureChannelEnd, SecureChannelEnd) {
    let keys = SessionKeys {
        kcs: *b"hotpath-kcs-12345678",
        ksc: *b"hotpath-ksc-87654321",
        session_id: [7u8; 20],
    };
    (
        SecureChannelEnd::client_with_suite(&keys, suite),
        SecureChannelEnd::server_with_suite(&keys, suite),
    )
}

/// The full simulated SFS stack: server with one registered user, one
/// client with the user's key loaded, one 8 KiB file to read.
struct RelayWorld {
    client: Arc<SfsClient>,
    mount: Arc<sfs::client::Mount>,
    data_fh: FileHandle,
}

/// Builds the relay world with a client that offers only `suite`.
fn build_relay_world(suite: SuiteId) -> RelayWorld {
    const UID: u32 = 1000;
    let clock = SimClock::new();
    let vfs = Vfs::new(7, clock.clone());
    let bench_dir = vfs.mkdir_p("/bench").unwrap();
    vfs.setattr(
        &Credentials::root(),
        bench_dir,
        sfs_vfs::SetAttr {
            mode: Some(0o777),
            uid: Some(UID),
            gid: Some(100),
            ..Default::default()
        },
    )
    .unwrap();

    let mut rng = XorShiftSource::new(0x407);
    let srp_group = SrpGroup::generate(128, &mut rng);
    let auth = Arc::new(AuthServer::new(srp_group, 2));
    let user_key = generate_keypair(512, &mut rng);
    auth.register_user(UserRecord {
        user: "bench".into(),
        uid: UID,
        gids: vec![100],
        public_key: user_key.public().to_bytes(),
    });
    let server = SfsServer::new(
        ServerConfig::new("server.hotpath"),
        generate_keypair(768, &mut rng),
        vfs,
        auth,
        SfsPrg::from_entropy(b"hotpath-server"),
    );
    let net = SfsNetwork::new(clock, NetParams::switched_100mbit(Transport::Tcp));
    net.register(server.clone());
    let client = SfsClient::new(net, b"hotpath-client");
    client.set_suite_offer(&[suite]);
    client.agent(UID).lock().add_key(user_key);

    let path = server.path();
    let mount = client.mount(UID, path).expect("mount");
    let data = vec![0xABu8; *PAYLOAD_SIZES.last().unwrap()];
    client
        .write_file(UID, &format!("{}/bench/data", path.full_path()), &data)
        .expect("write data file");
    let (_, data_fh, _) = client
        .resolve(UID, &format!("{}/bench/data", path.full_path()))
        .expect("resolve data file");
    // Every measured RPC must cross the wire, not the attribute cache.
    client.set_caching(false);
    RelayWorld {
        client,
        mount,
        data_fh,
    }
}

fn json_escape_free(name: &str) -> &str {
    debug_assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    name
}

fn write_json(path: &str, mode: &str, micros: &[Micro]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"sfs-bench/hotpath/v1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"unit\": {\"ns_per_op\": \"nanoseconds\", \"mib_per_s\": \"MiB/s\", \"allocs_per_op\": \"heap allocations\"},\n");
    out.push_str("  \"benches\": [\n");
    for (i, m) in micros.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"payload_bytes\": {}, \"ns_per_op\": {}, \"mib_per_s\": {:.2}, \"allocs_per_op\": {:.3}}}{}\n",
            json_escape_free(m.name),
            m.payload,
            m.ns_per_op,
            m.mib_per_s,
            m.allocs_per_op,
            if i + 1 == micros.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write benchmark JSON");
    println!("wrote {path}");
}

fn main() {
    let args = Args::from_env();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let out_path = args
        .opt("out")
        .unwrap_or_else(|| "BENCH_hotpath.json".into());
    let mut micros: Vec<Micro> = Vec::new();

    println!("== hotpath: XDR encode ==");
    // One reused encoder; `reset` keeps the allocation.
    let fh = FileHandle(vec![0x42; 32]);
    for n in PAYLOAD_SIZES {
        let req = Nfs3Request::Write {
            fh: fh.clone(),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![0x5A; n],
        };
        let mut enc = XdrEncoder::new();
        micros.push(measure("encode_write", n, smoke, || {
            enc.reset();
            req.encode_args_into(&mut enc);
            std::hint::black_box(enc.bytes().len());
        }));
    }

    // Both negotiable suites sweep the same stages: `seal_into` /
    // `seal_open_roundtrip` keep their historical names for the
    // paper-baseline ARC4+SHA-1 channel so JSON diffs line up across
    // PRs; the chacha20-poly1305 fast path lands under a `chacha_`
    // prefix.
    for (prefix, suite) in [
        ("", SuiteId::Arc4Sha1),
        ("chacha_", SuiteId::ChaCha20Poly1305),
    ] {
        println!("== hotpath: secure channel ({}) ==", suite.label());
        let seal_name: &'static str = if prefix.is_empty() {
            "seal_into"
        } else {
            "chacha_seal_into"
        };
        let rt_name: &'static str = if prefix.is_empty() {
            "seal_open_roundtrip"
        } else {
            "chacha_seal_open_roundtrip"
        };
        for n in PAYLOAD_SIZES {
            let (mut tx, _) = channel_pair(suite);
            let payload = vec![0x33u8; n];
            let mut buf: Vec<u8> = Vec::new();
            micros.push(measure(seal_name, n, smoke, || {
                buf.clear();
                buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
                buf.extend_from_slice(&payload);
                tx.seal_into(&mut buf, 0).expect("seal");
                std::hint::black_box(buf.len());
            }));
        }
        for n in PAYLOAD_SIZES {
            let (mut tx, mut rx) = channel_pair(suite);
            let payload = vec![0x44u8; n];
            let mut buf: Vec<u8> = Vec::new();
            micros.push(measure(rt_name, n, smoke, || {
                seal_open(&mut tx, &mut rx, &mut buf, &payload);
            }));
        }
    }

    // The relay rows follow the same naming: historical names for the
    // paper baseline, a `chacha_` prefix for the default suite.
    for (getattr_name, read_name, suite) in [
        ("relay_getattr", "relay_read", SuiteId::Arc4Sha1),
        (
            "chacha_relay_getattr",
            "chacha_relay_read",
            SuiteId::ChaCha20Poly1305,
        ),
    ] {
        println!("== hotpath: sealed NFS3 relay ({}) ==", suite.label());
        let world = build_relay_world(suite);
        micros.push(measure(getattr_name, 8, smoke, || {
            let attr = world
                .client
                .getattr(&world.mount, 1000, &world.data_fh)
                .expect("getattr");
            std::hint::black_box(attr.size);
        }));
        for n in PAYLOAD_SIZES {
            micros.push(measure(read_name, n, smoke, || {
                let reply = world
                    .client
                    .call_nfs(
                        &world.mount,
                        1000,
                        &Nfs3Request::Read {
                            fh: world.data_fh.clone(),
                            offset: 0,
                            count: n as u32,
                        },
                    )
                    .expect("read");
                match reply {
                    Nfs3Reply::Read { data, .. } => assert_eq!(data.len(), n),
                    other => panic!("unexpected reply {other:?}"),
                }
            }));
        }
    }

    write_json(&out_path, if smoke { "smoke" } else { "full" }, &micros);

    // Allocation invariants: exact counts, so they hold in smoke mode too.
    let mut failures = Vec::new();
    for m in &micros {
        let ceiling = match m.name {
            "relay_getattr" | "chacha_relay_getattr" => RELAY_GETATTR_ALLOC_CEILING,
            // READ replies materialise the payload on both sides of the
            // relay, so reads carry a few more per-RPC allocations.
            "relay_read" | "chacha_relay_read" => RELAY_READ_ALLOC_CEILING,
            _ => MICRO_ALLOC_CEILING,
        };
        if m.allocs_per_op > ceiling {
            failures.push(format!(
                "{}/{}B: {:.2} allocs/op exceeds ceiling {:.2}",
                m.name, m.payload, m.allocs_per_op, ceiling
            ));
        }
    }
    if failures.is_empty() {
        println!("allocation invariants OK");
    } else {
        for f in &failures {
            eprintln!("allocation regression: {f}");
        }
        std::process::exit(1);
    }

    // Suite-sweep invariant: the chacha fast path must hold its speedup
    // over the paper baseline at the largest payload. The gap is wide
    // enough that even smoke mode clears the bar with margin; the ratio
    // comes from its own alternating batches (`suite_speedup`), not from
    // the sweep rows above, which run the suites seconds apart.
    let speedup = suite_speedup();
    println!(
        "chacha 8KiB seal+open speedup over arc4-sha1: {speedup:.1}x \
         (median of {GATE_BATCHES} alternating batches)"
    );
    if speedup < CHACHA_MIN_SPEEDUP {
        eprintln!(
            "suite regression: chacha20-poly1305 8 KiB roundtrip is only \
             {speedup:.2}x the arc4-sha1 baseline (floor {CHACHA_MIN_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
}
