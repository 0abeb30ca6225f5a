//! Pipelined-RPC property tests: a window of in-flight calls must
//! execute **exactly once each, in order**, no matter how the wire
//! reorders, duplicates, delays, or drops the frames.
//!
//! The oracle is a batch of `Mkdir` calls with distinct names issued
//! through [`SfsClient::call_nfs_window`]:
//!
//! * at-most-once: a retransmitted frame that re-executed (instead of
//!   being answered from the server's reply cache) would return
//!   `Status::Exist` for a directory the same batch already created —
//!   so an all-success batch proves nothing ran twice;
//! * at-least-once: re-issuing the identical batch afterwards must come
//!   back all-`Exist`, proving every call of the first batch really
//!   executed;
//! * in-order: the server's sequencer admits frames strictly by channel
//!   sequence number, so replies decode against their own requests or
//!   not at all — the xid→slot matching is asserted by construction
//!   (every slot filled exactly once).
//!
//! Fault kinds are restricted to drop/dup/reorder/delay: those are the
//! ones the windowed retransmission machinery must absorb *without*
//! tearing down the session (corruption and crashes legitimately force
//! a reconnect-and-reissue, which is chaos.rs territory). Every spec is
//! run twice and must reproduce byte for byte.

use std::sync::Arc;
use std::sync::OnceLock;

use sfs::authserver::{AuthServer, UserRecord};
use sfs::client::{RetryPolicy, SfsClient, SfsNetwork, DEFAULT_PIPELINE_WINDOW};
use sfs::server::{ServerConfig, SfsServer};
use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::{generate_keypair, RabinPrivateKey};
use sfs_crypto::sha1::{digest_hex, Sha1};
use sfs_crypto::srp::SrpGroup;
use sfs_crypto::SfsPrg;
use sfs_nfs3::{Nfs3Reply, Nfs3Request, Sattr3, StableHow, Status};
use sfs_proto::channel::SuiteId;
use sfs_sim::{Direction, FaultEvent, FaultPlan, NetParams, PacketLog, SimClock, Transport};
use sfs_vfs::{Credentials, Vfs};

fn server_key() -> RabinPrivateKey {
    static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShiftSource::new(0xA5A5);
        generate_keypair(768, &mut rng)
    })
    .clone()
}

fn user_key() -> RabinPrivateKey {
    static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShiftSource::new(0xB6B6);
        generate_keypair(512, &mut rng)
    })
    .clone()
}

fn client_ephemeral() -> RabinPrivateKey {
    static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShiftSource::new(0xE9E9);
        generate_keypair(768, &mut rng)
    })
    .clone()
}

fn srp_group() -> SrpGroup {
    static G: OnceLock<SrpGroup> = OnceLock::new();
    G.get_or_init(|| {
        let mut rng = XorShiftSource::new(0xC7C7);
        SrpGroup::generate(128, &mut rng)
    })
    .clone()
}

const ALICE_UID: u32 = 1000;

/// The batch is wider than the window so the engine must run several
/// exchange rounds and chunk boundaries are exercised.
const BATCH: usize = 12;

struct World {
    clock: SimClock,
    net: Arc<SfsNetwork>,
    client: Arc<SfsClient>,
    server: Arc<SfsServer>,
    home: String,
}

/// Full client/server stack with `plan` wired through the network (the
/// only fault site these properties exercise).
fn build_world(plan: &FaultPlan) -> World {
    let clock = SimClock::new();
    let vfs = Vfs::new(7, clock.clone());
    let root_creds = Credentials::root();
    let home = vfs.mkdir_p("/home/alice").unwrap();
    vfs.setattr(
        &root_creds,
        home,
        sfs_vfs::SetAttr {
            uid: Some(ALICE_UID),
            gid: Some(100),
            ..Default::default()
        },
    )
    .unwrap();
    let auth = Arc::new(AuthServer::new(srp_group(), 2));
    auth.register_user(UserRecord {
        user: "alice".into(),
        uid: ALICE_UID,
        gids: vec![100],
        public_key: user_key().public().to_bytes(),
    });
    let server = SfsServer::new(
        ServerConfig::new("sfs.lcs.mit.edu"),
        server_key(),
        vfs,
        auth,
        SfsPrg::from_entropy(b"pipeline-server"),
    );
    let net = SfsNetwork::new(clock.clone(), NetParams::switched_100mbit(Transport::Tcp));
    net.set_fault_plan(plan.clone());
    net.register(server.clone());
    let client = SfsClient::with_ephemeral(net.clone(), b"pipeline-client", client_ephemeral());
    client.agent(ALICE_UID).lock().add_key(user_key());
    // These properties assert that *retransmission alone* rides out the
    // wire faults (reconnects == 0 below), so give it enough budget that
    // even a 30% drop rate can't exhaust it before the seeded plan
    // relents.
    client.set_retry_policy(RetryPolicy {
        max_retransmits: 32,
        ..RetryPolicy::default()
    });
    let home = format!("{}/home/alice", server.path().full_path());
    World {
        clock,
        net,
        client,
        server,
        home,
    }
}

fn mkdir_batch(dir_fh: &sfs_nfs3::FileHandle, tag: &str) -> Vec<Nfs3Request> {
    (0..BATCH)
        .map(|i| Nfs3Request::Mkdir {
            dir: dir_fh.clone(),
            name: format!("{tag}-{i:02}"),
            attrs: Sattr3::default(),
        })
        .collect()
}

/// Everything one seeded run produced, for reproducibility comparison.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    total_ns: u64,
    events: Vec<FaultEvent>,
    replies: Vec<String>,
    /// Reconnects forced after the mount was established.
    mid_batch_reconnects: u64,
}

/// Runs the exactly-once oracle under `spec` at `window` and returns
/// the run's fingerprint. Panics on any violation.
fn exactly_once(spec: &str, window: usize) -> Outcome {
    let plan = FaultPlan::from_spec(spec).unwrap();
    let w = build_world(&plan);
    w.client.set_pipeline_window(window);
    let (mount, dir_fh, _) = w.client.resolve(ALICE_UID, &w.home).unwrap();
    // Mount establishment (key negotiation + SRP auth) may legitimately
    // need a reconnect under heavy drops — the handshake has no reply
    // cache to fall back on. The exactly-once property targets the
    // windowed data path, so score reconnects from here on.
    let reconnects_at_mount = mount.reconnects();

    // First batch: all 12 must succeed. An Exist here means a
    // retransmitted frame re-executed instead of hitting the reply
    // cache — the at-most-once property is broken.
    let reqs = mkdir_batch(&dir_fh, "once");
    let replies = w.client.call_nfs_window(&mount, ALICE_UID, &reqs).unwrap();
    assert_eq!(replies.len(), BATCH);
    let mid_batch_reconnects = mount.reconnects() - reconnects_at_mount;
    for (i, reply) in replies.iter().enumerate() {
        // The unconditional at-most-once property: as long as the
        // session survived, retransmitted frames must hit the reply
        // cache, never re-execute. Only a reconnect-and-reissue (a
        // stray frame killed the session mid-batch) may legitimately
        // surface Exist for its own already-executed calls.
        let ok = matches!(reply, Nfs3Reply::Mkdir { .. })
            || (mid_batch_reconnects > 0
                && matches!(
                    reply,
                    Nfs3Reply::Error {
                        status: Status::Exist,
                        ..
                    }
                ));
        assert!(
            ok,
            "call {i} of the windowed batch did not execute exactly once \
             under {spec:?} (window {window}): {reply:?}"
        );
    }

    // Second, identical batch: every call must now fail with Exist,
    // proving the first batch's calls all actually executed
    // (at-least-once), and proving these twelve executed too.
    let replay = w.client.call_nfs_window(&mount, ALICE_UID, &reqs).unwrap();
    for (i, reply) in replay.iter().enumerate() {
        assert!(
            matches!(
                reply,
                Nfs3Reply::Error {
                    status: Status::Exist,
                    ..
                }
            ),
            "re-issued call {i} should have found its directory already \
             present under {spec:?} (window {window}): {reply:?}"
        );
    }

    Outcome {
        total_ns: w.clock.now().as_nanos(),
        events: plan.events(),
        replies: replies.iter().map(|r| format!("{r:?}")).collect(),
        mid_batch_reconnects,
    }
}

/// Seeded wire-fault plans: drop/dup/reorder/delay alone and in
/// combination, at escalating intensities.
const WIRE_SPECS: &[&str] = &[
    "seed=501,drop=30",
    "seed=502,dup=35",
    "seed=503,reorder=45",
    "seed=504,delay=150,delay_ns=3ms",
    "seed=505,drop=20,dup=20",
    "seed=506,reorder=30,delay=100,delay_ns=1ms",
    "seed=507,drop=15,dup=15,reorder=25,delay=80,delay_ns=2ms",
];

#[test]
fn windowed_batches_execute_exactly_once_under_wire_faults() {
    for spec in WIRE_SPECS {
        let a = exactly_once(spec, DEFAULT_PIPELINE_WINDOW);
        let b = exactly_once(spec, DEFAULT_PIPELINE_WINDOW);
        assert_eq!(a, b, "windowed run diverged across reruns of {spec:?}");
        assert!(
            !a.events.is_empty(),
            "{spec:?} injected nothing — the property was vacuous"
        );
        // On these seeded plans the window machinery rides out every
        // fault by retransmission alone: the session never dies, so
        // every first-batch reply was a success (asserted above).
        assert_eq!(
            a.mid_batch_reconnects, 0,
            "wire faults in {spec:?} must not force the windowed data \
             path to reconnect"
        );
    }
}

#[test]
fn full_reply_cache_evicts_oldest_first_without_breaking_exactly_once() {
    // The server keeps 256 sealed replies for retransmission. Drive well
    // over that many sequenced calls through one session on a clean wire
    // and verify (a) the cache actually evicted (counter + size gauge),
    // and (b) exactly-once semantics survived: every distinct Mkdir
    // succeeded once, and a full re-issue comes back all-Exist. Eviction
    // is oldest-first by channel sequence number, so the recent replies a
    // client could still legitimately retransmit for stay answerable.
    const CALLS: usize = 280; // > REPLY_CACHE_CAPACITY (256)
    let plan = FaultPlan::from_spec("seed=0").unwrap();
    let w = build_world(&plan);
    let tel = sfs_telemetry::Telemetry::counters();
    w.server.set_telemetry(&tel);
    w.client.set_pipeline_window(8);
    let (mount, dir_fh, _) = w.client.resolve(ALICE_UID, &w.home).unwrap();
    let reqs: Vec<Nfs3Request> = (0..CALLS)
        .map(|i| Nfs3Request::Mkdir {
            dir: dir_fh.clone(),
            name: format!("evict-{i:03}"),
            attrs: Sattr3::default(),
        })
        .collect();
    let replies = w.client.call_nfs_window(&mount, ALICE_UID, &reqs).unwrap();
    assert_eq!(replies.len(), CALLS);
    for (i, reply) in replies.iter().enumerate() {
        assert!(
            matches!(reply, Nfs3Reply::Mkdir { .. }),
            "call {i} did not execute exactly once: {reply:?}"
        );
    }
    // The first batch alone overflows the cache.
    let evicted_after_first = tel.counter("server", "replycache.evictions");
    assert!(
        evicted_after_first >= (CALLS - 256) as u64,
        "expected at least {} evictions, saw {evicted_after_first}",
        CALLS - 256
    );
    assert_eq!(tel.gauge("server", "replycache.size"), 256);

    // Re-issue the identical batch: all-Exist proves every original call
    // executed, and the session survived the evictions — the cache only
    // dropped replies too old for any in-window retransmission to want.
    let replay = w.client.call_nfs_window(&mount, ALICE_UID, &reqs).unwrap();
    for (i, reply) in replay.iter().enumerate() {
        assert!(
            matches!(
                reply,
                Nfs3Reply::Error {
                    status: Status::Exist,
                    ..
                }
            ),
            "re-issued call {i} should have found its directory: {reply:?}"
        );
    }
    assert_eq!(mount.reconnects(), 0, "eviction must not kill the session");
    assert_eq!(tel.gauge("server", "replycache.size"), 256);
    assert!(tel.counter("server", "replycache.evictions") > evicted_after_first);
}

#[test]
fn every_window_depth_preserves_exactly_once() {
    // The nastiest combined spec, swept across window depths including
    // the blocking degenerate case.
    let spec = "seed=507,drop=15,dup=15,reorder=25,delay=80,delay_ns=2ms";
    for window in [1usize, 2, 3, 8, 16] {
        exactly_once(spec, window);
    }
}

/// Runs a fixed session — mount, authentication, a dozen single calls
/// (one of them a denied SETATTR) and one window of 8 — on a packet-logged
/// clean wire under `suite`. Returns the SHA-1 over every logged packet
/// and the envelope discriminant of each packet after the handshake.
fn pinned_session(suite: SuiteId) -> (String, Vec<u32>) {
    let w = build_world(&FaultPlan::from_spec("seed=0").unwrap());
    let log = PacketLog::new();
    w.net.set_log(log.clone());
    w.client.set_suite_offer(&[suite]);
    w.client.set_pipeline_window(8);
    let (mount, dir_fh, _) = w.client.resolve(ALICE_UID, &w.home).unwrap();
    let handshake = log.len();
    let call = |req: Nfs3Request| w.client.call_nfs(&mount, ALICE_UID, &req).unwrap();
    call(Nfs3Request::GetAttr { fh: dir_fh.clone() });
    let Nfs3Reply::Create { fh: file, .. } = call(Nfs3Request::Create {
        dir: dir_fh.clone(),
        name: "pinned".into(),
        attrs: Sattr3::default(),
    }) else {
        panic!("create failed");
    };
    call(Nfs3Request::Mkdir {
        dir: dir_fh.clone(),
        name: "pinned-dir".into(),
        attrs: Sattr3::default(),
    });
    call(Nfs3Request::Lookup {
        dir: dir_fh.clone(),
        name: "pinned-dir".into(),
    });
    for (i, len) in [100usize, 4096, 8192].into_iter().enumerate() {
        call(Nfs3Request::Write {
            fh: file.clone(),
            offset: (i * 8192) as u64,
            stable: StableHow::FileSync,
            data: (0..len).map(|b| (b % 251) as u8).collect(),
        });
    }
    call(Nfs3Request::Read {
        fh: file.clone(),
        offset: 0,
        count: 8192,
    });
    call(Nfs3Request::GetAttr { fh: file.clone() });
    let denied = call(Nfs3Request::SetAttr {
        fh: file.clone(),
        attrs: Sattr3 {
            uid: Some(0),
            ..Default::default()
        },
    });
    assert!(
        matches!(
            denied,
            Nfs3Reply::Error {
                status: Status::Perm,
                ..
            }
        ),
        "chown to root must be denied: {denied:?}"
    );
    call(Nfs3Request::Lookup {
        dir: dir_fh.clone(),
        name: "absent".into(),
    });
    call(Nfs3Request::Read {
        fh: file.clone(),
        offset: 8192,
        count: 4096,
    });
    let window = w
        .client
        .call_nfs_window(&mount, ALICE_UID, &mkdir_batch(&dir_fh, "pin")[..8])
        .unwrap();
    assert!(window.iter().all(|r| matches!(r, Nfs3Reply::Mkdir { .. })));
    let mut h = Sha1::new();
    let mut discs = Vec::new();
    for (i, (dir, bytes)) in log.snapshot().iter().enumerate() {
        h.update(&[matches!(dir, Direction::Request) as u8]);
        h.update(&(bytes.len() as u32).to_be_bytes());
        h.update(bytes);
        if i >= handshake {
            discs.push(u32::from_be_bytes(bytes[..4].try_into().unwrap()));
        }
    }
    (digest_hex(&h.finalize()), discs)
}

#[test]
fn session_wire_bytes_are_pinned() {
    // Every packet of a fixed session, hashed: the sealed-RPC engine must
    // put exactly these bytes on the wire. The digests were captured
    // before single calls and windows shared one engine.
    for (suite, pinned) in [
        (
            SuiteId::Arc4Sha1,
            "6dc2413deed15f16b34790ba570febac48f19858",
        ),
        (
            SuiteId::ChaCha20Poly1305,
            "f522a9a265628b051d3936417522345ac99fe804",
        ),
    ] {
        let (digest, discs) = pinned_session(suite);
        assert_eq!(digest, pinned, "{suite:?}: wire bytes moved");
        // One-frame exchanges carry the paper's unsequenced envelope (2);
        // only the window of 8 is sequenced (7 out, 8 back).
        let (singles, window) = discs.split_at(discs.len() - 16);
        assert!(singles.len() >= 24, "{suite:?}: {singles:?}");
        assert!(singles.iter().all(|&d| d == 2), "{suite:?}: {singles:?}");
        assert_eq!(window.iter().filter(|&&d| d == 7).count(), 8, "{suite:?}");
        assert_eq!(window.iter().filter(|&&d| d == 8).count(), 8, "{suite:?}");
    }
}

#[test]
fn write_behind_barrier_roundtrips_under_wire_faults() {
    // Streaming writes ride the write-behind queue; the barrier at
    // read-back must flush them in order even while the wire misbehaves.
    let plan = FaultPlan::from_spec("seed=509,drop=20,reorder=30,delay=60,delay_ns=1ms").unwrap();
    let w = build_world(&plan);
    w.client.set_pipeline_window(DEFAULT_PIPELINE_WINDOW);
    let path = format!("{}/stream", w.home);
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    w.client.write_file(ALICE_UID, &path, &data).unwrap();
    assert_eq!(
        w.client.read_file(ALICE_UID, &path).unwrap(),
        data,
        "write-behind + barrier lost or reordered bytes"
    );
}
