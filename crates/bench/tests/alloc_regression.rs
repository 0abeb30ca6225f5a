//! Pins allocations-per-RPC on the steady-state sealed relay loop.
//!
//! Wall-clock perf regressions need a benchmark run to notice;
//! allocation-count regressions are exact and deterministic, so they can
//! gate in an ordinary test. These ceilings track the measured counts
//! down each pass over the hot path: 36/38 allocs per GETATTR/4 KiB
//! READ before the zero-copy work, 11/14 after it, 7/9 after the
//! direct-encode call path and stack-buffer handle decryption (7/8
//! measured with this harness when single calls moved onto the windowed
//! engine, 6/7 after, the NFS results now decoded in place). A small
//! cushion absorbs platform differences in collection growth; anything
//! above it means the pooled buffer flow broke somewhere.
//!
//! The public-key path is pinned too: `modpow` must allocate only in its
//! set-up, whatever the exponent length, one Rabin-768 `decrypt` stays
//! under 128 allocations (17 272 when every `modpow` step did a long
//! division, 113 with the Montgomery loop and the cached CRT coefficient,
//! 92 with the cached root exponents and two recombinations instead of
//! four), and one Rabin-512 `sign` under 80 (1 771 when three Jacobi
//! symbols chose the tweaks, 74 now that the square roots of the hash
//! carry them).

use std::sync::Arc;

use sfs::authserver::{AuthServer, UserRecord};
use sfs::client::{SfsClient, SfsNetwork};
use sfs::server::{ServerConfig, SfsServer};
use sfs_bench::alloc_count::{count_allocs, CountingAlloc};
use sfs_bignum::{modpow, Nat, RandomSource, XorShiftSource};
use sfs_crypto::rabin::generate_keypair;
use sfs_crypto::srp::SrpGroup;
use sfs_crypto::SfsPrg;
use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request};
use sfs_sim::{NetParams, SimClock, Transport};
use sfs_vfs::{Credentials, Vfs};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const UID: u32 = 1000;
const GETATTR_ALLOC_CEILING: f64 = 9.0;
const READ_ALLOC_CEILING: f64 = 13.0;
const SHARDED_READ_ALLOC_CEILING: f64 = 24.0;
const DECRYPT_768_ALLOC_CEILING: u64 = 128;
const SIGN_512_ALLOC_CEILING: u64 = 80;

#[test]
fn steady_state_relay_allocations_stay_pinned() {
    let clock = SimClock::new();
    let vfs = Vfs::new(7, clock.clone());
    let dir = vfs.mkdir_p("/bench").unwrap();
    vfs.setattr(
        &Credentials::root(),
        dir,
        sfs_vfs::SetAttr {
            mode: Some(0o777),
            uid: Some(UID),
            gid: Some(100),
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = XorShiftSource::new(0x51EE);
    let auth = Arc::new(AuthServer::new(SrpGroup::generate(128, &mut rng), 2));
    let user_key = generate_keypair(512, &mut rng);
    auth.register_user(UserRecord {
        user: "bench".into(),
        uid: UID,
        gids: vec![100],
        public_key: user_key.public().to_bytes(),
    });
    let server = SfsServer::new(
        ServerConfig::new("server.allocs"),
        generate_keypair(768, &mut rng),
        vfs,
        auth,
        SfsPrg::from_entropy(b"alloc-regression-server"),
    );
    let net = SfsNetwork::new(clock, NetParams::switched_100mbit(Transport::Tcp));
    net.register(server.clone());
    let client = SfsClient::new(net, b"alloc-regression-client");
    client.agent(UID).lock().add_key(user_key);

    let path = server.path();
    let mount = client.mount(UID, path).expect("mount");
    let file = format!("{}/bench/data", path.full_path());
    client
        .write_file(UID, &file, &vec![0xCDu8; 4096])
        .expect("write");
    let (_, fh, _) = client.resolve(UID, &file).expect("resolve");
    client.set_caching(false); // every measured op must cross the wire

    // Warm the pools, the connection, and any lazy collection growth.
    for _ in 0..8 {
        client.getattr(&mount, UID, &fh).unwrap();
    }

    const ITERS: u64 = 32;
    let (_, getattr_allocs) = count_allocs(|| {
        for _ in 0..ITERS {
            client.getattr(&mount, UID, &fh).unwrap();
        }
    });
    let per_getattr = getattr_allocs as f64 / ITERS as f64;
    assert!(
        per_getattr <= GETATTR_ALLOC_CEILING,
        "GETATTR now costs {per_getattr:.2} allocs/RPC (ceiling {GETATTR_ALLOC_CEILING}); \
         the pooled hot path has regressed"
    );

    let read = Nfs3Request::Read {
        fh: fh.clone(),
        offset: 0,
        count: 4096,
    };
    for _ in 0..4 {
        client.call_nfs(&mount, UID, &read).unwrap();
    }
    let (_, read_allocs) = count_allocs(|| {
        for _ in 0..ITERS {
            match client.call_nfs(&mount, UID, &read).unwrap() {
                Nfs3Reply::Read { data, .. } => assert_eq!(data.len(), 4096),
                other => panic!("unexpected reply {other:?}"),
            }
        }
    });
    let per_read = read_allocs as f64 / ITERS as f64;
    assert!(
        per_read <= READ_ALLOC_CEILING,
        "4 KiB READ now costs {per_read:.2} allocs/RPC (ceiling {READ_ALLOC_CEILING}); \
         the pooled hot path has regressed"
    );
}

#[test]
fn sharded_windowed_allocations_stay_pinned() {
    // The multi-core dispatch path: windowed batches through a 4-core
    // `ShardEngine`. A single call and a window take the same sealed-RPC
    // engine; per RPC a window still costs more than a one-frame
    // exchange, if only because the server copies each sequenced reply
    // into its reply cache for retransmission. Measured 25.4 allocs per
    // windowed 4 KiB READ when this pin went in, 23.4 before the engine
    // kept its bookkeeping in per-link scratch and opened in-order
    // replies in place, 14.7 after; the ceiling is unchanged.
    let clock = SimClock::new();
    let vfs = Vfs::new(7, clock.clone());
    let dir = vfs.mkdir_p("/bench").unwrap();
    vfs.setattr(
        &Credentials::root(),
        dir,
        sfs_vfs::SetAttr {
            mode: Some(0o777),
            uid: Some(UID),
            gid: Some(100),
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = XorShiftSource::new(0x51EF);
    let auth = Arc::new(AuthServer::new(SrpGroup::generate(128, &mut rng), 2));
    let user_key = generate_keypair(512, &mut rng);
    auth.register_user(UserRecord {
        user: "bench".into(),
        uid: UID,
        gids: vec![100],
        public_key: user_key.public().to_bytes(),
    });
    let server = SfsServer::new(
        ServerConfig::new("server.shardallocs"),
        generate_keypair(768, &mut rng),
        vfs,
        auth,
        SfsPrg::from_entropy(b"alloc-regression-shard-server"),
    );
    server.set_cores(4);
    let net = SfsNetwork::new(clock, NetParams::switched_100mbit(Transport::Tcp));
    net.register(server.clone());
    let client = SfsClient::new(net, b"alloc-regression-shard-client");
    client.agent(UID).lock().add_key(user_key);

    let path = server.path();
    let mount = client.mount(UID, path).expect("mount");
    let file = format!("{}/bench/data", path.full_path());
    client
        .write_file(UID, &file, &vec![0xCDu8; 8 * 4096])
        .expect("write");
    let (_, fh, _) = client.resolve(UID, &file).expect("resolve");
    client.set_caching(false);
    client.set_pipeline_window(8);

    const BATCH: usize = 8;
    let reqs: Vec<Nfs3Request> = (0..BATCH)
        .map(|i| Nfs3Request::Read {
            fh: fh.clone(),
            offset: (i * 4096) as u64,
            count: 4096,
        })
        .collect();
    // Warm pools, sequencer capacity, and the engine's calendars.
    for _ in 0..4 {
        client.call_nfs_window(&mount, UID, &reqs).unwrap();
    }

    const ITERS: u64 = 16;
    let (_, allocs) = count_allocs(|| {
        for _ in 0..ITERS {
            for reply in client.call_nfs_window(&mount, UID, &reqs).unwrap() {
                match reply {
                    Nfs3Reply::Read { data, .. } => assert_eq!(data.len(), 4096),
                    other => panic!("unexpected reply {other:?}"),
                }
            }
        }
    });
    let engine = server.shard_engine().expect("engine installed");
    assert!(
        engine.frames_scheduled() > 0,
        "the windowed batches never went through the shard engine"
    );
    let per_rpc = allocs as f64 / (ITERS * BATCH as u64) as f64;
    assert!(
        per_rpc <= SHARDED_READ_ALLOC_CEILING,
        "sharded windowed 4 KiB READ now costs {per_rpc:.2} allocs/RPC \
         (ceiling {SHARDED_READ_ALLOC_CEILING}); the multi-core hot path has regressed"
    );
}

#[test]
fn modpow_allocates_only_in_setup() {
    // The Montgomery loop runs on stack arrays, so a 768-bit exponent
    // (~960 multiplications) must allocate exactly as often as a 64-bit
    // one (~80): only the set-up and the result touch the heap.
    let mut rng = XorShiftSource::new(0x3E7);
    let key = generate_keypair(768, &mut rng);
    let m = key.public().modulus();
    let mut bytes = [0u8; 96];
    rng.fill(&mut bytes);
    let base = Nat::from_bytes_be(&bytes);
    rng.fill(&mut bytes);
    let long_exp = Nat::from_bytes_be(&bytes[..95]);
    let short_exp = Nat::from_bytes_be(&bytes[..8]);
    assert!(long_exp.bit_len() > 700 && short_exp.bit_len() <= 64);
    let (long, long_allocs) = count_allocs(|| modpow(&base, &long_exp, m));
    let (short, short_allocs) = count_allocs(|| modpow(&base, &short_exp, m));
    assert!(long < *m && short < *m);
    assert_eq!(
        long_allocs, short_allocs,
        "modpow allocates inside its loop: {long_allocs} allocs for a 768-bit exponent, \
         {short_allocs} for a 64-bit one"
    );
}

#[test]
fn rabin_768_decrypt_allocations_stay_pinned() {
    // One decryption: two square roots, two CRT recombinations and the
    // OAEP check.
    let mut rng = XorShiftSource::new(0xDEC);
    let key = generate_keypair(768, &mut rng);
    let cipher = key.public().encrypt(b"sixteen-byte key", &mut rng).unwrap();
    let (plain, allocs) = count_allocs(|| key.decrypt(&cipher).unwrap());
    assert_eq!(plain, b"sixteen-byte key");
    assert!(
        allocs <= DECRYPT_768_ALLOC_CEILING,
        "Rabin-768 decrypt now costs {allocs} allocations (ceiling {DECRYPT_768_ALLOC_CEILING})"
    );
}

#[test]
fn rabin_512_sign_allocations_stay_pinned() {
    // One user signature, as every mount's user authentication makes:
    // two half-size square roots and one CRT recombination.
    let mut rng = XorShiftSource::new(0x5164);
    let key = generate_keypair(512, &mut rng);
    let (sig, allocs) = count_allocs(|| key.sign(b"a message to sign"));
    assert!(key.public().verify(b"a message to sign", &sig));
    assert!(
        allocs <= SIGN_512_ALLOC_CEILING,
        "Rabin-512 sign now costs {allocs} allocations (ceiling {SIGN_512_ALLOC_CEILING})"
    );
}
