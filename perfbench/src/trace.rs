//! The per-layer probe, measured from outside the program.
//!
//! Nothing here changes the program. Host time is split three ways:
//!
//! - around every call into the system ([`Clock::sys`]): time outside
//!   those calls is the benchmark harness;
//! - inside a call, by a passive [`Interceptor`] on the simulated wire
//!   that stamps every packet. The interval that ends at a request
//!   packet is client work (kernel stack, client daemon, sealing); the
//!   interval that ends at a reply packet is server work (opening,
//!   dispatch, NFS3, VFS, disk model, sealing). The tail after a call's
//!   last packet is client work again (opening the reply, copying out);
//! - the counts come from the program's own counters, read through a
//!   [`Telemetry::counters`] sink.
//!
//! Two layers are replayed in isolation on the host clock, between the
//! traced run's rounds, so their share of a side of the wire can be
//! stated: the secure channel (every sealed frame the round put on the
//! wire, by length, through a fresh channel pair) and Rabin (the
//! handshake's four public-key operations plus user authentication, on
//! the run's own keys).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sfs::wire::{sealed_envelope_frame, seq_call_envelope, seq_reply_envelope};
use sfs_bench::alloc_count::allocations;
use sfs_bignum::{modpow, Nat, XorShiftSource};
use sfs_crypto::rabin::{RabinPrivateKey, RabinSignature};
use sfs_proto::channel::{SecureChannelEnd, SuiteId, FRAME_HEADER_LEN};
use sfs_proto::keyneg::SessionKeys;
use sfs_sim::{Direction, Interceptor, Verdict};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

/// Packet-stamping interceptor. Only active inside [`Clock::sys`].
#[derive(Default)]
pub struct Tracer {
    active: bool,
    last: Option<Instant>,
    last_dir: Option<Direction>,
    pub client_ns: u64,
    pub server_ns: u64,
    pub packets: u64,
    /// Request packets that follow a reply or open a call: one client
    /// wait each.
    pub round_trips: u64,
    /// Sealed frames seen: `(is_request, frame length) -> count`.
    pub frames: BTreeMap<(bool, usize), u64>,
}

impl Tracer {
    fn elapsed_since_last(&mut self, now: Instant) -> u64 {
        let dt = self
            .last
            .map_or(0, |t| now.saturating_duration_since(t).as_nanos() as u64);
        self.last = Some(now);
        dt
    }
}

impl Interceptor for Tracer {
    fn intercept(&mut self, dir: Direction, bytes: &[u8]) -> Verdict {
        if !self.active {
            return Verdict::Deliver;
        }
        let dt = self.elapsed_since_last(Instant::now());
        self.packets += 1;
        let request = dir == Direction::Request;
        if request {
            self.client_ns += dt;
            if self.last_dir != Some(Direction::Request) {
                self.round_trips += 1;
            }
        } else {
            self.server_ns += dt;
        }
        self.last_dir = Some(dir);
        let seq = if request {
            seq_call_envelope(bytes)
        } else {
            seq_reply_envelope(bytes)
        };
        let frame = seq
            .map(|(_, _, r)| r)
            .or_else(|| sealed_envelope_frame(bytes));
        if let Some(r) = frame {
            *self.frames.entry((request, r.len())).or_default() += 1;
        }
        Verdict::Deliver
    }
}

/// What a traced world carries: a counter sink or an interceptor (or
/// neither). The host-time split and the counts come from separate
/// worlds, so the counters' own cost does not land in the split.
#[derive(Default)]
pub struct Probe {
    pub tel: Option<Telemetry>,
    pub tracer: Option<Arc<Mutex<Tracer>>>,
}

impl Probe {
    pub fn with_tracer() -> Probe {
        Probe {
            tracer: Some(Arc::new(Mutex::new(Tracer::default()))),
            ..Probe::default()
        }
    }

    pub fn with_counters() -> Probe {
        Probe {
            tel: Some(Telemetry::counters()),
            ..Probe::default()
        }
    }

    /// Every counter, by `process/name`.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let snapshot = self.tel.as_ref().map(Telemetry::counters_snapshot);
        snapshot
            .unwrap_or_default()
            .into_iter()
            .map(|(proc, name, v)| (format!("{proc}/{name}"), v))
            .collect()
    }
}

/// Times one operation's calls into the system. Each workload op wraps
/// exactly its system calls in [`Clock::sys`]; generating inputs and
/// checking outputs stay outside and count as harness time.
pub struct Clock<'a> {
    tracer: Option<&'a Mutex<Tracer>>,
    /// Host ns spent inside system calls during this op.
    pub sys_ns: u64,
    /// Allocations made inside system calls during this op.
    pub allocs: u64,
}

impl<'a> Clock<'a> {
    pub fn new(tracer: Option<&'a Mutex<Tracer>>) -> Clock<'a> {
        Clock {
            tracer,
            sys_ns: 0,
            allocs: 0,
        }
    }

    pub fn sys<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let a0 = allocations();
        let t0 = Instant::now();
        if let Some(t) = self.tracer {
            let mut g = t.lock();
            g.active = true;
            g.last = Some(t0);
            g.last_dir = None;
        }
        let out = f();
        let t1 = Instant::now();
        if let Some(t) = self.tracer {
            let mut g = t.lock();
            let tail = g.elapsed_since_last(t1);
            g.client_ns += tail;
            g.active = false;
        }
        self.sys_ns += t1.duration_since(t0).as_nanos() as u64;
        self.allocs += allocations() - a0;
        out
    }
}

/// Host time of the channel replay, split by the side that does the
/// work: the client seals requests and opens replies, the server the
/// reverse.
pub struct ChannelReplay {
    pub client_ns: f64,
    pub server_ns: f64,
}

/// Most frames of one length replayed; the rest are scaled from them.
const REPLAY_BYTES: usize = 4 << 20;
const REPLAY_MAX_FRAMES: u64 = 2048;

/// Replays every captured sealed frame length through a fresh channel
/// pair under `suite` with the hot path's `seal_into` + `open_in_place`.
pub fn replay_channel(frames: &BTreeMap<(bool, usize), u64>, suite: SuiteId) -> ChannelReplay {
    let keys = SessionKeys {
        kcs: [0x11; 20],
        ksc: [0x22; 20],
        session_id: [0x33; 20],
    };
    let mut client = SecureChannelEnd::client_with_suite(&keys, suite);
    let mut server = SecureChannelEnd::server_with_suite(&keys, suite);
    let overhead = FRAME_HEADER_LEN + suite.trailer_len();
    let mut out = ChannelReplay {
        client_ns: 0.0,
        server_ns: 0.0,
    };
    for (&(request, frame_len), &count) in frames {
        let plain = frame_len.saturating_sub(overhead);
        let n = ((REPLAY_BYTES / (frame_len + 64)) as u64).clamp(1, REPLAY_MAX_FRAMES.min(count));
        let mut bufs: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut b = Vec::with_capacity(frame_len);
                b.resize(FRAME_HEADER_LEN, 0);
                b.resize(FRAME_HEADER_LEN + plain, i as u8);
                b
            })
            .collect();
        let (sealer, opener) = if request {
            (&mut client, &mut server)
        } else {
            (&mut server, &mut client)
        };
        let t0 = Instant::now();
        for b in &mut bufs {
            sealer.seal_into(b, 0).expect("fresh channel seals");
        }
        let t1 = Instant::now();
        for b in &mut bufs {
            let p = opener.open_in_place(b).expect("replayed frame opens");
            assert_eq!(p.len(), plain, "replayed frame length");
        }
        let t2 = Instant::now();
        let scale = count as f64 / n as f64;
        let seal_ns = t1.duration_since(t0).as_nanos() as f64 * scale;
        let open_ns = t2.duration_since(t1).as_nanos() as f64 * scale;
        if request {
            out.client_ns += seal_ns;
            out.server_ns += open_ns;
        } else {
            out.server_ns += seal_ns;
            out.client_ns += open_ns;
        }
    }
    out
}

/// Host time of one full key negotiation plus one user authentication,
/// split by side.
pub struct RabinReplay {
    pub client_ns: f64,
    pub server_ns: f64,
}

/// Times the handshake's Rabin operations on the run's own keys: the
/// client encrypts its key halves to the server key, decrypts the
/// server's halves with its ephemeral key and signs the authentication
/// request with the user key; the server decrypts with its key, encrypts
/// to the ephemeral key and verifies the user's signature. Sampled
/// between the traced run's rounds, once per client's ephemeral key.
pub struct RabinBench {
    server: RabinPrivateKey,
    /// Each client's ephemeral key and halves encrypted to it.
    ephemerals: Vec<(RabinPrivateKey, Vec<u8>)>,
    user: RabinPrivateKey,
    rng: XorShiftSource,
    to_server: Vec<u8>,
    sig: RabinSignature,
    /// ns per call: encrypt to server, encrypt to client, decrypt by
    /// server, decrypt by client, sign, verify.
    samples: [Vec<u64>; 6],
}

/// The key halves each side encrypts (two 20-byte keys).
const HALVES: [u8; 40] = [0x5a; 40];
/// The signed user-authentication request.
const AUTH_REQ: [u8; 32] = [0xa5; 32];

impl RabinBench {
    pub fn new(
        server: &RabinPrivateKey,
        ephemerals: Vec<RabinPrivateKey>,
        user: &RabinPrivateKey,
    ) -> RabinBench {
        let mut rng = XorShiftSource::new(0xAB1);
        let mut encrypt_to = |key: &RabinPrivateKey| {
            let c = key.public().encrypt(&HALVES, &mut rng).expect("halves fit");
            assert_eq!(key.decrypt(&c).expect("decrypts"), HALVES);
            c
        };
        let to_server = encrypt_to(server);
        let ephemerals = ephemerals
            .into_iter()
            .map(|k| {
                let c = encrypt_to(&k);
                (k, c)
            })
            .collect();
        let sig = user.sign(&AUTH_REQ);
        assert!(user.public().verify(&AUTH_REQ, &sig), "signature verifies");
        RabinBench {
            server: server.clone(),
            ephemerals,
            user: user.clone(),
            rng,
            to_server,
            sig,
            samples: Default::default(),
        }
    }

    pub fn sample(&mut self) {
        fn time<T>(out: &mut Vec<u64>, f: impl FnOnce() -> T) {
            let t = Instant::now();
            black_box(f());
            out.push(t.elapsed().as_nanos() as u64);
        }
        let [enc_s, enc_c, dec_s, dec_c, sign, verify] = &mut self.samples;
        for (eph, to_client) in &self.ephemerals {
            time(enc_s, || {
                self.server.public().encrypt(&HALVES, &mut self.rng)
            });
            time(enc_c, || eph.public().encrypt(&HALVES, &mut self.rng));
            time(dec_s, || self.server.decrypt(black_box(&self.to_server)));
            time(dec_c, || eph.decrypt(black_box(to_client)));
            time(sign, || self.user.sign(black_box(&AUTH_REQ)));
            time(verify, || {
                self.user.public().verify(black_box(&AUTH_REQ), &self.sig)
            });
        }
    }

    /// Mean cost per call. A mean, like the per-op sides it is set
    /// against: the host's speed changes between samples, and a median
    /// would weigh its slow state more than the ops did.
    pub fn result(&self) -> RabinReplay {
        let m = |i: usize| {
            let v = &self.samples[i];
            v.iter().sum::<u64>() as f64 / v.len() as f64
        };
        RabinReplay {
            client_ns: m(0) + m(3) + m(4),
            server_ns: m(2) + m(1) + m(5),
        }
    }
}

fn median_ns<T>(mut f: impl FnMut() -> T, reps: usize) -> f64 {
    let mut v: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}

/// One 768-bit modular exponentiation (full-size exponent), median ns.
pub fn modpow_768_ns(key: &RabinPrivateKey) -> f64 {
    let m = key.public().modulus().clone();
    let mut rng = XorShiftSource::new(0x3E7);
    let mut bytes = [0u8; 96];
    sfs_bignum::RandomSource::fill(&mut rng, &mut bytes);
    let base = Nat::from_bytes_be(&bytes[..95]);
    sfs_bignum::RandomSource::fill(&mut rng, &mut bytes);
    let exp = Nat::from_bytes_be(&bytes[..95]);
    median_ns(|| modpow(&base, &exp, &m), 31)
}
