//! Full-stack coverage of the remaining NFS operations through the SFS
//! client/server (rename, hard links, readdir-plus, large I/O), plus
//! server robustness against arbitrary connection bytes.

use std::sync::Arc;

use sfs::authserver::{AuthServer, UserRecord};
use sfs::client::{SfsClient, SfsNetwork, PROTOCOL_VERSION};
use sfs::server::{ServerConfig, ServerConn, SfsServer};
use sfs::wire::{
    sealed_env_begin, sealed_env_finish, seq_call_envelope, seq_env_begin, seq_env_finish, CallMsg,
    Dialect, InnerCall, ReplyMsg, Service, SEALED_ENV_FRAME_START, SEALED_SEQ_ENV_FRAME_START,
};
use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::{generate_keypair, RabinPrivateKey};
use sfs_crypto::srp::SrpGroup;
use sfs_crypto::SfsPrg;
use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request, Proc, StableHow};
use sfs_proto::channel::{SecureChannelEnd, SuiteId};
use sfs_proto::keyneg::KeyNegClient;
use sfs_sim::{NetParams, SimClock, Transport};
use sfs_vfs::{Credentials, SetAttr, Vfs};
use sfs_xdr::Xdr;
use std::sync::OnceLock;

const UID: u32 = 1000;

fn server_key() -> RabinPrivateKey {
    static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShiftSource::new(0x57AC);
        generate_keypair(768, &mut rng)
    })
    .clone()
}

fn user_key() -> RabinPrivateKey {
    static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShiftSource::new(0x57AD);
        generate_keypair(512, &mut rng)
    })
    .clone()
}

fn world() -> (Arc<SfsServer>, Arc<SfsClient>) {
    let clock = SimClock::new();
    let vfs = Vfs::new(7, clock.clone());
    let root_creds = Credentials::root();
    let work = vfs.mkdir_p("/work").unwrap();
    vfs.setattr(
        &root_creds,
        work,
        SetAttr {
            mode: Some(0o777),
            uid: Some(UID),
            gid: Some(100),
            ..Default::default()
        },
    )
    .unwrap();
    let auth = Arc::new(AuthServer::new(
        {
            let mut rng = XorShiftSource::new(0x57AE);
            SrpGroup::generate(128, &mut rng)
        },
        2,
    ));
    auth.register_user(UserRecord {
        user: "u".into(),
        uid: UID,
        gids: vec![100],
        public_key: user_key().public().to_bytes(),
    });
    let server = SfsServer::new(
        ServerConfig::new("stack.example.org"),
        server_key(),
        vfs,
        auth,
        SfsPrg::from_entropy(b"stack-server"),
    );
    let net = SfsNetwork::new(clock, NetParams::switched_100mbit(Transport::Tcp));
    net.register(server.clone());
    let client = SfsClient::new(net, b"stack-client");
    client.agent(UID).lock().add_key(user_key());
    (server, client)
}

#[test]
fn rename_through_the_stack() {
    let (server, client) = world();
    let base = format!("{}/work", server.path().full_path());
    client
        .write_file(UID, &format!("{base}/draft"), b"v1")
        .unwrap();
    let (mount, dir_fh, _) = client.resolve(UID, &base).unwrap();
    let reply = client
        .call_nfs(
            &mount,
            UID,
            &Nfs3Request::Rename {
                from_dir: dir_fh.clone(),
                from_name: "draft".into(),
                to_dir: dir_fh,
                to_name: "final".into(),
            },
        )
        .unwrap();
    assert!(matches!(reply, Nfs3Reply::Rename { .. }), "{reply:?}");
    assert!(client.read_file(UID, &format!("{base}/draft")).is_err());
    assert_eq!(
        client.read_file(UID, &format!("{base}/final")).unwrap(),
        b"v1"
    );
}

#[test]
fn hard_links_through_the_stack() {
    let (server, client) = world();
    let base = format!("{}/work", server.path().full_path());
    client
        .write_file(UID, &format!("{base}/orig"), b"shared bytes")
        .unwrap();
    let (mount, dir_fh, _) = client.resolve(UID, &base).unwrap();
    let (_, file_fh, _) = client.resolve(UID, &format!("{base}/orig")).unwrap();
    let reply = client
        .call_nfs(
            &mount,
            UID,
            &Nfs3Request::Link {
                fh: file_fh,
                dir: dir_fh,
                name: "alias".into(),
            },
        )
        .unwrap();
    match reply {
        Nfs3Reply::Link { attr, .. } => assert_eq!(attr.attr.unwrap().nlink, 2),
        other => panic!("{other:?}"),
    }
    assert_eq!(
        client.read_file(UID, &format!("{base}/alias")).unwrap(),
        b"shared bytes"
    );
    client.remove(UID, &format!("{base}/orig")).unwrap();
    assert_eq!(
        client.read_file(UID, &format!("{base}/alias")).unwrap(),
        b"shared bytes"
    );
}

#[test]
fn readdirplus_returns_handles_and_attrs() {
    let (server, client) = world();
    let base = format!("{}/work", server.path().full_path());
    for i in 0..5 {
        client
            .write_file(UID, &format!("{base}/item{i}"), format!("{i}").as_bytes())
            .unwrap();
    }
    let (mount, dir_fh, _) = client.resolve(UID, &base).unwrap();
    let reply = client
        .call_nfs(
            &mount,
            UID,
            &Nfs3Request::ReadDir {
                dir: dir_fh,
                cookie: 0,
                count: 100,
                plus: true,
            },
        )
        .unwrap();
    match reply {
        Nfs3Reply::ReadDir { entries, eof, .. } => {
            assert!(eof);
            assert_eq!(entries.len(), 5);
            for e in entries {
                let (fh, attr) = e.plus.expect("plus data");
                assert_eq!(fh.0.len(), 24, "SFS (encrypted) handle length");
                assert!(attr.attr.is_some());
                assert!(attr.lease_ns > 0, "plus attrs carry leases");
            }
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn multi_megabyte_file_roundtrip() {
    let (server, client) = world();
    let base = format!("{}/work", server.path().full_path());
    let path = format!("{base}/big.bin");
    // 2 MiB of patterned data, written in 64 KiB chunks through the real
    // channel (every byte is ARC4-encrypted and MAC'd twice).
    let chunk: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
    client.write_file(UID, &path, b"").unwrap();
    let (mount, fh, _) = client.resolve(UID, &path).unwrap();
    for i in 0..32u64 {
        let reply = client
            .call_nfs(
                &mount,
                UID,
                &Nfs3Request::Write {
                    fh: fh.clone(),
                    offset: i * 65536,
                    stable: StableHow::Unstable,
                    data: chunk.clone(),
                },
            )
            .unwrap();
        assert!(matches!(reply, Nfs3Reply::Write { .. }), "{reply:?}");
    }
    let reply = client
        .call_nfs(
            &mount,
            UID,
            &Nfs3Request::Commit {
                fh: fh.clone(),
                offset: 0,
                count: 0,
            },
        )
        .unwrap();
    assert!(matches!(reply, Nfs3Reply::Commit { .. }));
    let data = client.read_file(UID, &path).unwrap();
    assert_eq!(data.len(), 32 * 65536);
    assert_eq!(&data[..65536], &chunk[..]);
    assert_eq!(&data[31 * 65536..], &chunk[..]);
}

/// The server connection must survive arbitrary attacker bytes at any
/// protocol stage — before and after key negotiation. Packets come
/// from a seeded SplitMix64 stream (48 deterministic cases).
#[test]
fn server_conn_never_panics_on_garbage() {
    static SERVER: OnceLock<Arc<SfsServer>> = OnceLock::new();
    let server = SERVER.get_or_init(|| world().0).clone();
    let mut state = 0x6A4Bu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _case in 0..48 {
        let conn = server.accept();
        for _ in 0..(1 + next() % 5) {
            let len = (next() % 120) as usize;
            let packet: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = conn.handle_bytes(&packet);
        }
    }
}

/// Runs the Figure-3 key negotiation by hand on a fresh connection and
/// returns the established server end with the client's channel.
fn established(server: &Arc<SfsServer>, suite: SuiteId) -> (ServerConn, SecureChannelEnd) {
    let conn = server.accept();
    let neg = KeyNegClient::with_suites(server.path().clone(), server_key(), &[suite]);
    let hello = CallMsg::Hello {
        req: neg.hello(),
        service: Service::File,
        dialect: Dialect::ReadWrite,
        version: PROTOCOL_VERSION,
        extensions: neg.offer_extensions(),
    };
    let ReplyMsg::ServerReply(reply) = conn.handle(hello) else {
        panic!("expected the server key");
    };
    let mut rng = XorShiftSource::new(0x5EA1);
    let (awaiting, msg3) = neg.on_server_reply(&reply, &mut rng).unwrap();
    let ReplyMsg::ServerKeys(msg4) = conn.handle(CallMsg::ClientKeys(msg3)) else {
        panic!("expected the server key halves");
    };
    let (keys, suite) = awaiting.on_server_halves(&msg4).unwrap();
    (conn, SecureChannelEnd::client_with_suite(&keys, suite))
}

/// Well-formed envelopes of both kinds on an *established* connection,
/// mangled the ways a hostile network can: flipped frame bytes, short or
/// overlong length words, nonzero padding, a `chanseq` far behind or
/// ahead of the window, repeated xids and replays. Random bytes almost
/// never parse as a sealed envelope, so this is what reaches the
/// per-frame service path. No input may panic; an unsequenced envelope
/// gets exactly one reply, a sequenced one at most a reorder buffer's
/// worth (64), and every reply parses (48 seeded cases per suite).
#[test]
fn server_conn_survives_hostile_envelopes_on_a_live_session() {
    static SERVER: OnceLock<Arc<SfsServer>> = OnceLock::new();
    let server = SERVER.get_or_init(|| world().0).clone();
    let root = server.root_handle();
    let mut state = 0xE7E1u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for suite in [SuiteId::Arc4Sha1, SuiteId::ChaCha20Poly1305] {
        // Sealed replies of each kind: proof the frames got past the
        // envelope checks into the service path.
        let mut served = [0u32; 2];
        for _case in 0..48 {
            let (conn, mut channel) = established(&server, suite);
            let mut sent: Vec<Vec<u8>> = Vec::new();
            for _ in 0..(1 + next() % 8) {
                let call = match next() % 3 {
                    0 => InnerCall::Mount,
                    1 => InnerCall::Nfs {
                        authno: 0,
                        proc: Proc::GetAttr as u32,
                        args: Nfs3Request::GetAttr { fh: root.clone() }.encode_args(),
                    },
                    _ => InnerCall::Nfs {
                        authno: next() as u32,
                        proc: next() as u32 % 24,
                        args: (0..next() % 40).map(|_| next() as u8).collect(),
                    },
                };
                let sequenced = next() % 2 == 0;
                let mut env = Vec::new();
                let frame_start = if sequenced {
                    let chanseq = match next() % 4 {
                        0 => channel.messages_sent(),
                        1 => next() % channel.messages_sent().max(1),
                        2 => channel.messages_sent() + 1 + next() % 100,
                        _ => next(),
                    };
                    seq_env_begin(&mut env, true, chanseq, (next() % 3) as u32);
                    SEALED_SEQ_ENV_FRAME_START
                } else {
                    sealed_env_begin(&mut env);
                    SEALED_ENV_FRAME_START
                };
                env.extend_from_slice(&call.to_xdr());
                channel.seal_into(&mut env, frame_start).unwrap();
                if sequenced {
                    seq_env_finish(&mut env);
                } else {
                    sealed_env_finish(&mut env);
                }
                let len_word = frame_start - 4..frame_start;
                // Half the envelopes go out intact, half mangled.
                match next() % 10 {
                    0 => {
                        let i = frame_start + (next() as usize) % (env.len() - frame_start);
                        env[i] ^= 1 << (next() % 8);
                    }
                    1 => {
                        let claimed = u32::from_be_bytes(env[len_word.clone()].try_into().unwrap());
                        let wrong = claimed.wrapping_add(1 + (next() % 8) as u32);
                        env[len_word].copy_from_slice(&wrong.to_be_bytes());
                    }
                    2 => {
                        let claimed = u32::from_be_bytes(env[len_word.clone()].try_into().unwrap());
                        let wrong = claimed.saturating_sub(1 + (next() % 8) as u32);
                        env[len_word].copy_from_slice(&wrong.to_be_bytes());
                    }
                    3 => env.extend_from_slice(&[0, 0, 0, 1 + next() as u8 % 255]),
                    4 if !sent.is_empty() => env = sent[next() as usize % sent.len()].clone(),
                    _ => {}
                }
                let mut out = Vec::new();
                conn.handle_frames(&env, &mut out);
                if seq_call_envelope(&env).is_some() {
                    assert!(out.len() <= 64, "{} replies to one frame", out.len());
                } else {
                    assert_eq!(
                        out.len(),
                        1,
                        "an unsequenced message gets exactly one reply"
                    );
                    // The one-reply entry point, fed the same bytes again.
                    out.push(conn.handle_bytes(&env));
                }
                for reply in &out {
                    match ReplyMsg::from_xdr(reply).expect("every reply parses") {
                        ReplyMsg::Sealed(_) => served[0] += 1,
                        ReplyMsg::SealedSeq { .. } => served[1] += 1,
                        _ => {}
                    }
                }
                sent.push(env);
            }
        }
        assert!(served.iter().all(|&n| n > 0), "{suite:?}: {served:?}");
    }
}
