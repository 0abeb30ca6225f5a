//! The SFS server: `sfssd` dispatch plus the read-write and read-only
//! servers (§3, §3.2, §3.3).
//!
//! A [`SfsServer`] owns the long-lived key, the exported file system (via
//! an embedded NFS3 engine — "the server acts as an NFS client, passing
//! the request to an NFS server on the same machine"), and the
//! authserver. Each client TCP connection becomes a [`ServerConn`] state
//! machine: `sfssd` inspects the first message and routes it to the
//! read-write protocol, the read-only dialect, or the authserver's SRP
//! service, exactly as §3.2's connection hand-off describes.
//!
//! NFS file handles never cross the wire raw: "SFS servers … make their
//! file handles publicly available to anonymous clients. SFS therefore
//! generates its file handles by adding redundancy to NFS handles and
//! encrypting them in CBC mode with a 20-byte Blowfish key" (§3.3).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use sfs_bignum::{Nat, RandomSource};
use sfs_crypto::blowfish::Blowfish;
use sfs_crypto::chachapoly;
use sfs_crypto::rabin::{RabinPrivateKey, RabinPublicKey};
use sfs_crypto::sha1::{sha1_concat, DIGEST_LEN};
use sfs_crypto::srp::SrpServer;
use sfs_crypto::SfsPrg;
use sfs_nfs3::proto::{FileHandle, Nfs3Reply, Nfs3Request, Proc, Status};
use sfs_nfs3::Nfs3Server;
use sfs_proto::channel::{FrameSequencer, SecureChannelEnd, SeqPush, SuiteId};
use sfs_proto::keyneg::{
    resume_confirm, resume_secret, resume_session, server_process_client_keys, strip_suites_ext,
    KeyNegServerReply, RESUME_NONCE_LEN,
};
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::readonly::{RoDatabase, RoError};
use sfs_proto::revoke::{ForwardingPointer, RevocationCert};
use sfs_proto::userauth::{AuthInfo, SeqWindow, AUTHNO_ANONYMOUS};
use sfs_sim::{FaultPlan, ServerCost, ServerLoad};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_vfs::{Credentials, Vfs};
use sfs_xdr::{Xdr, XdrDecoder, XdrEncoder, XdrError};

use crate::authserver::AuthServer;
use crate::bufpool::BufPool;
use crate::config::DispatchTable;
use crate::sealbox;
use crate::shard::{ShardEngine, ShardedReplyCache};
use crate::wire::{
    sealed_env_begin, sealed_env_finish, sealed_envelope_frame, seq_call_envelope, seq_env_begin,
    seq_env_finish, CallMsg, Dialect, InnerCall, InnerReply, ReplyMsg, Service,
    SEALED_ENV_FRAME_START, SEALED_SEQ_ENV_FRAME_START,
};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// DNS name or IP address of this server.
    pub location: String,
    /// Lease duration for the enhanced caching extension, ns.
    pub lease_ns: u64,
    /// `sfssd`'s connection-dispatch table (§3.2).
    pub dispatch: DispatchTable,
}

impl ServerConfig {
    /// A config with the paper's defaults (leases on, standard dispatch
    /// table).
    pub fn new(location: &str) -> Self {
        ServerConfig {
            location: location.to_string(),
            lease_ns: 30_000_000_000,
            dispatch: DispatchTable::standard(),
        }
    }
}

/// Applies `f` to every file handle in an NFS3 request.
fn map_request_handles(
    req: Nfs3Request,
    f: &mut dyn FnMut(FileHandle) -> Result<FileHandle, Status>,
) -> Result<Nfs3Request, Status> {
    use Nfs3Request as R;
    Ok(match req {
        R::Null => R::Null,
        R::GetAttr { fh } => R::GetAttr { fh: f(fh)? },
        R::SetAttr { fh, attrs } => R::SetAttr { fh: f(fh)?, attrs },
        R::Lookup { dir, name } => R::Lookup { dir: f(dir)?, name },
        R::Access { fh, mask } => R::Access { fh: f(fh)?, mask },
        R::ReadLink { fh } => R::ReadLink { fh: f(fh)? },
        R::Read { fh, offset, count } => R::Read {
            fh: f(fh)?,
            offset,
            count,
        },
        R::Write {
            fh,
            offset,
            stable,
            data,
        } => R::Write {
            fh: f(fh)?,
            offset,
            stable,
            data,
        },
        R::Create { dir, name, attrs } => R::Create {
            dir: f(dir)?,
            name,
            attrs,
        },
        R::Mkdir { dir, name, attrs } => R::Mkdir {
            dir: f(dir)?,
            name,
            attrs,
        },
        R::Symlink { dir, name, target } => R::Symlink {
            dir: f(dir)?,
            name,
            target,
        },
        R::Remove { dir, name } => R::Remove { dir: f(dir)?, name },
        R::Rmdir { dir, name } => R::Rmdir { dir: f(dir)?, name },
        R::Rename {
            from_dir,
            from_name,
            to_dir,
            to_name,
        } => R::Rename {
            from_dir: f(from_dir)?,
            from_name,
            to_dir: f(to_dir)?,
            to_name,
        },
        R::Link { fh, dir, name } => R::Link {
            fh: f(fh)?,
            dir: f(dir)?,
            name,
        },
        R::ReadDir {
            dir,
            cookie,
            count,
            plus,
        } => R::ReadDir {
            dir: f(dir)?,
            cookie,
            count,
            plus,
        },
        R::FsStat { root } => R::FsStat { root: f(root)? },
        R::FsInfo { root } => R::FsInfo { root: f(root)? },
        R::PathConf { fh } => R::PathConf { fh: f(fh)? },
        R::Commit { fh, offset, count } => R::Commit {
            fh: f(fh)?,
            offset,
            count,
        },
    })
}

/// Applies `f` to every file handle in an NFS3 reply.
fn map_reply_handles(reply: Nfs3Reply, f: &mut dyn FnMut(FileHandle) -> FileHandle) -> Nfs3Reply {
    use Nfs3Reply as P;
    match reply {
        P::Lookup { fh, attr, dir_attr } => P::Lookup {
            fh: f(fh),
            attr,
            dir_attr,
        },
        P::Create { fh, attr, dir_attr } => P::Create {
            fh: f(fh),
            attr,
            dir_attr,
        },
        P::Mkdir { fh, attr, dir_attr } => P::Mkdir {
            fh: f(fh),
            attr,
            dir_attr,
        },
        P::Symlink { fh, attr, dir_attr } => P::Symlink {
            fh: f(fh),
            attr,
            dir_attr,
        },
        P::ReadDir {
            entries,
            eof,
            dir_attr,
        } => P::ReadDir {
            entries: entries
                .into_iter()
                .map(|mut e| {
                    e.plus = e.plus.map(|(fh, a)| (f(fh), a));
                    e
                })
                .collect(),
            eof,
            dir_attr,
        },
        other => other,
    }
}

/// Fan-out point for lease invalidation callbacks: every live
/// connection gets its own pending queue, so a callback reaches *all*
/// clients holding leases, not just whichever connection drains a reply
/// first. Queues are held weakly — a dropped [`ServerConn`] prunes
/// itself on the next broadcast. A crash-restart clears every queue:
/// pending callbacks die with the instance (stale connections are
/// rejected anyway, which forces the cache flush on reconnect).
struct InvalidationHub {
    queues: Mutex<Vec<Weak<Mutex<Vec<FileHandle>>>>>,
}

impl InvalidationHub {
    fn new() -> Arc<Self> {
        Arc::new(InvalidationHub {
            queues: Mutex::new(Vec::new()),
        })
    }

    /// Registers a fresh per-connection queue.
    fn register(&self) -> Arc<Mutex<Vec<FileHandle>>> {
        let q = Arc::new(Mutex::new(Vec::new()));
        self.queues.lock().push(Arc::downgrade(&q));
        q
    }

    /// Pushes one invalidation onto every live queue.
    fn broadcast(&self, fh: FileHandle) {
        self.queues.lock().retain(|w| match w.upgrade() {
            Some(q) => {
                q.lock().push(fh.clone());
                true
            }
            None => false,
        });
    }

    /// Drops all pending invalidations (crash-restart side effect).
    fn clear_all(&self) {
        self.queues.lock().retain(|w| match w.upgrade() {
            Some(q) => {
                q.lock().clear();
                true
            }
            None => false,
        });
    }
}

/// The SFS server.
pub struct SfsServer {
    config: ServerConfig,
    key: RabinPrivateKey,
    path: SelfCertifyingPath,
    nfs: Nfs3Server,
    auth: Arc<AuthServer>,
    fh_cipher: Blowfish,
    /// AEAD key sealing session-resumption tickets. Derived from the
    /// server key (like the file-handle cipher) so tickets minted before
    /// a crash-restart still unseal afterwards — resumption is exactly
    /// the recovery path that must survive a reboot.
    ticket_key: [u8; 32],
    rng: Mutex<SfsPrg>,
    /// When set, served in response to hellos for the revoked HostID.
    revocation: Mutex<Option<RevocationCert>>,
    /// Published read-only database, when this server exports the
    /// read-only dialect.
    ro_db: Mutex<Option<Arc<RoDatabase>>>,
    /// Lease invalidations pending delivery, fanned out per connection
    /// (piggybacked on replies).
    invalidations: Arc<InvalidationHub>,
    /// Boot epoch from crashes triggered by hand ([`Self::crash_restart`]).
    manual_epoch: AtomicU64,
    /// Highest fault-plan-scheduled crash epoch already applied.
    seen_plan_epoch: AtomicU64,
    /// Optional fault plan supplying a crash-restart schedule.
    fault: Mutex<Option<FaultPlan>>,
    /// Contention tracker for this server machine; wires attached by a
    /// relay count as concurrent streams sharing its link and CPU.
    load: ServerLoad,
    /// When this server is the primary of a replica group, the hook that
    /// ships each executed mutating op to the backups before the reply
    /// is released (acknowledged-commit).
    replicator: Mutex<Option<Arc<dyn Replicator>>>,
    /// Multi-core dispatch scheduler; `None` keeps the classic
    /// single-server discipline byte-for-byte.
    shards: Mutex<Option<Arc<ShardEngine>>>,
    tel: Mutex<Telemetry>,
}

/// Ships executed mutating operations to a replica group.
///
/// Installed on a primary via [`SfsServer::set_replicator`] and invoked
/// *inside* NFS dispatch, after the local execution succeeds but before
/// the reply is encoded — so the client's acknowledgement inherently
/// waits for the group's quorum-durability barrier. `req` is the
/// NFS-form request (plaintext handles) with the caller's resolved
/// credentials; backups holding the same group key re-derive identical
/// wire handles.
pub trait Replicator: Send + Sync {
    fn replicate(&self, creds: &Credentials, req: &Nfs3Request);
}

/// Whether an NFSv3 procedure mutates the file system (and therefore
/// must be shipped to backups before its reply is released).
pub fn proc_is_mutating(proc: Proc) -> bool {
    matches!(
        proc,
        Proc::SetAttr
            | Proc::Write
            | Proc::Create
            | Proc::Mkdir
            | Proc::Symlink
            | Proc::Remove
            | Proc::Rmdir
            | Proc::Rename
            | Proc::Link
    )
}

/// Domain separator authenticated into every resumption ticket.
const TICKET_AAD: &[u8] = b"SFS-resume-ticket";

/// How long a resumption ticket stays honored after minting (virtual
/// time). Long enough to cover any realistic reconnect storm, short
/// enough that a stolen ticket ages out.
const TICKET_LIFETIME_NS: u64 = 3_600_000_000_000;

impl SfsServer {
    /// Creates a server exporting `vfs`.
    pub fn new(
        config: ServerConfig,
        key: RabinPrivateKey,
        vfs: Vfs,
        auth: Arc<AuthServer>,
        rng: SfsPrg,
    ) -> Arc<Self> {
        let path = SelfCertifyingPath::for_server(&config.location, key.public());
        auth.set_server_path(path.clone());
        let nfs = Nfs3Server::new(vfs).with_leases(config.lease_ns);
        // The file-handle key is derived from the server key, so handles
        // stay stable across restarts.
        let fh_key = sha1_concat(&[b"SFS-fh-key", &key.to_bytes()]);
        let fh_cipher = Blowfish::new(&fh_key);
        let t1 = sha1_concat(&[b"SFS-ticket-key/1", &key.to_bytes()]);
        let t2 = sha1_concat(&[b"SFS-ticket-key/2", &key.to_bytes()]);
        let mut ticket_key = [0u8; 32];
        ticket_key[..DIGEST_LEN].copy_from_slice(&t1);
        ticket_key[DIGEST_LEN..].copy_from_slice(&t2[..32 - DIGEST_LEN]);
        let invalidations = InvalidationHub::new();
        let sink = invalidations.clone();
        nfs.set_invalidation_sink(Arc::new(move |fh| sink.broadcast(fh)));
        Arc::new(SfsServer {
            config,
            key,
            path,
            nfs,
            auth,
            fh_cipher,
            ticket_key,
            rng: Mutex::new(rng),
            revocation: Mutex::new(None),
            ro_db: Mutex::new(None),
            invalidations,
            manual_epoch: AtomicU64::new(0),
            seen_plan_epoch: AtomicU64::new(0),
            fault: Mutex::new(None),
            load: ServerLoad::new(),
            replicator: Mutex::new(None),
            shards: Mutex::new(None),
            tel: Mutex::new(Telemetry::disabled()),
        })
    }

    /// Installs an `n`-core [`ShardEngine`]: pipelined frames are
    /// scheduled across `n` simulated cores (crypto on any core, disk
    /// work on the owning handle shard with group commit) instead of
    /// queueing on one logical server. Unset (the default), dispatch
    /// timing is byte-for-byte the classic single-server discipline.
    pub fn set_cores(&self, n: usize) {
        *self.shards.lock() = Some(ShardEngine::new(n));
    }

    /// The installed multi-core scheduler, if any.
    pub fn shard_engine(&self) -> Option<Arc<ShardEngine>> {
        self.shards.lock().clone()
    }

    /// This machine's contention tracker. A routing tier attaches each
    /// wire it hands out to the chosen replica's load, so fan-out across
    /// replicas shows up as reduced per-machine contention.
    pub fn load(&self) -> ServerLoad {
        self.load.clone()
    }

    /// Attaches a tracing sink. Dispatch spans and seqno-window events
    /// are stamped with the server's own simulated clock; the embedded
    /// NFS3 engine is instrumented through the same sink.
    pub fn set_telemetry(&self, tel: &Telemetry) {
        *self.tel.lock() = tel.clone().with_clock(self.nfs.vfs().clock().clone());
        self.nfs.set_telemetry(tel);
    }

    /// The server's self-certifying pathname.
    pub fn path(&self) -> &SelfCertifyingPath {
        &self.path
    }

    /// The server's private key (owner operations: revocation,
    /// forwarding, read-only publication).
    pub fn private_key(&self) -> &RabinPrivateKey {
        &self.key
    }

    /// The exported file system.
    pub fn vfs(&self) -> &Vfs {
        self.nfs.vfs()
    }

    /// The attached authserver.
    pub fn authserver(&self) -> &Arc<AuthServer> {
        &self.auth
    }

    /// The root file handle in SFS (encrypted) form.
    pub fn root_handle(&self) -> FileHandle {
        self.encrypt_handle(self.nfs.root_handle())
    }

    /// Revokes this server's pathname: subsequent hellos for the old
    /// HostID receive the certificate.
    pub fn install_revocation(&self, cert: RevocationCert) {
        *self.revocation.lock() = Some(cert);
    }

    /// Installs a forwarding pointer (§2.4): signs a pointer from this
    /// server's pathname to `new_path` and serves it as the well-known
    /// `/.forward` file, so clients can follow the move. (If the key was
    /// *compromised* rather than moved, use [`Self::install_revocation`]
    /// instead — "a revocation certificate always overrules a forwarding
    /// pointer".)
    pub fn install_forwarding(&self, new_path: SelfCertifyingPath) -> ForwardingPointer {
        let ptr = ForwardingPointer::issue(&self.key, &self.config.location, new_path);
        let vfs = self.nfs.vfs();
        let root_creds = Credentials::root();
        let root = vfs.root();
        vfs.write_file(&root_creds, root, ".forward", &ptr.to_xdr())
            .expect("forwarding file");
        ptr
    }

    /// Publishes (or refreshes) the read-only export by snapshotting the
    /// current file system. The signature happens here, once — connecting
    /// clients cost no further private-key operations.
    pub fn publish_read_only(&self, version: u64) -> Arc<RoDatabase> {
        let db = Arc::new(RoDatabase::publish(self.nfs.vfs(), &self.key, version));
        *self.ro_db.lock() = Some(db.clone());
        db
    }

    /// The current read-only database (for replication onto untrusted
    /// hosts).
    pub fn read_only_db(&self) -> Option<Arc<RoDatabase>> {
        self.ro_db.lock().clone()
    }

    /// Encrypts an NFS handle into its public SFS form.
    pub fn encrypt_handle(&self, fh: FileHandle) -> FileHandle {
        let mut buf = fh.0;
        let red = sha1_concat(&[b"SFS-fh-redundancy", &buf]);
        buf.extend_from_slice(&red[..8]);
        // 16 + 8 = 24 bytes = 3 Blowfish blocks.
        self.fh_cipher.cbc_encrypt(&mut buf);
        FileHandle(buf)
    }

    /// Decrypts and validates an SFS handle back to NFS form. Works in a
    /// stack buffer (wire handles are exactly 24 bytes) so the hot relay
    /// path pays one allocation — the returned handle — not three.
    pub fn decrypt_handle(&self, fh: &FileHandle) -> Result<FileHandle, Status> {
        if fh.0.len() != 24 {
            return Err(Status::BadHandle);
        }
        let mut buf = [0u8; 24];
        buf.copy_from_slice(&fh.0);
        self.fh_cipher.cbc_decrypt(&mut buf);
        let (inner, red) = buf.split_at(16);
        let expect = sha1_concat(&[b"SFS-fh-redundancy", inner]);
        if red != &expect[..8] {
            return Err(Status::BadHandle);
        }
        Ok(FileHandle(inner.to_vec()))
    }

    /// Seals a session-resumption ticket: an opaque blob only this
    /// server (or a restarted instance holding the same key) can read.
    /// Layout: `nonce[12] ‖ AEAD(secret ‖ suite ‖ issued_ns) ‖ tag`.
    fn mint_ticket(&self, secret: &[u8; DIGEST_LEN], suite: SuiteId, issued_ns: u64) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        enc.put_opaque_fixed(secret);
        enc.put_u32(suite.wire_id());
        enc.put_u64(issued_ns);
        let mut nonce = [0u8; chachapoly::NONCE_LEN];
        self.rng.lock().fill(&mut nonce);
        let mut ticket = nonce.to_vec();
        ticket.extend_from_slice(&chachapoly::seal(
            &self.ticket_key,
            &nonce,
            TICKET_AAD,
            enc.bytes(),
        ));
        ticket
    }

    /// Unseals and validates a resumption ticket. Only authenticity and
    /// well-formedness are checked here; freshness (expiry) is the
    /// caller's policy.
    fn unseal_ticket(&self, ticket: &[u8]) -> Result<([u8; DIGEST_LEN], SuiteId, u64), String> {
        if ticket.len() < chachapoly::NONCE_LEN + chachapoly::TAG_LEN {
            return Err("ticket too short".into());
        }
        let (nonce, sealed) = ticket.split_at(chachapoly::NONCE_LEN);
        let nonce: [u8; chachapoly::NONCE_LEN] = nonce.try_into().expect("split length");
        let payload = chachapoly::open(&self.ticket_key, &nonce, TICKET_AAD, sealed)
            .map_err(|_| "ticket authentication failed".to_string())?;
        let mut dec = XdrDecoder::new(&payload);
        let bad = |e: sfs_xdr::XdrError| format!("malformed ticket payload: {e}");
        let secret: [u8; DIGEST_LEN] = dec
            .get_opaque_fixed(DIGEST_LEN)
            .map_err(bad)?
            .try_into()
            .expect("fixed length");
        let suite_wire = dec.get_u32().map_err(bad)?;
        let issued_ns = dec.get_u64().map_err(bad)?;
        dec.finish().map_err(bad)?;
        let suite = SuiteId::from_wire(suite_wire)
            .ok_or_else(|| format!("ticket names unknown suite {suite_wire}"))?;
        Ok((secret, suite, issued_ns))
    }

    /// Attaches a seeded fault plan; its crash schedule takes effect
    /// lazily as the virtual clock passes each scheduled instant.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault.lock() = Some(plan);
    }

    /// Installs (or clears) the log-shipping hook run for every mutating
    /// NFS operation this server executes as a replica-group primary.
    pub fn set_replicator(&self, repl: Option<Arc<dyn Replicator>>) {
        *self.replicator.lock() = repl;
    }

    /// Applies one logged NFS-form operation to this server's file
    /// system — the backup side of log shipping, and log replay at
    /// promotion. Runs the same relay path a live dispatch uses, but
    /// without handle translation (logged ops are already NFS-form) and
    /// without re-entering the replicator.
    pub fn apply_logged(&self, creds: &Credentials, req: &Nfs3Request) -> Nfs3Reply {
        self.nfs.handle(creds, req)
    }

    /// Crash-restarts the server by hand: every live connection's state
    /// (secure channels, authentication numbers, seqno windows) is gone,
    /// as are pending lease invalidations. Long-lived state — the server
    /// key, the file system, the file-handle cipher derived from the key
    /// — survives, which is exactly what lets clients reconnect and
    /// renegotiate against the *same* self-certifying pathname.
    pub fn crash_restart(&self) {
        self.manual_epoch.fetch_add(1, Ordering::SeqCst);
        self.invalidations.clear_all();
        let tel = self.tel.lock().clone();
        tel.count("server", "restarts", 1);
        tel.instant("server", "core.server", "restart");
        if let Some(plan) = &*self.fault.lock() {
            plan.note_server_crash(self.nfs.vfs().clock().now());
        }
    }

    /// The current boot epoch: manual crash-restarts plus any fault-plan
    /// crashes the virtual clock has passed. Connections opened in an
    /// older epoch are permanently rejected — their session state died
    /// with the crashed instance.
    pub fn current_epoch(&self) -> u64 {
        let plan_epoch = self
            .fault
            .lock()
            .as_ref()
            .map(|p| p.server_epoch(self.nfs.vfs().clock().now()))
            .unwrap_or(0);
        let seen = self.seen_plan_epoch.load(Ordering::SeqCst);
        if plan_epoch > seen
            && self
                .seen_plan_epoch
                .compare_exchange(seen, plan_epoch, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            // First observation of a scheduled crash: apply the restart's
            // side effects once.
            self.invalidations.clear_all();
            let tel = self.tel.lock().clone();
            tel.count("server", "restarts", plan_epoch - seen);
            tel.instant("server", "core.server", "restart");
            if let Some(plan) = &*self.fault.lock() {
                for _ in seen..plan_epoch {
                    plan.note_server_crash(self.nfs.vfs().clock().now());
                }
            }
        }
        self.manual_epoch.load(Ordering::SeqCst) + plan_epoch
    }

    /// Opens a new connection (one per client TCP connection).
    pub fn accept(self: &Arc<Self>) -> ServerConn {
        let pool = BufPool::new("server");
        pool.set_telemetry(self.tel.lock().clone());
        ServerConn {
            epoch: self.current_epoch(),
            pending: self.invalidations.register(),
            server: self.clone(),
            state: Mutex::new(ConnState::Idle),
            pool,
            last_shard: Mutex::new(None),
        }
    }
}

impl std::fmt::Debug for SfsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SfsServer")
            .field("location", &self.config.location)
            .field("path", &self.path.dir_name())
            .finish()
    }
}

/// How many out-of-order pipelined frames the server will buffer ahead
/// of a reorder gap before declaring the channel broken.
const SEQ_BUF_CAPACITY: usize = 64;

/// How many sealed pipelined replies are kept for byte-identical
/// retransmission. A replay older than this cannot be answered (the
/// ciphers have long moved on) and kills the session.
const REPLY_CACHE_CAPACITY: usize = 256;

struct Established {
    channel: SecureChannelEnd,
    session_id: [u8; 20],
    authnos: HashMap<u32, (String, Credentials)>,
    next_authno: u32,
    seqwin: SeqWindow,
    /// Reorder buffer for pipelined frames that arrived ahead of a gap
    /// in the channel sequence.
    seq_buf: FrameSequencer,
    /// Sealed replies keyed by the request's channel sequence number,
    /// resent verbatim on retransmission (the send cipher must not
    /// advance for a frame the client may already have). Sharded by
    /// chanseq so each dispatch worker owns its slice.
    reply_cache: ShardedReplyCache,
}

enum ConnState {
    /// Nothing received yet; `sfssd` will route on the first message.
    Idle,
    /// Read-write hello done, awaiting the client's key-negotiation
    /// message. Carries the hello's raw cipher-suite offer so key
    /// derivation can bind it (downgrade protection).
    AwaitClientKeys { offer: String },
    /// Secure channel up.
    Established(Box<Established>),
    /// Read-only dialect selected.
    ReadOnly,
    /// SRP handshake in progress.
    SrpAwaitFinish {
        user: String,
        a_pub: Nat,
        srp: Option<Box<SrpServer>>,
    },
}

/// One client connection's server-side state machine.
pub struct ServerConn {
    server: Arc<SfsServer>,
    /// The server boot epoch this connection was accepted in; a crash
    /// restart invalidates it and every message afterwards is refused.
    epoch: u64,
    /// This connection's share of the invalidation broadcast.
    pending: Arc<Mutex<Vec<FileHandle>>>,
    state: Mutex<ConnState>,
    /// Freelist shared with the client end of this (loopback) connection
    /// so steady-state sealed RPCs recycle the same few buffers.
    pool: Arc<BufPool>,
    /// The handle shard touched by the most recent dispatched request,
    /// recorded by `dispatch_nfs_into` for the multi-core scheduler
    /// (first file handle of the request wins).
    last_shard: Mutex<Option<u32>>,
}

impl ServerConn {
    /// The server behind this connection.
    pub fn server(&self) -> &Arc<SfsServer> {
        &self.server
    }

    /// Fresh per-session state around a newly keyed channel — shared by
    /// full key negotiation and ticket resumption (a resumed session is
    /// a *new* session: empty authnos, fresh seqno window, empty caches).
    fn establish(
        &self,
        channel: SecureChannelEnd,
        session_id: [u8; DIGEST_LEN],
    ) -> Box<Established> {
        Box::new(Established {
            channel,
            session_id,
            authnos: HashMap::new(),
            next_authno: 1,
            seqwin: SeqWindow::new(32),
            seq_buf: FrameSequencer::new(SEQ_BUF_CAPACITY),
            reply_cache: ShardedReplyCache::new(
                REPLY_CACHE_CAPACITY,
                self.server.shard_engine().map_or(1, |e| e.cores()),
            ),
        })
    }

    /// This connection's buffer freelist. The client side of the
    /// simulated loopback adopts it so request and reply buffers
    /// circulate instead of being reallocated per RPC.
    pub fn buf_pool(&self) -> &Arc<BufPool> {
        &self.pool
    }

    /// Processes one wire message that has exactly one reply: the
    /// cleartext stages (key negotiation, SRP, read-only dialect) and the
    /// paper's unsequenced sealed frame. The [`sfs_sim::Wire::call`]
    /// entry point.
    pub fn handle_bytes(&self, bytes: &[u8]) -> Vec<u8> {
        let reply = match CallMsg::from_xdr(bytes) {
            Ok(msg) => self.handle(msg),
            Err(e) => ReplyMsg::Error(format!("unparseable message: {e}")),
        };
        reply.to_xdr()
    }

    /// Every sealed frame, of either envelope kind, enters here: the
    /// session checks, then — for a sequenced frame — channel-order
    /// admission, then [`Self::serve_frame`]. Replies are appended to
    /// `out`: exactly one for an unsequenced frame; for a sequenced one
    /// zero (buffered ahead of a reorder gap), one, or several (a frame
    /// that fills a gap releases every buffered successor at once).
    ///
    /// Sequenced frames are decrypted strictly in channel-sequence order
    /// regardless of arrival order: early frames buffer, retransmissions
    /// of already-consumed frames are answered from the reply cache
    /// byte-for-byte (neither cipher advances), and anything past the
    /// reorder window kills the session.
    fn handle_sealed(&self, seq: Option<(u64, u32)>, frame: &[u8], out: &mut Vec<Vec<u8>>) {
        let tel = self.server.tel.lock().clone();
        let name = if seq.is_some() {
            "sealed_seq"
        } else {
            "sealed"
        };
        let _span = tel.span("server", "core.server", name);
        tel.count("server", "dispatch.calls", 1);
        if self.server.current_epoch() != self.epoch {
            tel.count("server", "stale_conns.rejected", 1);
            out.push(ReplyMsg::Error("connection reset: server restarted".into()).to_xdr());
            return;
        }
        let mut state = self.state.lock();
        let ConnState::Established(est) = &mut *state else {
            out.push(ReplyMsg::Error("no secure channel".into()).to_xdr());
            return;
        };
        let Some((chanseq, xid)) = seq else {
            out.push(self.serve_frame(est, &tel, None, frame));
            return;
        };
        let expected = est.channel.messages_received();
        if chanseq == expected {
            // In order: served straight from the wire buffer.
            out.push(self.serve_frame(est, &tel, Some(xid), frame));
        } else {
            match est.seq_buf.push(chanseq, xid, frame.to_vec(), expected) {
                // Double delivery of a still-buffered frame; the copy
                // already queued answers once the gap fills.
                SeqPush::Duplicate if chanseq >= expected => return,
                SeqPush::Duplicate => {
                    tel.count("server", "pipeline.retransmits", 1);
                    out.push(match est.reply_cache.get(chanseq) {
                        Some(cached) => cached.clone(),
                        None => {
                            ReplyMsg::Error("channel failure: replay beyond cache".into()).to_xdr()
                        }
                    });
                    return;
                }
                SeqPush::Overflow => {
                    out.push(
                        ReplyMsg::Error("channel failure: pipeline window overflow".into())
                            .to_xdr(),
                    );
                    return;
                }
                SeqPush::Buffered => {}
            }
        }
        while let Some((xid, frame)) = est.seq_buf.take(est.channel.messages_received()) {
            out.push(self.serve_frame(est, &tel, Some(xid), &frame));
        }
        tel.gauge_set("server", "pipeline.queue_depth", est.seq_buf.len() as u64);
    }

    /// The one service path for a sealed frame: opens it in a pooled
    /// buffer, dispatches, and seals the reply in a single pooled buffer
    /// — in the paper's unsequenced envelope, or, for a sequenced frame
    /// (`xid` set), in a sequenced envelope that is also cached under
    /// the request's channel sequence number for byte-identical
    /// retransmission.
    fn serve_frame(
        &self,
        est: &mut Established,
        tel: &Telemetry,
        xid: Option<u32>,
        frame: &[u8],
    ) -> Vec<u8> {
        let req_seq = est.channel.messages_received();
        let mut fbuf = self.pool.get();
        fbuf.extend_from_slice(frame);
        let plaintext = match est.channel.open_in_place(&mut fbuf) {
            Ok(p) => p,
            Err(e) => {
                self.pool.put(fbuf);
                return ReplyMsg::Error(format!("channel failure: {e}")).to_xdr();
            }
        };
        let mut out = self.pool.get();
        let frame_start = match xid {
            Some(xid) => {
                seq_env_begin(&mut out, false, est.channel.messages_sent(), xid);
                SEALED_SEQ_ENV_FRAME_START
            }
            None => {
                sealed_env_begin(&mut out);
                SEALED_ENV_FRAME_START
            }
        };
        let served = self.service_plaintext_into(est, plaintext, &mut out);
        self.pool.put(fbuf);
        if let Err(e) = served {
            self.pool.put(out);
            return ReplyMsg::Error(e).to_xdr();
        }
        if let Err(e) = est.channel.seal_into(&mut out, frame_start) {
            return ReplyMsg::Error(format!("channel failure: {e}")).to_xdr();
        }
        if xid.is_none() {
            sealed_env_finish(&mut out);
            return out;
        }
        seq_env_finish(&mut out);
        // Oldest-first eviction (inside the sharded cache): a
        // retransmission can only ask for a recent sequence number (the
        // client's window bounds how far back it retries), so dropping
        // the globally lowest keys preserves exactly-once for every
        // answerable replay.
        let evicted = est.reply_cache.insert(req_seq, out.clone());
        if evicted > 0 {
            tel.count("server", "replycache.evictions", evicted);
        }
        tel.gauge_set("server", "replycache.size", est.reply_cache.len() as u64);
        out
    }

    /// Dispatches one opened plaintext call, appending the *plaintext*
    /// inner-reply encoding to `out` (which already holds the caller's
    /// envelope prefix; the caller seals afterwards). The hot NFS3 path
    /// encodes its results straight into `out` without copying the
    /// argument bytes; rare inner calls (Auth, Mount) fall back to the
    /// general dispatcher. The channel was already advanced by the open,
    /// so nothing here may re-open the frame.
    fn service_plaintext_into(
        &self,
        est: &mut Established,
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), String> {
        let bad = |e: XdrError| format!("bad inner call: {e}");
        let mut dec = XdrDecoder::new(plaintext);
        if !matches!(dec.get_u32(), Ok(1)) {
            // Not an NFS call (authentication, mount): the general
            // dispatcher.
            let call = InnerCall::from_xdr(plaintext).map_err(bad)?;
            let reply = self.handle_inner(est, call);
            out.extend_from_slice(&reply.to_xdr());
            return Ok(());
        }
        let authno = dec.get_u32().map_err(bad)?;
        let proc = dec.get_u32().map_err(bad)?;
        let args = dec.get_opaque_ref().map_err(bad)?;
        dec.finish().map_err(bad)?;
        // Borrow the session's credentials in place: the dispatch below
        // never touches `est`, and skipping the clone keeps the per-RPC
        // allocation count down (gids is a Vec).
        let anon;
        let creds = if authno == AUTHNO_ANONYMOUS {
            anon = Credentials::anonymous();
            &anon
        } else {
            match est.authnos.get(&authno) {
                Some((_, creds)) => creds,
                None => {
                    anon = Credentials::anonymous();
                    &anon
                }
            }
        };
        // Encode the `InnerReply::Nfs` plaintext directly into the reply
        // envelope: tag, an opaque results field (length word patched
        // after encoding in place), then the piggybacked invalidations.
        out.extend_from_slice(&2u32.to_be_bytes());
        let len_pos = out.len();
        out.extend_from_slice(&[0u8; 4]);
        let results_start = out.len();
        let mut enc = XdrEncoder::from_vec(std::mem::take(out));
        self.dispatch_nfs_into(creds, proc, args, &mut enc);
        *out = enc.into_bytes();
        let results_len = out.len() - results_start;
        out[len_pos..len_pos + 4].copy_from_slice(&(results_len as u32).to_be_bytes());
        out.extend_from_slice(&[0u8; 3][..(4 - results_len % 4) % 4]);
        let pending: Vec<FileHandle> = self
            .pending
            .lock()
            .drain(..)
            .map(|fh| self.server.encrypt_handle(fh))
            .collect();
        out.extend_from_slice(&(pending.len() as u32).to_be_bytes());
        if !pending.is_empty() {
            let mut enc = XdrEncoder::from_vec(std::mem::take(out));
            for fh in &pending {
                fh.encode(&mut enc);
            }
            *out = enc.into_bytes();
        }
        Ok(())
    }

    /// The entry point of the sealed-RPC engine's wire: appends the
    /// replies to one incoming message to `out` (see
    /// [`Self::handle_sealed`]; anything not sealed gets exactly one).
    pub fn handle_frames(&self, bytes: &[u8], out: &mut Vec<Vec<u8>>) {
        match seq_call_envelope(bytes) {
            Some((chanseq, xid, frame)) => {
                self.handle_sealed(Some((chanseq, xid)), &bytes[frame], out)
            }
            None => match sealed_envelope_frame(bytes) {
                Some(frame) => self.handle_sealed(None, &bytes[frame], out),
                None => out.push(self.handle_bytes(bytes)),
            },
        }
    }

    /// [`Self::handle_frames`] under multi-core dispatch, for sequenced
    /// frames.
    ///
    /// Without a [`ShardEngine`] installed this is exactly
    /// `handle_frames` with the classic serial cost — byte-for-byte the
    /// single-server discipline. With one, the frame's analytic CPU cost
    /// (`frame_cost_ns`, the seal/open + dispatch work) is placed on the
    /// earliest-free simulated core starting at `arrival_ns`, and any
    /// disk work the dispatch performed is captured via the disk's tally
    /// mode and placed on the owning handle shard's commit queue (where
    /// back-to-back commits batch). The returned [`ServerCost`] carries
    /// the absolute completion instant.
    ///
    /// Ordering: cipher state still advances strictly in channel-
    /// sequence order — the `FrameSequencer` drain inside
    /// `handle_frames` runs before any scheduling decision, so the
    /// engine only chooses *when* the work completes, never in what
    /// order the channel is touched. Completion instants may therefore
    /// be out of order across frames (different cores), which the
    /// client's own reorder buffer absorbs.
    pub fn handle_frames_on(
        &self,
        arrival_ns: u64,
        frame_cost_ns: u64,
        bytes: &[u8],
        out: &mut Vec<Vec<u8>>,
    ) -> ServerCost {
        let Some(engine) = self.server.shard_engine() else {
            self.handle_frames(bytes, out);
            return ServerCost::Serial(frame_cost_ns);
        };
        let disk = self.server.vfs().disk().cloned();
        if let Some(d) = &disk {
            d.tally_begin();
        }
        *self.last_shard.lock() = None;
        self.handle_frames(bytes, out);
        let tally = disk.as_ref().map(|d| d.tally_end()).unwrap_or_default();
        let shard = self.last_shard.lock().take();
        let tel = self.server.tel.lock().clone();
        let done = engine.schedule(arrival_ns, frame_cost_ns, tally, shard, &tel);
        ServerCost::Scheduled(done)
    }

    /// Processes one decoded wire message.
    pub fn handle(&self, msg: CallMsg) -> ReplyMsg {
        if let CallMsg::Sealed(frame) = &msg {
            // Sealed frames have one service path, whatever form they
            // arrive in.
            let mut out = Vec::with_capacity(1);
            self.handle_sealed(None, frame, &mut out);
            return ReplyMsg::from_xdr(&out[0])
                .unwrap_or_else(|e| ReplyMsg::Error(format!("bad sealed reply: {e}")));
        }
        let tel = self.server.tel.lock().clone();
        let name = match &msg {
            CallMsg::Hello { .. } => "hello",
            CallMsg::ClientKeys(_) => "client_keys",
            CallMsg::RoGetRoot => "ro_get_root",
            CallMsg::RoGetBlock(_) => "ro_get_block",
            CallMsg::SrpStart { .. } => "srp_start",
            CallMsg::SrpFinish { .. } => "srp_finish",
            CallMsg::Sealed(_) | CallMsg::SealedSeq { .. } => "sealed_seq",
            CallMsg::Resume { .. } => "resume",
        };
        let _span = tel.span("server", "core.server", name);
        tel.count("server", "dispatch.calls", 1);
        // A connection from before a crash-restart is dead: the instance
        // holding its channel keys and seqno window no longer exists, so
        // the client must redial and force a full rekey. Stale *sessions*
        // can never be resumed — that is the recovery invariant.
        if self.server.current_epoch() != self.epoch {
            tel.count("server", "stale_conns.rejected", 1);
            return ReplyMsg::Error("connection reset: server restarted".into());
        }
        let mut state = self.state.lock();
        match msg {
            CallMsg::Hello {
                req,
                service,
                dialect,
                version,
                extensions,
            } => {
                // `sfssd` hands the connection to a subsidiary daemon per
                // the configured dispatch table (§3.2). The cipher-suite
                // offer rides the extensions string but is negotiation
                // input, not a dispatch key — strip it before matching.
                let dispatch_ext = strip_suites_ext(&extensions);
                let Some(_daemon) =
                    self.server
                        .config
                        .dispatch
                        .dispatch(service, dialect, version, &dispatch_ext)
                else {
                    return ReplyMsg::Error(format!(
                        "no daemon configured for service {service:?} dialect {dialect:?}                          version {version} extensions {extensions:?}"
                    ));
                };
                if service != Service::File {
                    return ReplyMsg::Error("authserver is reached via SRP messages".into());
                }
                // Serve a revocation certificate when one matches the
                // requested HostID (§2.6: "not a reliable means of
                // distributing revocation certificates, but it may help
                // get the word out fast").
                if let Some(cert) = &*self.server.revocation.lock() {
                    if cert.host_id().map(|h| h == req.host_id).unwrap_or(false) {
                        return ReplyMsg::ServerReply(KeyNegServerReply::Revoked(cert.clone()));
                    }
                }
                match dialect {
                    Dialect::ReadWrite => {
                        *state = ConnState::AwaitClientKeys { offer: extensions };
                    }
                    Dialect::ReadOnly => {
                        *state = ConnState::ReadOnly;
                    }
                }
                ReplyMsg::ServerReply(KeyNegServerReply::ServerKey(
                    self.server.key.public().to_bytes(),
                ))
            }
            CallMsg::ClientKeys(ck) => {
                let ConnState::AwaitClientKeys { offer } = &*state else {
                    return ReplyMsg::Error("key negotiation out of order".into());
                };
                let offer = offer.clone();
                let result = {
                    let mut rng = self.server.rng.lock();
                    server_process_client_keys(&self.server.key, &ck, &offer, &mut *rng)
                };
                match result {
                    Ok((keys, suite, mut msg4)) => {
                        let mut channel = SecureChannelEnd::server_with_suite(&keys, suite);
                        channel.set_telemetry(tel.clone());
                        tel.count("server", "keyneg.completed", 1);
                        // Hand the client a resumption ticket alongside
                        // the key halves: a later reconnect can skip the
                        // Rabin decryption entirely.
                        msg4.ticket = self.server.mint_ticket(
                            &resume_secret(&keys),
                            suite,
                            self.server.nfs.vfs().clock().now().as_nanos(),
                        );
                        let session_id = keys.session_id;
                        *state = ConnState::Established(self.establish(channel, session_id));
                        ReplyMsg::ServerKeys(msg4)
                    }
                    Err(e) => ReplyMsg::Error(format!("key negotiation failed: {e}")),
                }
            }
            CallMsg::Resume { ticket, nonce } => {
                if !matches!(*state, ConnState::Idle) {
                    return ReplyMsg::Error("resume out of order".into());
                }
                // A revoked server must not shortcut clients back onto a
                // channel its compromised key once blessed.
                if self.server.revocation.lock().is_some() {
                    tel.count("server", "resume.rejected", 1);
                    return ReplyMsg::ResumeReject("server key revoked".into());
                }
                let (secret, suite, issued_ns) = match self.server.unseal_ticket(&ticket) {
                    Ok(t) => t,
                    Err(why) => {
                        tel.count("server", "resume.rejected", 1);
                        return ReplyMsg::ResumeReject(why);
                    }
                };
                let now = self.server.nfs.vfs().clock().now().as_nanos();
                if now.saturating_sub(issued_ns) > TICKET_LIFETIME_NS {
                    tel.count("server", "resume.rejected", 1);
                    return ReplyMsg::ResumeReject("ticket expired".into());
                }
                let mut server_nonce = [0u8; RESUME_NONCE_LEN];
                self.server.rng.lock().fill(&mut server_nonce);
                let keys = resume_session(&secret, suite, &nonce, &server_nonce);
                let confirm = resume_confirm(&keys);
                // Single-use rotation: the reply carries a fresh ticket
                // bound to the *new* session's secret.
                let new_ticket = self.server.mint_ticket(&resume_secret(&keys), suite, now);
                let mut channel = SecureChannelEnd::server_with_suite(&keys, suite);
                channel.set_telemetry(tel.clone());
                tel.count("server", "resume.accepted", 1);
                let session_id = keys.session_id;
                *state = ConnState::Established(self.establish(channel, session_id));
                ReplyMsg::ResumeOk {
                    nonce: server_nonce,
                    confirm,
                    ticket: new_ticket,
                }
            }
            CallMsg::RoGetRoot => {
                if !matches!(*state, ConnState::ReadOnly) {
                    return ReplyMsg::Error("not a read-only connection".into());
                }
                match self.server.ro_db.lock().as_ref() {
                    Some(db) => ReplyMsg::RoRoot(db.root.clone()),
                    None => ReplyMsg::Error("no read-only export".into()),
                }
            }
            CallMsg::RoGetBlock(digest) => {
                if !matches!(*state, ConnState::ReadOnly) {
                    return ReplyMsg::Error("not a read-only connection".into());
                }
                let db = self.server.ro_db.lock().clone();
                match db.as_ref().and_then(|db| db.fetch_raw(&digest).ok()) {
                    Some(block) => ReplyMsg::RoBlock(block.to_vec()),
                    None => ReplyMsg::Error("no such block".into()),
                }
            }
            CallMsg::SrpStart { user, a_pub } => {
                let mut rng = self.server.rng.lock();
                match self.server.auth.srp_start(&user, &mut *rng) {
                    Some((srp, salt, b_pub)) => {
                        let (ekb_salt, cost) = self
                            .server
                            .auth
                            .password_params(&user)
                            .expect("srp_start implies params");
                        *state = ConnState::SrpAwaitFinish {
                            user,
                            a_pub: Nat::from_bytes_be(&a_pub),
                            srp: Some(Box::new(srp)),
                        };
                        ReplyMsg::SrpChallenge {
                            salt,
                            b_pub: b_pub.to_bytes_be(),
                            ekb_salt: ekb_salt.to_vec(),
                            cost,
                        }
                    }
                    // A real deployment would fake a challenge to avoid
                    // leaking which accounts exist; we keep the error
                    // explicit for debuggability.
                    None => ReplyMsg::Error("unknown user".into()),
                }
            }
            CallMsg::SrpFinish { m1 } => {
                let ConnState::SrpAwaitFinish { user, a_pub, srp } = &mut *state else {
                    return ReplyMsg::Error("no SRP handshake in progress".into());
                };
                let Some(srp_server) = srp.take() else {
                    return ReplyMsg::Error("SRP handshake already consumed".into());
                };
                match (*srp_server).process(a_pub, &m1) {
                    Ok(session) => {
                        let (path, blob) = self.server.auth.srp_payload(user);
                        let mut enc = XdrEncoder::new();
                        path.encode(&mut enc);
                        blob.encode(&mut enc);
                        let sealed = sealbox::seal(&session.key, enc.bytes());
                        ReplyMsg::SrpDone {
                            m2: session.m2.to_vec(),
                            sealed_payload: sealed,
                        }
                    }
                    Err(e) => ReplyMsg::Error(format!("SRP failed: {e}")),
                }
            }
            // Sequenced frames only make sense through the windowed
            // entry point (`handle_frames`), which may release several
            // buffered frames at once; a lone one here is a protocol
            // error. (Unsequenced frames were served above.)
            CallMsg::Sealed(_) | CallMsg::SealedSeq { .. } => {
                ReplyMsg::Error("pipelined frame outside windowed path".into())
            }
        }
    }

    fn handle_inner(&self, est: &mut Established, call: InnerCall) -> InnerReply {
        match call {
            InnerCall::Auth { seq_no, msg } => {
                // The server recomputes the expected AuthID for *this*
                // session; a request signed for another session cannot
                // match.
                let info = AuthInfo::for_fs(
                    &self.server.config.location,
                    self.server.path.host_id,
                    est.session_id,
                );
                let tel = self.server.tel.lock().clone();
                if !est.seqwin.accept(seq_no) {
                    // Replay / out-of-window: the gate fires before any
                    // signature check (§3.1.3's freshness guarantee).
                    tel.count("server", "seqwin.rejected", 1);
                    tel.instant("server", "core.server", "seqwin_reject");
                    return InnerReply::AuthDenied { seq_no };
                }
                tel.count("server", "seqwin.accepted", 1);
                match self.server.auth.validate(&msg, &info.auth_id(), seq_no) {
                    Ok((user, creds)) => {
                        let authno = est.next_authno;
                        est.next_authno += 1;
                        est.authnos.insert(authno, (user, creds));
                        InnerReply::AuthGranted { seq_no, authno }
                    }
                    Err(_) => InnerReply::AuthDenied { seq_no },
                }
            }
            InnerCall::Mount => InnerReply::MountReply {
                root: self.server.root_handle(),
            },
            // `service_plaintext_into` serves every frame tagged as an NFS
            // call in place.
            InnerCall::Nfs { .. } => unreachable!("NFS calls never reach the general dispatcher"),
        }
    }

    /// Dispatches one NFS3 call, marshaling the results into a
    /// caller-owned encoder (the hot path appends them straight into the
    /// reply envelope).
    fn dispatch_nfs_into(&self, creds: &Credentials, proc: u32, args: &[u8], enc: &mut XdrEncoder) {
        let err = |status: Status, enc: &mut XdrEncoder| {
            Nfs3Reply::Error {
                status,
                dir_attr: Default::default(),
            }
            .encode_results_into(enc)
        };
        let Some(proc) = Proc::from_u32(proc) else {
            return err(Status::NotSupp, enc);
        };
        let Ok(req) = Nfs3Request::decode_args(proc, args) else {
            return err(Status::Inval, enc);
        };
        // Translate public SFS handles to private NFS handles, noting
        // which worker shard owns the request's first handle so the
        // multi-core scheduler can route its disk work.
        let mut first_fh: Option<u32> = None;
        let engine = self.server.shard_engine();
        let req = match map_request_handles(req, &mut |fh| {
            let nfs = self.server.decrypt_handle(&fh)?;
            if first_fh.is_none() {
                if let Some(e) = &engine {
                    first_fh = Some(e.shard_of(&nfs.0));
                }
            }
            Ok(nfs)
        }) {
            Ok(r) => r,
            Err(status) => return err(status, enc),
        };
        if let Some(shard) = first_fh {
            let mut hint = self.last_shard.lock();
            if hint.is_none() {
                *hint = Some(shard);
            }
        }
        let reply = self.nfs_relay(creds, &req);
        // Acknowledged commit: a successful mutation is shipped to the
        // replica group's quorum *before* the reply is encoded, so the
        // client's ack implies quorum durability. Failed ops and replays
        // answered from the reply cache never reach this point twice.
        if proc_is_mutating(req.proc()) && !matches!(reply, Nfs3Reply::Error { .. }) {
            let repl = self.server.replicator.lock().clone();
            if let Some(repl) = repl {
                repl.replicate(creds, &req);
            }
        }
        // Translate handles in the reply back to SFS form.
        let reply = map_reply_handles(reply, &mut |fh| self.server.encrypt_handle(fh));
        reply.encode_results_into(enc)
    }

    /// The NFS loopback hop: "the server modifies requests slightly and
    /// tags them with appropriate credentials. Finally, the server acts as
    /// an NFS client, passing the request to an NFS server on the same
    /// machine."
    fn nfs_relay(&self, creds: &Credentials, req: &Nfs3Request) -> Nfs3Reply {
        self.server.nfs.handle(creds, req)
    }
}

impl std::fmt::Debug for ServerConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerConn({})", self.server.config.location)
    }
}

/// A server-side endpoint that can answer read-only dialect messages.
///
/// Both connection kinds serving one `Location:HostID` implement it: the
/// full [`ServerConn`] (a read-write server also exporting the dialect)
/// and the keyless [`RoReplicaConn`]. Clients and routing tiers hold
/// `Box<dyn RoConnection>` so a mount can be handed from one replica to
/// another without caring which kind is behind it.
pub trait RoConnection: Send + Sync {
    /// Processes one wire message, returning the reply bytes.
    fn handle_ro_bytes(&self, bytes: &[u8]) -> Vec<u8>;
}

impl RoConnection for ServerConn {
    fn handle_ro_bytes(&self, bytes: &[u8]) -> Vec<u8> {
        self.handle_bytes(bytes)
    }
}

/// A keyless read-only replica (§2.4): a machine holding nothing but the
/// published distribution bundle — the signed root and the
/// content-addressed blocks. It can prove the file system's contents to
/// any client yet "read-only servers \[are freed\] from the need to keep
/// any on-line copies of their private keys, which in turn allows
/// read-only file systems to be replicated on untrusted machines."
///
/// There is deliberately no [`RabinPrivateKey`] anywhere in this type.
pub struct RoReplicaServer {
    path: SelfCertifyingPath,
    /// The publisher's *public* key, served in hello replies for the
    /// client to certify against the HostID.
    public_key_bytes: Vec<u8>,
    db: Mutex<Arc<RoDatabase>>,
    load: ServerLoad,
    /// Operator switch standing in for a dead machine; a down replica
    /// answers every message with an unavailability error.
    down: AtomicBool,
    tel: Mutex<Telemetry>,
}

impl RoReplicaServer {
    /// Stands up a replica at `location` serving `db`, announcing the
    /// publisher's public key.
    pub fn new(location: &str, public_key: &RabinPublicKey, db: Arc<RoDatabase>) -> Arc<Self> {
        Arc::new(RoReplicaServer {
            path: SelfCertifyingPath::for_server(location, public_key),
            public_key_bytes: public_key.to_bytes(),
            db: Mutex::new(db),
            load: ServerLoad::new(),
            down: AtomicBool::new(false),
            tel: Mutex::new(Telemetry::disabled()),
        })
    }

    /// Stands up a replica from a distribution bundle
    /// ([`RoDatabase::export`]), verifying every block digest on import.
    pub fn from_bundle(
        location: &str,
        public_key: &RabinPublicKey,
        bundle: &[u8],
    ) -> Result<Arc<Self>, RoError> {
        let db = RoDatabase::import(bundle)?;
        Ok(Self::new(location, public_key, Arc::new(db)))
    }

    /// The replica's self-certifying pathname (same HostID as the
    /// publisher — the pathname names a key, not a machine).
    pub fn path(&self) -> &SelfCertifyingPath {
        &self.path
    }

    /// This machine's contention tracker.
    pub fn load(&self) -> ServerLoad {
        self.load.clone()
    }

    /// Installs a newer snapshot (the publisher pushed a fresh bundle).
    pub fn install(&self, db: Arc<RoDatabase>) {
        *self.db.lock() = db;
    }

    /// Takes the replica down (or back up).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// Whether the replica currently refuses service.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Attaches a tracing sink.
    pub fn set_telemetry(&self, tel: &Telemetry) {
        *self.tel.lock() = tel.clone();
    }

    /// Opens a new connection.
    pub fn accept(self: &Arc<Self>) -> RoReplicaConn {
        RoReplicaConn {
            replica: self.clone(),
            hello_done: AtomicBool::new(false),
        }
    }
}

impl std::fmt::Debug for RoReplicaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoReplicaServer")
            .field("path", &self.path.dir_name())
            .field("down", &self.is_down())
            .finish()
    }
}

/// One client connection to a keyless read-only replica. The state
/// machine is two steps — hello, then block service — and involves no
/// cryptography at all on the server side.
pub struct RoReplicaConn {
    replica: Arc<RoReplicaServer>,
    hello_done: AtomicBool,
}

impl RoReplicaConn {
    /// The replica behind this connection.
    pub fn replica(&self) -> &Arc<RoReplicaServer> {
        &self.replica
    }
}

impl RoConnection for RoReplicaConn {
    fn handle_ro_bytes(&self, bytes: &[u8]) -> Vec<u8> {
        let tel = self.replica.tel.lock().clone();
        tel.count("ro-replica", "dispatch.calls", 1);
        if self.replica.is_down() {
            return ReplyMsg::Error("replica unavailable".into()).to_xdr();
        }
        let reply = match CallMsg::from_xdr(bytes) {
            Ok(CallMsg::Hello {
                service, dialect, ..
            }) => {
                if service != Service::File {
                    ReplyMsg::Error("read-only replica serves only the file service".into())
                } else if dialect != Dialect::ReadOnly {
                    // The §2.4 trust split made concrete: this machine
                    // cannot negotiate a read-write session because it
                    // holds no private key to prove with.
                    ReplyMsg::Error("read-only replica holds no private key".into())
                } else {
                    self.hello_done.store(true, Ordering::SeqCst);
                    ReplyMsg::ServerReply(KeyNegServerReply::ServerKey(
                        self.replica.public_key_bytes.clone(),
                    ))
                }
            }
            Ok(CallMsg::RoGetRoot) => {
                if !self.hello_done.load(Ordering::SeqCst) {
                    ReplyMsg::Error("not a read-only connection".into())
                } else {
                    ReplyMsg::RoRoot(self.replica.db.lock().root.clone())
                }
            }
            Ok(CallMsg::RoGetBlock(digest)) => {
                if !self.hello_done.load(Ordering::SeqCst) {
                    ReplyMsg::Error("not a read-only connection".into())
                } else {
                    tel.count("ro-replica", "ro.blocks_served", 1);
                    let db = self.replica.db.lock().clone();
                    match db.fetch_raw(&digest) {
                        Ok(block) => ReplyMsg::RoBlock(block.to_vec()),
                        Err(_) => ReplyMsg::Error("no such block".into()),
                    }
                }
            }
            Ok(_) => ReplyMsg::Error("read-only replica: unsupported message".into()),
            Err(e) => ReplyMsg::Error(format!("unparseable message: {e}")),
        };
        reply.to_xdr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_crypto::srp::SrpGroup;
    use sfs_sim::SimClock;
    use std::sync::OnceLock;

    fn test_key() -> RabinPrivateKey {
        static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = sfs_bignum::XorShiftSource::new(0xF00D);
            sfs_crypto::rabin::generate_keypair(768, &mut rng)
        })
        .clone()
    }

    fn srp_group() -> SrpGroup {
        static G: OnceLock<SrpGroup> = OnceLock::new();
        G.get_or_init(|| {
            let mut rng = sfs_bignum::XorShiftSource::new(0x64);
            SrpGroup::generate(128, &mut rng)
        })
        .clone()
    }

    fn make_server() -> Arc<SfsServer> {
        let clock = SimClock::new();
        let vfs = Vfs::new(42, clock);
        let auth = Arc::new(AuthServer::new(srp_group(), 2));
        SfsServer::new(
            ServerConfig::new("server.example.com"),
            test_key(),
            vfs,
            auth,
            SfsPrg::from_entropy(b"server-test"),
        )
    }

    #[test]
    fn handle_encryption_roundtrip() {
        let s = make_server();
        let nfs_handle = FileHandle(vec![7u8; 16]);
        let sfs_handle = s.encrypt_handle(nfs_handle.clone());
        assert_ne!(sfs_handle.0[..16], nfs_handle.0[..]);
        assert_eq!(sfs_handle.0.len(), 24);
        assert_eq!(s.decrypt_handle(&sfs_handle).unwrap(), nfs_handle);
    }

    #[test]
    fn forged_handle_rejected() {
        let s = make_server();
        // Guessing a handle fails the redundancy check.
        assert_eq!(
            s.decrypt_handle(&FileHandle(vec![1u8; 24])).unwrap_err(),
            Status::BadHandle
        );
        // Truncated handles are rejected outright.
        assert_eq!(
            s.decrypt_handle(&FileHandle(vec![1u8; 16])).unwrap_err(),
            Status::BadHandle
        );
        // Flipping one bit of a valid handle breaks it.
        let mut h = s.encrypt_handle(FileHandle(vec![7u8; 16]));
        h.0[3] ^= 1;
        assert_eq!(s.decrypt_handle(&h).unwrap_err(), Status::BadHandle);
    }

    #[test]
    fn hello_returns_server_key() {
        let s = make_server();
        let conn = s.accept();
        let reply = conn.handle(CallMsg::Hello {
            req: sfs_proto::keyneg::KeyNegRequest {
                location: "server.example.com".into(),
                host_id: s.path().host_id,
            },
            service: Service::File,
            dialect: Dialect::ReadWrite,
            version: 1,
            extensions: String::new(),
        });
        match reply {
            ReplyMsg::ServerReply(KeyNegServerReply::ServerKey(k)) => {
                assert_eq!(k, test_key().public().to_bytes());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn revoked_hello_returns_certificate() {
        let s = make_server();
        let cert = RevocationCert::issue(&test_key(), "server.example.com");
        s.install_revocation(cert.clone());
        let conn = s.accept();
        let reply = conn.handle(CallMsg::Hello {
            req: sfs_proto::keyneg::KeyNegRequest {
                location: "server.example.com".into(),
                host_id: s.path().host_id,
            },
            service: Service::File,
            dialect: Dialect::ReadWrite,
            version: 1,
            extensions: String::new(),
        });
        match reply {
            ReplyMsg::ServerReply(KeyNegServerReply::Revoked(c)) => assert_eq!(c, cert),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sealed_without_channel_rejected() {
        let s = make_server();
        let conn = s.accept();
        let reply = conn.handle(CallMsg::Sealed(vec![0; 64]));
        assert!(matches!(reply, ReplyMsg::Error(_)));
    }

    #[test]
    fn keyneg_out_of_order_rejected() {
        let s = make_server();
        let conn = s.accept();
        let reply = conn.handle(CallMsg::ClientKeys(sfs_proto::keyneg::KeyNegClientKeys {
            client_key: vec![1],
            encrypted_halves: vec![2],
        }));
        assert!(matches!(reply, ReplyMsg::Error(_)));
    }

    #[test]
    fn read_only_requires_dialect() {
        let s = make_server();
        s.publish_read_only(1);
        let conn = s.accept();
        // Without a hello selecting the read-only dialect, blocks are not
        // served.
        assert!(matches!(
            conn.handle(CallMsg::RoGetRoot),
            ReplyMsg::Error(_)
        ));
        let _ = conn.handle(CallMsg::Hello {
            req: sfs_proto::keyneg::KeyNegRequest {
                location: "server.example.com".into(),
                host_id: s.path().host_id,
            },
            service: Service::File,
            dialect: Dialect::ReadOnly,
            version: 1,
            extensions: String::new(),
        });
        match conn.handle(CallMsg::RoGetRoot) {
            ReplyMsg::RoRoot(root) => assert!(root.verify(test_key().public())),
            other => panic!("{other:?}"),
        }
    }
}
