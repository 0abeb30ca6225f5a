//! The system under test: one SFS server and `n` SFS clients on one
//! simulated clock.
//!
//! Every key is generated here on every set-up: the server's 768-bit
//! Rabin key, the `bench` user's 512-bit key, the authserver's SRP group
//! and each client's 768-bit ephemeral key. So set-up time carries the
//! key generation a real deployment pays, and a later change that caches
//! keys across set-ups shows up in `setup_s`. The keys come from fixed
//! seeds, not the run's: the length of a prime search depends on its
//! seed, and set-up time should not swing with the workload seed, which
//! only drives the workloads' inputs.

use std::sync::Arc;

use sfs::authserver::{AuthServer, UserRecord};
use sfs::client::{SfsClient, SfsNetwork, EPHEMERAL_KEY_BITS};
use sfs::server::{ServerConfig, SfsServer};
use sfs_bench::calib::{bench_disk_params, BENCH_UID};
use sfs_bench::kernel::SfsBench;
use sfs_bench::scenario::scenario_suite;
use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::{generate_keypair, RabinPrivateKey};
use sfs_crypto::srp::SrpGroup;
use sfs_crypto::SfsPrg;
use sfs_sim::{CpuCosts, NetParams, SimClock, SimDisk, Transport};
use sfs_vfs::{Credentials, Ino, SetAttr, Vfs};

use crate::trace::Probe;

/// Group id of the `bench` user.
const BENCH_GID: u32 = 100;

/// One built system: the server's exported file system is reachable
/// both through the clients (the measured path) and directly through
/// `vfs` (how set-up writes its inputs without touching the clients).
pub struct World {
    pub clock: SimClock,
    pub vfs: Vfs,
    /// `/bench` on the server, world-writable and owned by `bench`.
    pub bench_dir: Ino,
    pub clients: Vec<Arc<SfsClient>>,
    /// One kernel stack per client, rooted at the server's `/bench`.
    pub fs: Vec<SfsBench>,
    pub server_key: RabinPrivateKey,
    pub user_key: RabinPrivateKey,
}

fn client_entropy(c: usize) -> Vec<u8> {
    format!("perfbench-client-{c}").into_bytes()
}

/// Builds the world. A `probe`'s telemetry sink and packet interceptor
/// are attached before any connection is dialed, so they see every
/// layer and every packet.
pub fn build(clients: usize, probe: Option<&Probe>) -> World {
    let clock = SimClock::new();
    let server_key = generate_keypair(768, &mut XorShiftSource::new(0x5E_5E4E));
    let user_key = generate_keypair(512, &mut XorShiftSource::new(0x05E_4001));
    let group = SrpGroup::generate(128, &mut XorShiftSource::new(0x5209));

    let disk = SimDisk::new(clock.clone(), bench_disk_params());
    let vfs = Vfs::new(7, clock.clone()).with_disk(disk.clone());
    let bench_dir = vfs.mkdir_p("/bench").expect("fresh vfs takes /bench");
    vfs.setattr(
        &Credentials::root(),
        bench_dir,
        SetAttr {
            mode: Some(0o777),
            uid: Some(BENCH_UID),
            gid: Some(BENCH_GID),
            ..Default::default()
        },
    )
    .expect("root may chown /bench");

    let auth = Arc::new(AuthServer::new(group, 2));
    auth.register_user(UserRecord {
        user: "bench".into(),
        uid: BENCH_UID,
        gids: vec![BENCH_GID],
        public_key: user_key.public().to_bytes(),
    });
    let server = SfsServer::new(
        ServerConfig::new("perfbench.server"),
        server_key.clone(),
        vfs.clone(),
        auth,
        SfsPrg::from_entropy(b"perfbench-server"),
    );
    let net = SfsNetwork::new(clock.clone(), NetParams::switched_100mbit(Transport::Tcp));
    net.register(server.clone());
    let tel = probe.and_then(|p| p.tel.as_ref());
    if let Some(tel) = tel {
        disk.set_telemetry(tel);
        server.set_telemetry(tel);
    }
    if let Some(tracer) = probe.and_then(|p| p.tracer.clone()) {
        net.set_interceptor(tracer);
    }

    let prefix = format!("{}/bench", server.path().full_path());
    let mut cls = Vec::with_capacity(clients);
    let mut fs = Vec::with_capacity(clients);
    for c in 0..clients {
        let client =
            SfsClient::with_costs(net.clone(), &client_entropy(c), CpuCosts::pentium_iii_550());
        client.set_suite_offer(&[scenario_suite()]);
        client.agent(BENCH_UID).lock().add_key(user_key.clone());
        if let Some(tel) = tel {
            client.set_telemetry(tel);
        }
        fs.push(SfsBench::new("SFS", client.clone(), BENCH_UID, &prefix));
        cls.push(client);
    }
    World {
        clock,
        vfs,
        bench_dir,
        clients: cls,
        fs,
        server_key,
        user_key,
    }
}

impl World {
    /// Credentials of the `bench` user, for set-up writes on the server.
    pub fn user_creds() -> Credentials {
        Credentials::user(BENCH_UID, BENCH_GID)
    }

    /// Every client's ephemeral key, regenerated from the same entropy
    /// the client drew it from (the client keeps its copy private).
    pub fn client_ephemerals(&self) -> Vec<RabinPrivateKey> {
        (0..self.clients.len())
            .map(|c| {
                generate_keypair(
                    EPHEMERAL_KEY_BITS,
                    &mut SfsPrg::from_entropy(&client_entropy(c)),
                )
            })
            .collect()
    }

    /// The world's telemetry-free counters that tracing must not move:
    /// virtual time so far plus every client's wire RPCs.
    pub fn fingerprint(&self) -> (u64, u64) {
        let rpcs = self.clients.iter().map(|c| c.network_rpcs()).sum();
        (self.clock.now().as_nanos(), rpcs)
    }
}
