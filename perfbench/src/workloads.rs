//! The three workloads. Each owns a [`World`], generates its op stream
//! from the seed, and checks every output against its own generator.
//!
//! | workload      | clients | dominant path                          | bypasses                      |
//! |---------------|---------|----------------------------------------|-------------------------------|
//! | `seq_read`    | 1       | per byte: AEAD seal/open of 8 KiB      | handshakes, sync disk writes, |
//! |               |         | frames, payload copies, read-ahead     | metadata ops                  |
//! | `small_ops`   | 2       | per RPC: client stack, server dispatch,| handshakes, large transfers   |
//! |               |         | XDR, NFS3, VFS metadata, disk syncs    |                               |
//! | `mount_churn` | 8       | public key: bignum, Rabin, key         | bulk crypto, disk             |
//! |               |         | negotiation, user authentication       |                               |
//!
//! A change to one layer is meant to move the workload that stresses it
//! and leave the one that bypasses it flat: a `modpow` gain must show on
//! `mount_churn` and not on `seq_read`; a channel gain the other way
//! round.

use sfs_bench::kernel::{BenchFsError, FsBench};

use crate::trace::{Clock, Probe};
use crate::world::{self, World};

/// Lease the server grants (the `ServerConfig` default): how long a
/// client may keep serving an attribute or page it cached.
const LEASE_NS: u64 = 30_000_000_000;

pub trait Workload {
    /// The system under test.
    fn world(&self) -> &World;
    /// Ops run before timing starts, so caches and read-ahead reach the
    /// state the timed phase keeps them in.
    fn warmup_ops(&self) -> u64;
    /// Runs the next op of the seeded stream, wrapping each call into
    /// the system in `clock.sys`. Returns the application payload bytes
    /// the op moved, or what was wrong with its output.
    fn op(&mut self, clock: &mut Clock) -> Result<u64, String>;
}

pub const NAMES: [&str; 3] = ["seq_read", "small_ops", "mount_churn"];

/// Builds workload `name` from `seed`; `None` for an unknown name.
pub fn setup(name: &str, seed: u64, probe: Option<&Probe>) -> Option<Box<dyn Workload>> {
    Some(match name {
        "seq_read" => Box::new(SeqRead::new(seed, probe)),
        "small_ops" => Box::new(SmallOps::new(seed, probe)),
        "mount_churn" => Box::new(MountChurn::new(seed, probe)),
        _ => return None,
    })
}

/// splitmix64: the content and op-stream generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills `out` (a multiple of 8 bytes) with stream `stream` of `seed`,
/// starting at word `first_word`.
fn fill(seed: u64, stream: u64, first_word: u64, out: &mut [u8]) {
    let base = mix(seed ^ mix(stream));
    for (i, w) in out.chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&mix(base ^ (first_word + i as u64)).to_le_bytes());
    }
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = mix(self.0);
        self.0 % n
    }
}

fn fs_err(what: &str, path: &str, e: BenchFsError) -> String {
    format!("{what} {path}: {e}")
}

// ------------------------------------------------------------ seq_read

/// Size of the file `seq_read` streams: 256 read-ahead windows of 8
/// READs, and small enough to stay cheap to set up.
const SEQ_FILE_BYTES: usize = 16 << 20;
/// Application read size.
const SEQ_READ_BYTES: usize = 8192;

/// One client, default pipeline window (8), reading one large file
/// front to back in 8 KiB reads, pass after pass. Each pass starts with
/// `drop_caches`, so every byte crosses the wire under the session's
/// AEAD suite; the client's read-ahead keeps a window of READs in
/// flight. The file is written on the server in set-up, so the timed
/// phase has no handshake and no synchronous disk write.
struct SeqRead {
    world: World,
    expect: Vec<u8>,
    off: usize,
}

impl SeqRead {
    fn new(seed: u64, probe: Option<&Probe>) -> SeqRead {
        let world = world::build(1, probe);
        let mut expect = vec![0u8; SEQ_FILE_BYTES];
        fill(seed, 1, 0, &mut expect);
        world
            .vfs
            .write_file(&World::user_creds(), world.bench_dir, "big", &expect)
            .expect("set-up writes the big file");
        SeqRead {
            world,
            expect,
            off: 0,
        }
    }
}

impl Workload for SeqRead {
    fn world(&self) -> &World {
        &self.world
    }

    fn warmup_ops(&self) -> u64 {
        (SEQ_FILE_BYTES / SEQ_READ_BYTES) as u64
    }

    fn op(&mut self, clock: &mut Clock) -> Result<u64, String> {
        let fs = &self.world.fs[0];
        let off = self.off;
        self.off = (off + SEQ_READ_BYTES) % SEQ_FILE_BYTES;
        let data = clock.sys(|| {
            if off == 0 {
                fs.drop_caches();
            }
            fs.read("big", off as u64, SEQ_READ_BYTES)
        });
        let data = data.map_err(|e| fs_err("read", "big", e))?;
        if data[..] != self.expect[off..off + SEQ_READ_BYTES] {
            return Err(format!(
                "read big@{off}: {} bytes differ from the generator",
                data.len()
            ));
        }
        Ok(data.len() as u64)
    }
}

// ----------------------------------------------------------- small_ops

const SMALL_DIRS: u64 = 8;
const SMALL_FILES: u64 = 256;
const SMALL_BYTES: usize = 4096;

/// The committed versions of one small file, oldest first, as
/// `(virtual commit ns, version)`.
struct SmallFile {
    path: String,
    history: Vec<(u64, u64)>,
}

/// Two clients share one server and one clock and run a seeded mix over
/// 256 4 KiB files in 8 directories: stat 25%, open + 4 KiB read 30%,
/// 4 KiB overwrite + fsync 25%, create + write + fsync + unlink 10%, and
/// a denied `chown` 10% (the paper's §4.2 pure round trip). Writes from
/// one client break the other's leases, so a read-side gain that costs
/// writers shows here.
struct SmallOps {
    world: World,
    seed: u64,
    rng: Rng,
    files: Vec<SmallFile>,
    /// Newest version each client has seen of each file.
    seen: [Vec<u64>; 2],
    temps: u64,
    scratch: Vec<u8>,
}

/// Content of version `v` of small file `f`: its first two words name
/// the file and version, the rest comes from the generator.
fn small_content(seed: u64, f: u64, v: u64, out: &mut [u8]) {
    fill(seed, 2 + (f << 32) + v, 2, &mut out[16..]);
    out[..8].copy_from_slice(&f.to_le_bytes());
    out[8..16].copy_from_slice(&v.to_le_bytes());
}

impl SmallOps {
    fn new(seed: u64, probe: Option<&Probe>) -> SmallOps {
        let world = world::build(2, probe);
        let creds = World::user_creds();
        let dirs: Vec<_> = (0..SMALL_DIRS)
            .map(|d| {
                world
                    .vfs
                    .mkdir(&creds, world.bench_dir, &format!("d{d}"), 0o777)
                    .expect("set-up makes the directories")
                    .0
            })
            .collect();
        let mut buf = vec![0u8; SMALL_BYTES];
        let files = (0..SMALL_FILES)
            .map(|f| {
                small_content(seed, f, 0, &mut buf);
                let d = f % SMALL_DIRS;
                world
                    .vfs
                    .write_file(&creds, dirs[d as usize], &format!("f{f}"), &buf)
                    .expect("set-up writes the small files");
                SmallFile {
                    path: format!("d{d}/f{f}"),
                    history: vec![(0, 0)],
                }
            })
            .collect();
        SmallOps {
            world,
            seed,
            rng: Rng(seed ^ 0x5_0A11),
            files,
            seen: [vec![0; SMALL_FILES as usize], vec![0; SMALL_FILES as usize]],
            temps: 0,
            scratch: buf,
        }
    }

    /// Checks that client `c` may observe version `v` of file `f` now:
    /// a version the file had, no older than one `c` already saw, and
    /// stale only while a lease taken before its successor's commit can
    /// still be live.
    fn check_version(&mut self, c: usize, f: usize, v: u64) -> Result<(), String> {
        let now = self.world.clock.now().as_nanos();
        let file = &mut self.files[f];
        // Versions superseded longer than a lease ago can never be read.
        while file.history.len() > 1 && file.history[1].0 + LEASE_NS <= now {
            file.history.remove(0);
        }
        if !file.history.iter().any(|&(_, hv)| hv == v) {
            return Err(format!(
                "{}: client {c} read version {v}; legal now are {:?}",
                file.path, file.history
            ));
        }
        if v < self.seen[c][f] {
            return Err(format!(
                "{}: client {c} read version {v} after seeing {}",
                file.path, self.seen[c][f]
            ));
        }
        self.seen[c][f] = v;
        Ok(())
    }
}

impl Workload for SmallOps {
    fn world(&self) -> &World {
        &self.world
    }

    fn warmup_ops(&self) -> u64 {
        2 * SMALL_FILES
    }

    fn op(&mut self, clock: &mut Clock) -> Result<u64, String> {
        let c = self.rng.below(2) as usize;
        let pick = self.rng.below(100);
        let f = self.rng.below(SMALL_FILES) as usize;
        let fs = &self.world.fs[c];
        let path = self.files[f].path.clone();
        match pick {
            0..=24 => {
                let size = clock
                    .sys(|| fs.stat(&path))
                    .map_err(|e| fs_err("stat", &path, e))?;
                if size != SMALL_BYTES as u64 {
                    return Err(format!("stat {path}: size {size}, committed {SMALL_BYTES}"));
                }
                Ok(0)
            }
            25..=54 => {
                let (size, data) = clock
                    .sys(|| {
                        let size = fs.open(&path)?;
                        Ok((size, fs.read(&path, 0, SMALL_BYTES)?))
                    })
                    .map_err(|e| fs_err("open+read", &path, e))?;
                if size != SMALL_BYTES as u64 || data.len() != SMALL_BYTES {
                    return Err(format!(
                        "open+read {path}: size {size}, read {} bytes, committed {SMALL_BYTES}",
                        data.len()
                    ));
                }
                let word =
                    |i: usize| u64::from_le_bytes(data[8 * i..8 * i + 8].try_into().unwrap());
                let (df, v) = (word(0), word(1));
                if df != f as u64 {
                    return Err(format!("read {path}: holds file {df}'s content"));
                }
                self.check_version(c, f, v)?;
                small_content(self.seed, f as u64, v, &mut self.scratch);
                if data != self.scratch {
                    return Err(format!(
                        "read {path}: version {v} differs from the generator"
                    ));
                }
                Ok(SMALL_BYTES as u64)
            }
            55..=79 => {
                let v = self.files[f].history.last().expect("never empty").1 + 1;
                small_content(self.seed, f as u64, v, &mut self.scratch);
                let data = &self.scratch;
                clock
                    .sys(|| {
                        fs.write(&path, 0, data)?;
                        fs.flush(&path)
                    })
                    .map_err(|e| fs_err("overwrite+fsync", &path, e))?;
                let now = self.world.clock.now().as_nanos();
                self.files[f].history.push((now, v));
                self.seen[c][f] = v;
                Ok(SMALL_BYTES as u64)
            }
            80..=89 => {
                self.temps += 1;
                let tmp = format!("d{}/t{c}-{}", f as u64 % SMALL_DIRS, self.temps);
                small_content(self.seed, SMALL_FILES + self.temps, 0, &mut self.scratch);
                let data = &self.scratch;
                clock
                    .sys(|| {
                        fs.create(&tmp)?;
                        fs.write(&tmp, 0, data)?;
                        fs.flush(&tmp)?;
                        fs.unlink(&tmp)
                    })
                    .map_err(|e| fs_err("create+write+fsync+unlink", &tmp, e))?;
                Ok(SMALL_BYTES as u64)
            }
            _ => {
                clock
                    .sys(|| fs.chown_fail(&path))
                    .map_err(|e| fs_err("chown (must be denied)", &path, e))?;
                Ok(0)
            }
        }
    }
}

// --------------------------------------------------------- mount_churn

const CHURN_CLIENTS: u64 = 8;
const PROBE_BYTES: usize = 2048;

/// Eight clients whose ephemeral keys are made in set-up. Each op picks
/// a client, drops all its mounts and caches, mounts again and reads a
/// probe file. A fresh mount never presents a resumption ticket, so
/// every op is a full Figure-3 key negotiation plus user
/// authentication.
struct MountChurn {
    world: World,
    rng: Rng,
    probe: Vec<u8>,
}

impl MountChurn {
    fn new(seed: u64, probe: Option<&Probe>) -> MountChurn {
        let world = world::build(CHURN_CLIENTS as usize, probe);
        let mut content = vec![0u8; PROBE_BYTES];
        fill(seed, 3, 0, &mut content);
        world
            .vfs
            .write_file(&World::user_creds(), world.bench_dir, "probe", &content)
            .expect("set-up writes the probe file");
        MountChurn {
            world,
            rng: Rng(seed ^ 0xC4_0124),
            probe: content,
        }
    }
}

impl Workload for MountChurn {
    fn world(&self) -> &World {
        &self.world
    }

    fn warmup_ops(&self) -> u64 {
        CHURN_CLIENTS
    }

    fn op(&mut self, clock: &mut Clock) -> Result<u64, String> {
        let c = self.rng.below(CHURN_CLIENTS) as usize;
        let (client, fs) = (&self.world.clients[c], &self.world.fs[c]);
        let data = clock
            .sys(|| {
                client.unmount_all();
                fs.drop_caches();
                fs.read("probe", 0, PROBE_BYTES)
            })
            .map_err(|e| fs_err("remount+read", "probe", e))?;
        if data != self.probe {
            return Err(format!("client {c}: probe read differs from the generator"));
        }
        Ok(data.len() as u64)
    }
}
