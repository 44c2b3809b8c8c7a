//! A fault-injecting double under quts-db's filesystem seam — the first
//! piece of a modelled directory for crash-consistency tests.
//!
//! [`SimDir`] decorates the production seam (`std::fs`). It counts every
//! write, file sync and directory sync made through it — the WAL's, a
//! snapshot's and the MANIFEST's publish, recovery's repairs — in one
//! 1-based sequence per kind, across every [`Dir`] that shares it, and
//! breaks the calls armed: a write can fail, tear, flip a byte or find
//! the disk full; a file or directory sync can fail. It remembers how
//! much of each file it wrote a file sync covered, so
//! [`SimDir::power_cut`] leaves the directory the way a power loss
//! would, and it can make every file sync slow. The engine takes one
//! through `FaultPlan::disk`; quts-db's own tests pass [`SimDir::dir`]
//! to [`Wal::create`](crate::wal::Wal::create) and the snapshot
//! functions.

use crate::wal::{Dir, Fs};
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The seam the double decorates: `std::fs`, the one a path converts to.
static DISK: LazyLock<Arc<dyn Fs>> = LazyLock::new(|| Dir::from("").fs);

/// What an armed write does instead of landing whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Nothing lands, and the write fails.
    Fail,
    /// Nothing lands: the disk is full (`StorageFull`).
    Enospc,
    /// The first `k` bytes land, then the write fails: a crash mid-write.
    Tear(usize),
    /// Every byte lands, the one at this offset (the last, past the end)
    /// flipped, and the write succeeds: silent media corruption. (No
    /// caller issues an empty write.)
    Corrupt(usize),
}

/// The counted calls, indexing `State::calls`.
const WRITE: usize = 0;
const SYNC_DATA: usize = 1;
const SYNC_DIR: usize = 2;

#[derive(Debug, Default)]
struct State {
    calls: [u64; 3],
    /// Armed calls: the operation, its 1-based index, what a write does.
    armed: Vec<(usize, u64, WriteFault)>,
    /// Each file written or synced through the double, with the length
    /// its last file sync covered.
    synced: HashMap<PathBuf, u64>,
    /// Added to every file sync (see [`SimDir::sync_delay`]).
    sync_delay: Duration,
}

/// The test double. Its clones share one count, so a fault fires once
/// however many writers (and engine restarts) it outlives; it equals
/// only its own clones.
#[derive(Debug, Clone, Default)]
pub struct SimDir(Arc<Mutex<State>>);

impl PartialEq for SimDir {
    fn eq(&self, other: &SimDir) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl SimDir {
    /// Arms `fault` on the `n`-th write.
    pub fn fault_write(self, n: u64, fault: WriteFault) -> SimDir {
        self.arm(WRITE, n, fault)
    }

    /// Fails the `n`-th file sync; the bytes it should cover stay
    /// written but not durable.
    pub fn fail_sync_data(self, n: u64) -> SimDir {
        self.arm(SYNC_DATA, n, WriteFault::Fail)
    }

    /// Fails the `n`-th directory sync.
    pub fn fail_sync_dir(self, n: u64) -> SimDir {
        self.arm(SYNC_DIR, n, WriteFault::Fail)
    }

    /// Makes every file sync take `delay` longer: a slow flush device.
    /// The caller's thread sleeps outside the double's lock, so the CPU
    /// and the other writers sharing the double stay free meanwhile,
    /// as with real flush IO.
    pub fn sync_delay(self, delay: Duration) -> SimDir {
        self.state().sync_delay = delay;
        self
    }

    fn arm(self, op: usize, n: u64, fault: WriteFault) -> SimDir {
        self.state().armed.push((op, n, fault));
        self
    }

    /// `path` as a durability directory written through this double.
    pub fn dir(&self, path: impl Into<PathBuf>) -> Dir {
        let (path, fs) = (path.into(), Arc::new(self.clone()));
        Dir { path, fs }
    }

    /// Cuts the power: every file the double wrote keeps only what its
    /// last file sync covered, nothing if none did (a file since
    /// collected or renamed is skipped). Drop the writers first: a
    /// dropped `Wal` flushes its buffer.
    pub fn power_cut(&self) -> io::Result<()> {
        for (path, &len) in &self.state().synced {
            match DISK.truncate(path, len) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                cut => drop(cut?),
            }
        }
        Ok(())
    }

    fn state(&self) -> MutexGuard<'_, State> {
        // Every update to the state is one step, so a poisoned lock
        // (a test that panicked mid-call) still guards whole data.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one `op`; the fault armed at its index, if any.
    fn call(&self, op: usize) -> Option<WriteFault> {
        let mut s = self.state();
        s.calls[op] += 1;
        let n = s.calls[op];
        s.armed.iter().find(|a| (a.0, a.1) == (op, n)).map(|a| a.2)
    }
}

impl Fs for SimDir {
    fn write(&self, file: &mut File, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.state().synced.entry(path.to_path_buf()).or_default();
        let keep = match self.call(WRITE) {
            None => return DISK.write(file, path, bytes),
            Some(WriteFault::Corrupt(at)) => {
                let mut flipped = bytes.to_vec();
                flipped[at.min(bytes.len() - 1)] ^= 0xFF;
                return DISK.write(file, path, &flipped);
            }
            Some(WriteFault::Enospc) => return Err(io::ErrorKind::StorageFull.into()),
            Some(WriteFault::Fail) => 0,
            Some(WriteFault::Tear(k)) => k.min(bytes.len()),
        };
        DISK.write(file, path, &bytes[..keep])?;
        Err(io::Error::other("injected fault: write failed"))
    }

    fn sync_data(&self, file: &mut File, path: &Path) -> io::Result<()> {
        if self.call(SYNC_DATA).is_some() {
            return Err(io::Error::other("injected fault: sync_data failed"));
        }
        DISK.sync_data(file, path)?;
        let len = file.metadata()?.len();
        let delay = self.state().sync_delay;
        self.state().synced.insert(path.to_path_buf(), len);
        std::thread::sleep(delay);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.call(SYNC_DIR).is_some() {
            return Err(io::Error::other("injected fault: directory sync failed"));
        }
        DISK.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quts-simdir-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Each armed call fails once, at its index; the count is shared by
    /// every clone and every file.
    #[test]
    fn each_fault_fires_once_at_its_call() {
        let dir = tmp_dir("once");
        let sim = SimDir::default()
            .fault_write(2, WriteFault::Fail)
            .fail_sync_data(1)
            .fail_sync_dir(2);
        let (pa, pb) = (dir.join("a"), dir.join("b"));
        let mut a = sim.create(&pa).unwrap();
        let mut b = sim.clone().create(&pb).unwrap();
        sim.write(&mut a, &pa, b"one").unwrap();
        assert!(sim.write(&mut b, &pb, b"two").is_err(), "the second write");
        sim.write(&mut a, &pa, b"three").unwrap();
        assert!(sim.sync_data(&mut b, &pb).is_err(), "the first sync_data");
        sim.sync_data(&mut a, &pa).unwrap();
        sim.sync_dir(&dir).unwrap();
        assert!(sim.sync_dir(&dir).is_err(), "the second directory sync");
        sim.sync_dir(&dir).unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), b"onethree");
        assert_eq!(std::fs::read(&pb).unwrap(), b"");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A full disk and a failed write land nothing, a torn write lands
    /// its prefix, a corrupt one lands with one byte flipped.
    #[test]
    fn write_faults_leave_their_shape_on_disk() {
        let dir = tmp_dir("shapes");
        let sim = SimDir::default()
            .fault_write(1, WriteFault::Enospc)
            .fault_write(2, WriteFault::Fail)
            .fault_write(3, WriteFault::Tear(2))
            .fault_write(4, WriteFault::Corrupt(1))
            .fault_write(5, WriteFault::Corrupt(usize::MAX));
        let path = dir.join("f");
        let mut f = sim.create(&path).unwrap();
        let full = sim.write(&mut f, &path, b"abc").unwrap_err();
        assert_eq!(full.kind(), io::ErrorKind::StorageFull);
        assert!(sim.write(&mut f, &path, b"abc").is_err());
        assert!(sim.write(&mut f, &path, b"abc").is_err());
        sim.write(&mut f, &path, b"abc").unwrap();
        sim.write(&mut f, &path, b"abc").unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [b'a', b'b', b'a', b'b' ^ 0xFF, b'c', b'a', b'b', b'c' ^ 0xFF]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sync delay sleeps outside the double's lock: four writers'
    /// delayed syncs overlap instead of queueing behind each other.
    #[test]
    fn a_sync_delay_does_not_serialise_the_writers() {
        let dir = tmp_dir("delay");
        let sim = SimDir::default().sync_delay(std::time::Duration::from_millis(150));
        let started = std::time::Instant::now();
        std::thread::scope(|scope| {
            for k in 0..4 {
                let (sim, path) = (sim.clone(), dir.join(format!("f{k}")));
                scope.spawn(move || {
                    let mut file = sim.create(&path).unwrap();
                    sim.sync_data(&mut file, &path).unwrap();
                });
            }
        });
        let took = started.elapsed();
        assert!(took >= std::time::Duration::from_millis(150), "{took:?}");
        assert!(took < std::time::Duration::from_millis(450), "{took:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A power cut keeps what each file's last `sync_data` covered.
    #[test]
    fn a_power_cut_keeps_what_sync_data_covered() {
        let dir = tmp_dir("power");
        let sim = SimDir::default().fail_sync_data(2);
        let (ps, pn) = (dir.join("synced"), dir.join("never"));
        let mut synced = sim.create(&ps).unwrap();
        let mut never = sim.create(&pn).unwrap();
        sim.write(&mut synced, &ps, b"kept").unwrap();
        sim.sync_data(&mut synced, &ps).unwrap();
        sim.write(&mut synced, &ps, b"lost").unwrap();
        assert!(sim.sync_data(&mut synced, &ps).is_err());
        sim.write(&mut never, &pn, b"lost").unwrap();
        sim.power_cut().unwrap();
        assert_eq!(std::fs::read(&ps).unwrap(), b"kept");
        assert_eq!(std::fs::read(&pn).unwrap(), b"");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
