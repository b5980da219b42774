//! Deterministic failpoints: named injection sites the robustness tests
//! arm to make rare failures (I/O errors, torn frames, stalled syscalls,
//! panicking workers, failed commits) happen on demand, reproducibly.
//!
//! The registry is process-global and **disarmed by default**: every
//! site check is one relaxed atomic load and a branch, so production
//! and benchmark paths pay nothing measurable. A chaos test calls
//! [`arm`] with a seed, [`set`]s per-site probabilities and actions,
//! drives traffic, and [`disarm`]s — the seeded generator makes every
//! injection sequence replayable from the seed alone.
//!
//! Sites are compiled into the serving stack at its failure seams:
//!
//! | site                     | where it fires                              |
//! |--------------------------|---------------------------------------------|
//! | [`Site::IoRead`]         | TCP frame receive (`ive_serve::tcp`)         |
//! | [`Site::IoWrite`]        | TCP frame send (supports torn frames)        |
//! | [`Site::Fsync`]          | journal `append` durability sync             |
//! | [`Site::WorkerCompute`]  | batch worker compute (panic isolation)       |
//! | [`Site::EpochCommit`]    | engine epoch commit                          |
//!
//! Because the registry is global, tests that arm it must run in their
//! own process (a dedicated integration-test binary) or serialize on a
//! lock; arming it while unrelated tests exercise the same sites makes
//! their failures look spurious.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A named injection site in the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// Transport-level frame receive.
    IoRead = 0,
    /// Transport-level frame send (the only site supporting
    /// [`Action::Tear`]).
    IoWrite = 1,
    /// Journal durability sync (`fsync`/`sync_data`).
    Fsync = 2,
    /// Batch worker compute (injected as a panic, to exercise
    /// `catch_unwind` isolation).
    WorkerCompute = 3,
    /// Database epoch commit.
    EpochCommit = 4,
}

/// Number of sites (array sizing).
const SITES: usize = 5;

impl Site {
    /// Every site, in discriminant order.
    pub const ALL: [Site; SITES] =
        [Site::IoRead, Site::IoWrite, Site::Fsync, Site::WorkerCompute, Site::EpochCommit];

    /// The site's stable config/report name.
    pub fn name(self) -> &'static str {
        match self {
            Site::IoRead => "io_read",
            Site::IoWrite => "io_write",
            Site::Fsync => "fsync",
            Site::WorkerCompute => "worker_compute",
            Site::EpochCommit => "epoch_commit",
        }
    }
}

/// What an armed site does when its probability fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with an injected error (at
    /// [`Site::WorkerCompute`], a panic).
    Error,
    /// Stall the operation for the given duration, then let it proceed.
    Delay(Duration),
    /// Write a torn frame — a length prefix promising more bytes than
    /// follow — then fail. Only meaningful at [`Site::IoWrite`]; other
    /// sites treat it as [`Action::Error`].
    Tear,
}

#[derive(Debug, Clone, Copy)]
struct SiteConfig {
    /// Injection probability in parts per million of each check.
    prob_ppm: u32,
    action: Action,
}

struct Registry {
    /// SplitMix64 state; every probability draw advances it.
    rng: u64,
    sites: [Option<SiteConfig>; SITES],
}

/// Fast-path gate: checked before the registry lock is ever touched.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry { rng: 0, sites: [None; SITES] });
/// Per-site injection counters (kept outside the lock so reporting is
/// cheap and monotone even across re-arms within one process).
static INJECTED: [AtomicU64; SITES] = [const { AtomicU64::new(0) }; SITES];

/// One SplitMix64 step: the standard 64-bit mixer — tiny, seedable, and
/// good enough for fault scheduling (this is not cryptographic).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Arms the registry: clears every site config, seeds the injection
/// sequence, and opens the fast-path gate. Call [`set`] afterwards to
/// give sites a probability — an armed registry with no configured site
/// injects nothing.
pub fn arm(seed: u64) {
    let mut reg = REGISTRY.lock().expect("fault registry poisoned");
    reg.rng = seed;
    reg.sites = [None; SITES];
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the registry: closes the fast-path gate and clears configs.
/// Counters are preserved (they report what an armed run injected).
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    let mut reg = REGISTRY.lock().expect("fault registry poisoned");
    reg.sites = [None; SITES];
}

/// Configures one site: inject `action` with the given probability
/// (clamped to `[0, 1]`) at every check. Takes effect immediately.
pub fn set(site: Site, probability: f64, action: Action) {
    let prob_ppm = (probability.clamp(0.0, 1.0) * 1_000_000.0).round() as u32;
    let mut reg = REGISTRY.lock().expect("fault registry poisoned");
    reg.sites[site as usize] = Some(SiteConfig { prob_ppm, action });
}

/// Removes one site's config (the site stops injecting; others keep).
pub fn clear(site: Site) {
    let mut reg = REGISTRY.lock().expect("fault registry poisoned");
    reg.sites[site as usize] = None;
}

/// The per-site check every instrumented seam calls: draws against the
/// site's probability and returns the action to perform, if any.
/// Disarmed (the default), this is one relaxed load and a branch.
#[inline]
pub fn inject(site: Site) -> Option<Action> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    inject_slow(site)
}

#[cold]
fn inject_slow(site: Site) -> Option<Action> {
    let mut reg = REGISTRY.lock().expect("fault registry poisoned");
    let cfg = reg.sites[site as usize]?;
    let draw = (splitmix64(&mut reg.rng) % 1_000_000) as u32;
    if draw < cfg.prob_ppm {
        INJECTED[site as usize].fetch_add(1, Ordering::Relaxed);
        Some(cfg.action)
    } else {
        None
    }
}

/// I/O-shaped site check: sleeps out a [`Action::Delay`], converts
/// [`Action::Error`]/[`Action::Tear`] into an injected
/// [`std::io::Error`] the caller propagates like any real I/O failure.
///
/// # Errors
/// Returns the injected error when the site fires with a failing action.
pub fn fail_io(site: Site) -> std::io::Result<()> {
    match inject(site) {
        None => Ok(()),
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(Action::Error) | Some(Action::Tear) => {
            Err(std::io::Error::other(format!("injected {} fault", site.name())))
        }
    }
}

/// Compute-shaped site check: sleeps out a delay, **panics** on a
/// failing action — the shape worker panic isolation must contain.
pub fn maybe_panic(site: Site) {
    match inject(site) {
        None => {}
        Some(Action::Delay(d)) => std::thread::sleep(d),
        Some(Action::Error) | Some(Action::Tear) => {
            panic!("injected {} panic", site.name())
        }
    }
}

/// How many times `site` has injected since process start (monotone
/// across arm/disarm cycles).
pub fn injected(site: Site) -> u64 {
    INJECTED[site as usize].load(Ordering::Relaxed)
}

/// Total injections across all sites since process start.
pub fn injected_total() -> u64 {
    Site::ALL.iter().map(|&s| injected(s)).sum()
}

#[cfg(test)]
mod tests {
    // These tests arm the process-global registry, so they must only
    // exercise sites no other test in this binary checks concurrently:
    // within `ive_pir`, only `Site::Fsync` is live (journal tests), so
    // everything here sticks to IoRead / WorkerCompute / EpochCommit.
    // Among themselves they serialize on `TEST_LOCK`: the harness runs
    // them on parallel threads, and one test's `disarm()` must not land
    // between another's `arm()` and its draws.
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Holds the registry for one test. A poisoned lock is taken anyway
    /// (the guarded state is `()`), so one failing test does not fail
    /// the other three.
    fn registry() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disarmed_registry_injects_nothing() {
        let _registry = registry();
        disarm();
        assert!(!ARMED.load(Ordering::Relaxed));
        for _ in 0..1000 {
            assert!(inject(Site::IoRead).is_none());
        }
        assert!(fail_io(Site::EpochCommit).is_ok());
    }

    #[test]
    fn seeded_injection_sequence_is_reproducible_and_probability_scales() {
        let _registry = registry();
        let run = |seed: u64, prob: f64| {
            arm(seed);
            set(Site::IoRead, prob, Action::Error);
            let hits: Vec<bool> = (0..2000).map(|_| inject(Site::IoRead).is_some()).collect();
            disarm();
            hits
        };
        let a = run(42, 0.25);
        let b = run(42, 0.25);
        assert_eq!(a, b, "same seed must inject at the same draws");
        let hits = a.iter().filter(|&&h| h).count();
        assert!((300..700).contains(&hits), "p=0.25 over 2000 draws hit {hits} times");
        let c = run(43, 0.25);
        assert_ne!(a, c, "different seeds must explore different schedules");
        let always = run(7, 1.0);
        assert!(always.iter().all(|&h| h), "p=1 must always fire");
        let never = run(7, 0.0);
        assert!(never.iter().all(|&h| !h), "p=0 must never fire");
    }

    #[test]
    fn actions_map_to_their_io_and_panic_shapes() {
        let _registry = registry();
        arm(1);
        set(Site::IoRead, 1.0, Action::Error);
        let err = fail_io(Site::IoRead).expect_err("must inject");
        assert!(err.to_string().contains("injected io_read fault"), "{err}");
        set(Site::IoRead, 1.0, Action::Delay(Duration::from_millis(1)));
        let t = std::time::Instant::now();
        fail_io(Site::IoRead).expect("delay lets the op proceed");
        assert!(t.elapsed() >= Duration::from_millis(1));
        set(Site::WorkerCompute, 1.0, Action::Error);
        let panicked = std::panic::catch_unwind(|| maybe_panic(Site::WorkerCompute));
        assert!(panicked.is_err(), "Error at a compute site must panic");
        disarm();
        // Counters survive disarm and saw each injection above.
        assert!(injected(Site::IoRead) >= 2);
        assert!(injected(Site::WorkerCompute) >= 1);
        assert!(injected_total() >= 3);
    }

    #[test]
    fn site_names_are_stable() {
        let names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["io_read", "io_write", "fsync", "worker_compute", "epoch_commit"]);
    }
}
