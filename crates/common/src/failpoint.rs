//! Deterministic fault injection: named failpoints threaded through the
//! runtime's fracture surfaces.
//!
//! A failpoint is a named site in the code (`"upstream/write"`,
//! `"engine/execute"`, …) where a fault can be injected on demand: an
//! error return, a delay, a partial I/O cap, or a panic. Faults fire with
//! a configured probability drawn from a seeded [`SplitMix64`], so a chaos
//! run is reproducible bit-for-bit given the same seed.
//!
//! The design constraint is the disabled cost: production binaries ship
//! with every failpoint compiled in, so an unconfigured site must cost one
//! relaxed atomic load and a predictable branch — nothing else. Only when
//! at least one point is configured does [`check_failpoint`] take the registry lock.
//!
//! Configuration is programmatic ([`configure_failpoint`]) or environmental:
//!
//! ```text
//! DANDELION_FAILPOINTS="upstream/write=error%0.05,engine/execute=panic%0.01"
//! DANDELION_FAILPOINT_SEED=42
//! ```
//!
//! Actions: `error`, `panic`, `delay:<ms>`, `partial:<bytes>`, `off`. The
//! `%p` suffix is the trigger probability (default `1`; values above `1`
//! are read as percentages, so `%5` means 5%). Every point keeps hit and
//! evaluation counters, surfaced by [`failpoint_stats_json`] under `failpoints` in
//! `/v1/stats`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

use crate::json::JsonValue;
use crate::rng::{fnv1a, SplitMix64};

/// What a configured failpoint does when it triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The site reports an injected failure (an `Err` return, a doomed
    /// connection — whatever "failed" means locally).
    Error,
    /// The site panics, exercising `catch_unwind` supervision and thread
    /// teardown paths.
    Panic,
    /// The calling thread sleeps before proceeding normally.
    Delay(Duration),
    /// The site caps the I/O it performs to this many bytes (sites that
    /// cannot honor a cap treat this as a no-op).
    Partial(usize),
}

/// The fault a triggered failpoint hands back to its site. `Delay` and
/// `Panic` never reach the caller — [`check_failpoint`] sleeps or panics itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation.
    Error,
    /// Cap the operation to this many bytes.
    Partial(usize),
}

/// One configured point: its action, trigger probability, deterministic
/// per-point RNG and counters.
struct Point {
    action: FailAction,
    probability: f64,
    rng: SplitMix64,
    evals: u64,
    hits: u64,
}

/// Number of configured points; `0` keeps [`check_failpoint`] to one relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
/// Base seed; each point derives its own stream as `seed ^ fnv1a(name)`.
static SEED: AtomicU64 = AtomicU64::new(0x5EED_DA4D_E110_4EAF);
static REGISTRY: OnceLock<Mutex<HashMap<String, Point>>> = OnceLock::new();
static ENV_INIT: Once = Once::new();

fn registry() -> &'static Mutex<HashMap<String, Point>> {
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Whether any failpoint is configured at all. This is the entire cost of
/// a disabled failpoint on the hot path.
#[inline]
pub fn failpoints_enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Evaluates the failpoint `name`: draws its probability, bumps its
/// counters, and returns the fault the site must apply, if any. `Delay`
/// sleeps here (off-lock) and returns `None`; `Panic` panics here.
///
/// Sites guard the call with [`failpoints_enabled`] (the
/// [`fail_point!`](crate::fail_point) macro does) so the unconfigured cost
/// stays one relaxed load.
pub fn check_failpoint(name: &str) -> Option<Fault> {
    if !failpoints_enabled() {
        return None;
    }
    let triggered = {
        let mut points = registry().lock().expect("failpoint registry poisoned");
        let point = points.get_mut(name)?;
        point.evals += 1;
        if !point.rng.bernoulli(point.probability) {
            return None;
        }
        point.hits += 1;
        point.action
    };
    // The registry lock is dropped: a delay must not serialize every other
    // failpoint in the process, and a panic must not poison the registry.
    match triggered {
        FailAction::Error => Some(Fault::Error),
        FailAction::Partial(bytes) => Some(Fault::Partial(bytes)),
        FailAction::Delay(pause) => {
            std::thread::sleep(pause);
            None
        }
        FailAction::Panic => panic!("failpoint {name} injected panic"),
    }
}

/// The `std::io::Error` an injected I/O fault surfaces as.
pub fn failpoint_io_error(name: &str) -> std::io::Error {
    std::io::Error::other(format!("failpoint {name} injected error"))
}

/// Configures (or reconfigures) the failpoint `name`. `probability` is
/// clamped to `[0, 1]`. The point's RNG restarts from its deterministic
/// per-name stream, so reconfiguring mid-test stays reproducible.
pub fn configure_failpoint(name: &str, action: FailAction, probability: f64) {
    let mut points = registry().lock().expect("failpoint registry poisoned");
    let seed = SEED.load(Ordering::Relaxed) ^ fnv1a(name.as_bytes());
    points.insert(
        name.to_string(),
        Point {
            action,
            probability: probability.clamp(0.0, 1.0),
            rng: SplitMix64::new(seed),
            evals: 0,
            hits: 0,
        },
    );
    ACTIVE.store(points.len(), Ordering::Relaxed);
}

/// Removes the failpoint `name`; the site reverts to one relaxed load
/// once no points remain.
pub fn remove_failpoint(name: &str) {
    let mut points = registry().lock().expect("failpoint registry poisoned");
    points.remove(name);
    ACTIVE.store(points.len(), Ordering::Relaxed);
}

/// Removes every configured failpoint.
pub fn clear_failpoints() {
    let mut points = registry().lock().expect("failpoint registry poisoned");
    points.clear();
    ACTIVE.store(0, Ordering::Relaxed);
}

/// Sets the base seed future [`configure_failpoint`] calls derive per-point streams
/// from (existing points keep their streams).
pub fn set_failpoint_seed(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
}

/// Parses one `name=action[%p]` clause.
fn parse_clause(clause: &str) -> Result<(String, Option<(FailAction, f64)>), String> {
    let (name, spec) = clause
        .split_once('=')
        .ok_or_else(|| format!("failpoint clause {clause:?} is missing '='"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("failpoint clause {clause:?} has an empty name"));
    }
    let (action_text, probability) = match spec.split_once('%') {
        Some((action, percent)) => {
            let value: f64 = percent
                .trim()
                .parse()
                .map_err(|_| format!("failpoint {name}: bad probability {percent:?}"))?;
            // `%0.05` is a probability, `%5` is a percentage.
            let probability = if value > 1.0 { value / 100.0 } else { value };
            (action.trim(), probability)
        }
        None => (spec.trim(), 1.0),
    };
    let action = if action_text.eq_ignore_ascii_case("off") {
        return Ok((name.to_string(), None));
    } else if action_text.eq_ignore_ascii_case("error") {
        FailAction::Error
    } else if action_text.eq_ignore_ascii_case("panic") {
        FailAction::Panic
    } else if let Some(ms) = action_text.strip_prefix("delay:") {
        let ms: u64 = ms
            .trim()
            .parse()
            .map_err(|_| format!("failpoint {name}: bad delay {ms:?}"))?;
        FailAction::Delay(Duration::from_millis(ms))
    } else if let Some(bytes) = action_text.strip_prefix("partial:") {
        let bytes: usize = bytes
            .trim()
            .parse()
            .map_err(|_| format!("failpoint {name}: bad partial size {bytes:?}"))?;
        FailAction::Partial(bytes)
    } else {
        return Err(format!(
            "failpoint {name}: unknown action {action_text:?} \
             (expected error, panic, delay:<ms>, partial:<bytes> or off)"
        ));
    };
    Ok((name.to_string(), Some((action, probability))))
}

/// Applies a comma-separated `name=action%p` specification (the
/// `DANDELION_FAILPOINTS` format). Clauses apply left to right; `off`
/// removes a point.
pub(crate) fn configure_failpoints(spec: &str) -> Result<(), String> {
    for clause in spec.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        match parse_clause(clause)? {
            (name, Some((action, probability))) => configure_failpoint(&name, action, probability),
            (name, None) => remove_failpoint(&name),
        }
    }
    Ok(())
}

/// Reads `DANDELION_FAILPOINT_SEED` and `DANDELION_FAILPOINTS` once per
/// process. Called from every entry point that can host failpoints
/// (worker start, server start, gateway start) — whichever runs first
/// wins, the rest are no-ops. A malformed spec panics: a chaos run that
/// silently ignores its configuration would report false confidence.
pub fn init_failpoints_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(seed) = std::env::var("DANDELION_FAILPOINT_SEED") {
            match seed.trim().parse::<u64>() {
                Ok(seed) => set_failpoint_seed(seed),
                Err(_) => panic!("DANDELION_FAILPOINT_SEED is not a u64: {seed:?}"),
            }
        }
        if let Ok(spec) = std::env::var("DANDELION_FAILPOINTS") {
            if let Err(problem) = configure_failpoints(&spec) {
                panic!("DANDELION_FAILPOINTS: {problem}");
            }
        }
    });
}

fn action_label(action: FailAction) -> String {
    match action {
        FailAction::Error => "error".to_string(),
        FailAction::Panic => "panic".to_string(),
        FailAction::Delay(pause) => format!("delay:{}", pause.as_millis()),
        FailAction::Partial(bytes) => format!("partial:{bytes}"),
    }
}

/// The `failpoints` stats document: one entry per configured point with
/// its action, probability and counters. `None` when nothing is
/// configured, so `/v1/stats` stays unchanged in production.
pub fn failpoint_stats_json() -> Option<JsonValue> {
    if !failpoints_enabled() {
        return None;
    }
    let points = registry().lock().expect("failpoint registry poisoned");
    if points.is_empty() {
        return None;
    }
    let mut entries: Vec<(String, JsonValue)> = points
        .iter()
        .map(|(name, point)| {
            (
                name.clone(),
                JsonValue::object([
                    ("action", JsonValue::string(action_label(point.action))),
                    ("probability", JsonValue::from(point.probability)),
                    ("evals", JsonValue::from(point.evals)),
                    ("hits", JsonValue::from(point.hits)),
                ]),
            )
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Some(JsonValue::object(entries))
}

/// Hits recorded for the failpoint `name` (testing aid).
pub fn failpoint_hits(name: &str) -> u64 {
    let points = registry().lock().expect("failpoint registry poisoned");
    points.get(name).map_or(0, |point| point.hits)
}

/// Injects a failpoint into a function.
///
/// The bare form evaluates side-effect actions (delay, panic) and ignores
/// `Error`/`Partial` faults — use it at sites that have no failure path of
/// their own. The two-argument form maps a triggered [`Fault`] to the
/// enclosing function's return value and `return`s it:
///
/// ```
/// use dandelion_common::{
///     configure_failpoint, fail_point, failpoint_io_error, remove_failpoint, FailAction,
/// };
///
/// fn send() -> std::io::Result<()> {
///     fail_point!("doc/send", |_| Err(failpoint_io_error("doc/send")));
///     Ok(())
/// }
///
/// configure_failpoint("doc/send", FailAction::Error, 1.0);
/// assert!(send().is_err());
/// remove_failpoint("doc/send");
/// assert!(send().is_ok());
/// ```
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        if $crate::failpoints_enabled() {
            let _ = $crate::check_failpoint($name);
        }
    };
    ($name:expr, $on_fault:expr) => {
        if $crate::failpoints_enabled() {
            if let Some(fault) = $crate::check_failpoint($name) {
                #[allow(clippy::redundant_closure_call)]
                return ($on_fault)(fault);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own point names: the registry is process-global
    // and the test harness runs these in parallel.

    #[test]
    fn disabled_points_cost_nothing_and_fire_nothing() {
        assert_eq!(check_failpoint("test/unconfigured"), None);
    }

    #[test]
    fn error_fault_fires_and_counts() {
        configure_failpoint("test/error", FailAction::Error, 1.0);
        assert_eq!(check_failpoint("test/error"), Some(Fault::Error));
        assert_eq!(check_failpoint("test/error"), Some(Fault::Error));
        assert_eq!(failpoint_hits("test/error"), 2);
        remove_failpoint("test/error");
        assert_eq!(check_failpoint("test/error"), None);
    }

    #[test]
    fn partial_fault_carries_its_cap() {
        configure_failpoint("test/partial", FailAction::Partial(3), 1.0);
        assert_eq!(check_failpoint("test/partial"), Some(Fault::Partial(3)));
        remove_failpoint("test/partial");
    }

    #[test]
    fn probability_is_deterministic_for_a_seed() {
        // The per-point stream restarts on configure, so two identical
        // configurations produce identical trigger sequences.
        let sequence = |_: ()| {
            configure_failpoint("test/prob", FailAction::Error, 0.5);
            let fired: Vec<bool> = (0..64)
                .map(|_| check_failpoint("test/prob").is_some())
                .collect();
            remove_failpoint("test/prob");
            fired
        };
        let first = sequence(());
        let second = sequence(());
        assert_eq!(first, second);
        assert!(first.iter().any(|fired| *fired));
        assert!(first.iter().any(|fired| !*fired));
    }

    #[test]
    fn delay_sleeps_and_returns_no_fault() {
        configure_failpoint(
            "test/delay",
            FailAction::Delay(Duration::from_millis(20)),
            1.0,
        );
        let started = std::time::Instant::now();
        assert_eq!(check_failpoint("test/delay"), None);
        assert!(started.elapsed() >= Duration::from_millis(20));
        remove_failpoint("test/delay");
    }

    #[test]
    fn panic_action_panics_with_the_point_name() {
        configure_failpoint("test/panic", FailAction::Panic, 1.0);
        let result = std::panic::catch_unwind(|| check_failpoint("test/panic"));
        remove_failpoint("test/panic");
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("test/panic"));
    }

    #[test]
    fn spec_strings_parse_every_action() {
        configure_failpoints(
            "test/spec-a=error%0.25, test/spec-b=panic, \
             test/spec-c=delay:5%50, test/spec-d=partial:7",
        )
        .unwrap();
        let points = registry().lock().unwrap();
        assert_eq!(points["test/spec-a"].action, FailAction::Error);
        assert!((points["test/spec-a"].probability - 0.25).abs() < 1e-9);
        assert_eq!(points["test/spec-b"].action, FailAction::Panic);
        assert_eq!(
            points["test/spec-c"].action,
            FailAction::Delay(Duration::from_millis(5))
        );
        assert!((points["test/spec-c"].probability - 0.5).abs() < 1e-9);
        assert_eq!(points["test/spec-d"].action, FailAction::Partial(7));
        drop(points);
        configure_failpoints("test/spec-a=off,test/spec-b=off,test/spec-c=off,test/spec-d=off")
            .unwrap();
        assert_eq!(check_failpoint("test/spec-a"), None);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(configure_failpoints("no-equals-sign").is_err());
        assert!(configure_failpoints("=error").is_err());
        assert!(configure_failpoints("x=explode").is_err());
        assert!(configure_failpoints("x=delay:abc").is_err());
        assert!(configure_failpoints("x=partial:-1").is_err());
        assert!(configure_failpoints("x=error%many").is_err());
    }

    #[test]
    fn stats_document_reports_counters() {
        configure_failpoint("test/stats", FailAction::Error, 1.0);
        let _ = check_failpoint("test/stats");
        let json = failpoint_stats_json().expect("a configured point produces stats");
        let text = json.to_json_string();
        assert!(text.contains("\"test/stats\""));
        assert!(text.contains("\"action\":\"error\""));
        remove_failpoint("test/stats");
    }

    #[test]
    fn macro_forms_return_and_pass_through() {
        fn guarded() -> Result<u32, String> {
            fail_point!("test/macro", |_| Err("injected".to_string()));
            Ok(7)
        }
        assert_eq!(guarded(), Ok(7));
        configure_failpoint("test/macro", FailAction::Error, 1.0);
        assert_eq!(guarded(), Err("injected".to_string()));
        remove_failpoint("test/macro");
        assert_eq!(guarded(), Ok(7));
    }
}
