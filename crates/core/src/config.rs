//! Engine configuration.

use crate::error::SimdxError;
use crate::frontier::ClassifyThresholds;
use crate::fusion::FusionStrategy;
use simdx_gpu::DeviceSpec;

// The `SIMDX_EXEC` knob's contract: unset or empty selects the
// default; values are matched case-insensitively; anything
// unrecognized is an `SimdxError::InvalidKnob`, so a CI typo can never
// silently fall back to the default configuration. The contract splits
// into `try_from_env` (one fresh `getenv` — the path every session-API
// construction takes via `EngineConfig::from_env`) and a pure
// `try_from_raw` half.

/// Applies the knob contract to an already-read raw value — the pure
/// half of every knob's `try_from_env`, so tests can exercise parsing
/// and rejection without mutating the process environment (libc
/// `setenv` racing concurrent `getenv` from parallel tests is
/// undefined behavior).
fn parse_knob<T>(
    var: &'static str,
    expected: &'static str,
    default: T,
    raw: Option<String>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, SimdxError> {
    match raw {
        None => Ok(default),
        Some(raw) => {
            let v = raw.to_ascii_lowercase();
            if v.is_empty() {
                Ok(default)
            } else {
                parse(&v).ok_or(SimdxError::InvalidKnob {
                    var,
                    expected,
                    value: raw,
                })
            }
        }
    }
}

// The per-process knob-default cache (`ExecMode::default()`) has no
// error channel, so it caches the *fallible* parse result once:
// `Default` hands out the hard-coded fallback on a bad value (never a
// panic — this used to abort the process), and
// [`EngineConfig::validate`] consults the cached error so a session
// built from `Default` (`Runtime::new(EngineConfig::default())`)
// surfaces the typo as a typed `SimdxError::InvalidConfig` — a CI typo
// still cannot silently select the default configuration.
//
// THE CACHING CONTRACT: the cache reads `SIMDX_EXEC` once per process,
// at the first `Default` construction. A knob set (or fixed) *after*
// that point is invisible to `Default` and to `validate` forever —
// that is the price of keeping `EngineConfig::default()`
// allocation-free inside timed bench regions. Embedders that change
// the knob at run time must construct through
// [`EngineConfig::from_env`] / `Runtime::from_env`, which bypass the
// cache entirely: a fresh read, and only the pure
// [`EngineConfig::consistency`] half of validation (never the cached
// error), so neither a stale cached value nor a stale cached *error*
// can leak into that path.

/// The cached per-process `SIMDX_EXEC` parse (see the caching
/// contract above).
fn cached_exec_knob() -> Result<ExecMode, SimdxError> {
    static CACHE: std::sync::OnceLock<Result<ExecMode, SimdxError>> = std::sync::OnceLock::new();
    CACHE.get_or_init(ExecMode::try_from_env).clone()
}

/// Which frontier-filter strategy the engine uses each iteration (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterPolicy {
    /// Just-in-time control: online filter until a thread bin overflows,
    /// ballot filter for that iteration, back to online when bins fit.
    /// This is SIMD-X's default.
    Jit,
    /// Always use the ballot filter (the Fig. 12 "Ballot" baseline).
    BallotOnly,
    /// Always use the online filter; a bin overflow aborts the run (the
    /// Fig. 12 "Online" baseline, which "cannot work for many graphs").
    OnlineOnly,
}

/// Host execution backend for the engine's per-iteration hot path.
///
/// Both modes produce **bit-equal results**: identical metadata,
/// identical iteration logs and identical simulated cycle counts (the
/// determinism contract in `crates/core/README.md`). `Parallel` only
/// changes how fast the host computes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded reference path.
    Serial,
    /// Multi-threaded path over a persistent worker pool.
    Parallel {
        /// Worker count; `0` resolves to the machine's available
        /// parallelism at run time.
        threads: usize,
    },
}

impl ExecMode {
    /// The backend selected by the `SIMDX_EXEC` environment variable:
    /// `"parallel"` selects `Parallel { threads: 0 }` (auto width),
    /// `"parallel:N"` selects `N` workers; `"serial"`, empty or unset
    /// select `Serial`. Any other value is an
    /// [`SimdxError::InvalidKnob`].
    pub fn try_from_env() -> Result<Self, SimdxError> {
        Self::try_from_raw(std::env::var("SIMDX_EXEC").ok())
    }

    /// The pure half of [`Self::try_from_env`] (see [`parse_knob`]).
    pub(crate) fn try_from_raw(raw: Option<String>) -> Result<Self, SimdxError> {
        parse_knob(
            "SIMDX_EXEC",
            "'serial', 'parallel' or 'parallel:N'",
            Self::Serial,
            raw,
            |v| match v {
                "serial" => Some(Self::Serial),
                "parallel" => Some(Self::Parallel { threads: 0 }),
                other => other
                    .strip_prefix("parallel:")
                    .and_then(|n| n.parse().ok())
                    .map(|threads| Self::Parallel { threads }),
            },
        )
    }

    /// Resolved worker count: `Serial` is 1, `Parallel { threads: 0 }`
    /// asks the OS.
    pub fn worker_count(&self) -> usize {
        match *self {
            Self::Serial => 1,
            Self::Parallel { threads: 0 } => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Self::Parallel { threads } => threads,
        }
    }

    /// Short label for reports and bench artifacts.
    pub fn label(&self) -> String {
        match *self {
            Self::Serial => "serial".to_string(),
            Self::Parallel { threads: 0 } => "parallel/auto".to_string(),
            Self::Parallel { threads } => format!("parallel/{threads}"),
        }
    }
}

impl Default for ExecMode {
    /// Defers to the cached `SIMDX_EXEC` parse so `SIMDX_EXEC=parallel`
    /// flips the default for a whole test/bench process. A malformed
    /// value falls back to `Serial` here (no panic in `Default`);
    /// [`EngineConfig::validate`] reports it as a typed error.
    fn default() -> Self {
        cached_exec_knob().unwrap_or(Self::Serial)
    }
}

/// How the engine represents set-shaped frontier state.
///
/// Single-valued: every frontier artifact is a `Vec<VertexId>`
/// worklist, the form SIMD-X's task management produces (§4). The type
/// and [`EngineConfig::frontier`] are kept only so exhaustive
/// `EngineConfig` literals compile; the engine never reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrontierRepr {
    /// Sorted/concatenated vertex worklists.
    List,
}

/// How the engine lays out the per-vertex metadata pair in host
/// memory.
///
/// Single-valued: `metadata_prev`/`metadata_curr` are plain `Vec<M>`s.
/// The type and [`EngineConfig::layout`] are kept only so exhaustive
/// `EngineConfig` literals compile; the engine never reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MetadataLayout {
    /// Plain `Vec<M>` metadata arrays.
    Flat,
}

/// How the parallel backend distributes push-mode edge work across its
/// destination shards.
///
/// Single-valued: worker `s` iterates the bind-time
/// destination-bucketed [`crate::grid::GridCsr`] shard `s`, so one
/// iteration traverses each frontier edge exactly once. The type and
/// [`EngineConfig::push`] are kept only so exhaustive `EngineConfig`
/// literals compile; the engine never reads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PushStrategy {
    /// Work-optimal replay over the bind-time grid CSR.
    Grid,
}

/// What a session does when a parallel run fails with a contained
/// worker panic ([`crate::error::SimdxError::WorkerPanicked`]).
///
/// Either way the pool is poisoned and transparently rebuilt before
/// the next run; the policy only decides whether the *failed query*
/// comes back as an error or is retried. The retry is safe to offer
/// because the serial path is the bit-equality reference: a successful
/// retry returns exactly what the parallel run would have.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Surface the typed error to the caller (default).
    #[default]
    Fail,
    /// Retry the failed query once in [`ExecMode::Serial`] — graceful
    /// degradation instead of a failed query. A successful retry is
    /// flagged via [`crate::metrics::RunReport::aborted`] with
    /// [`crate::supervise::AbortReason::WorkerPanic`].
    RetrySerial,
}

/// Push/pull direction selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectionPolicy {
    /// Frontier-volume heuristic: pull when the frontier's out-degree
    /// sum exceeds `|E| / alpha`, push otherwise (Beamer-style; the
    /// engine consults [`crate::acc::AccProgram::direction`] first).
    Adaptive {
        /// Volume divisor; the paper-era conventional value is 20.
        alpha: u64,
    },
    /// Always push.
    FixedPush,
    /// Always pull.
    FixedPull,
}

impl Default for DirectionPolicy {
    fn default() -> Self {
        Self::Adaptive { alpha: 20 }
    }
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Simulated device.
    pub device: DeviceSpec,
    /// Kernel-fusion strategy (§5).
    pub fusion: FusionStrategy,
    /// Frontier filter policy (§4).
    pub filter: FilterPolicy,
    /// Online-filter per-thread bin capacity. §4 selects 64.
    pub overflow_threshold: usize,
    /// Worklist degree thresholds. §4 defaults to 32 / 128.
    pub thresholds: ClassifyThresholds,
    /// Threads per CTA for every kernel. §5 default is 128.
    pub threads_per_cta: u32,
    /// Device scale divisor matching the dataset twin scale (see
    /// [`simdx_gpu::GpuExecutor::set_scale`]). Default 64, the twin
    /// shrink factor of `simdx-graph::datasets`.
    pub parallelism_scale: u32,
    /// Direction policy.
    pub direction: DirectionPolicy,
    /// Hard iteration cap (defense against non-converging programs).
    pub max_iterations: u32,
    /// Host execution backend (serial reference vs worker pool).
    pub exec: ExecMode,
    /// Frontier representation; single-valued, never read by the
    /// engine (see [`FrontierRepr`]).
    pub frontier: FrontierRepr,
    /// Metadata memory layout; single-valued, never read by the engine
    /// (see [`MetadataLayout`]).
    pub layout: MetadataLayout,
    /// Parallel push edge distribution; single-valued, never read by
    /// the engine (see [`PushStrategy`]).
    pub push: PushStrategy,
    /// Reaction to a contained worker panic (fail the query vs retry
    /// it once serially).
    pub degrade: DegradePolicy,
}

impl Default for EngineConfig {
    /// Paper defaults with the host backend read from the cached
    /// per-process `SIMDX_EXEC` default; an unparsable value selects
    /// `Serial` here and is reported as a typed error by
    /// [`Self::validate`] (which every session construction calls).
    /// Session construction should prefer the fallible
    /// [`Self::from_env`].
    fn default() -> Self {
        Self::with_exec_mode(ExecMode::default())
    }
}

impl EngineConfig {
    /// The paper-default configuration around the given host backend —
    /// the one constructor that does not consult the environment, so
    /// the fallible path can report a bad knob instead of panicking
    /// halfway through `Default::default()`.
    fn with_exec_mode(exec: ExecMode) -> Self {
        Self {
            device: DeviceSpec::k40(),
            fusion: FusionStrategy::PushPull,
            filter: FilterPolicy::Jit,
            overflow_threshold: 64,
            thresholds: ClassifyThresholds::default(),
            threads_per_cta: 128,
            parallelism_scale: 64,
            direction: DirectionPolicy::default(),
            max_iterations: 100_000,
            exec,
            frontier: FrontierRepr::List,
            layout: MetadataLayout::Flat,
            push: PushStrategy::Grid,
            degrade: DegradePolicy::Fail,
        }
    }

    /// The default configuration with `SIMDX_EXEC` parsed fallibly
    /// from the environment: a typo comes back as
    /// [`SimdxError::InvalidKnob`] instead of a panic. This reads the
    /// environment on every call (no cache) — it is meant for
    /// session-construction time, not hot loops.
    pub fn from_env() -> Result<Self, SimdxError> {
        Self::from_knob_value(std::env::var("SIMDX_EXEC").ok())
    }

    /// The pure half of [`Self::from_env`]: build a configuration from
    /// the raw `SIMDX_EXEC` string (`None` meaning "variable unset"),
    /// parse it fallibly and check only [`Self::consistency`] — never
    /// the per-process cache, since the raw value given here is by
    /// definition fresh.
    pub(crate) fn from_knob_value(exec: Option<String>) -> Result<Self, SimdxError> {
        let cfg = Self::with_exec_mode(ExecMode::try_from_raw(exec)?);
        cfg.consistency()?;
        Ok(cfg)
    }

    /// Checks the configuration for internal consistency; the session
    /// API ([`crate::session::Runtime::new`]) rejects broken configs up
    /// front instead of letting the engine panic mid-run.
    pub fn validate(&self) -> Result<(), SimdxError> {
        // The cached per-process knob default swallows a malformed
        // SIMDX_EXEC value into a fallback (Default has no error
        // channel); surface it here so every session construction fails
        // typed instead of silently running the fallback configuration.
        // Configs built through `from_env` / `from_knob_value` skip this
        // gate — their knob was read fresh, not from the cache.
        if let Err(err) = cached_exec_knob() {
            return Err(SimdxError::InvalidConfig {
                reason: format!("cached knob default is invalid: {err}"),
            });
        }
        self.consistency()
    }

    /// The pure, environment-independent half of [`Self::validate`].
    pub(crate) fn consistency(&self) -> Result<(), SimdxError> {
        let fail = |reason: String| Err(SimdxError::InvalidConfig { reason });
        if self.threads_per_cta == 0 {
            return fail("threads_per_cta must be at least 1".to_string());
        }
        if self.parallelism_scale == 0 {
            return fail("parallelism_scale must be at least 1".to_string());
        }
        if self.thresholds.small_max > self.thresholds.med_max {
            return fail(format!(
                "worklist thresholds inverted: small_max {} > med_max {}",
                self.thresholds.small_max, self.thresholds.med_max
            ));
        }
        if let DirectionPolicy::Adaptive { alpha: 0 } = self.direction {
            return fail("adaptive direction alpha must be at least 1".to_string());
        }
        Ok(())
    }

    /// A configuration for unscaled micro-tests: tiny graphs against an
    /// unscaled device with deterministic defaults.
    pub fn unscaled() -> Self {
        Self {
            parallelism_scale: 1,
            ..Self::default()
        }
    }

    /// Builder: set the filter policy.
    pub fn with_filter(mut self, filter: FilterPolicy) -> Self {
        self.filter = filter;
        self
    }

    /// Builder: set the fusion strategy.
    pub fn with_fusion(mut self, fusion: FusionStrategy) -> Self {
        self.fusion = fusion;
        self
    }

    /// Builder: set the device.
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Builder: set the online-filter overflow threshold (Fig. 9(a)
    /// sweeps this).
    pub fn with_overflow_threshold(mut self, threshold: usize) -> Self {
        self.overflow_threshold = threshold;
        self
    }

    /// Builder: set the direction policy.
    pub fn with_direction(mut self, direction: DirectionPolicy) -> Self {
        self.direction = direction;
        self
    }

    /// Builder: set the host execution backend.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Builder: parallel host execution with `threads` workers (0 =
    /// available parallelism).
    pub fn parallel(self, threads: usize) -> Self {
        self.with_exec(ExecMode::Parallel { threads })
    }

    /// Builder: set the worker-panic degradation policy.
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = degrade;
        self
    }

    /// Builder: retry panicked parallel queries once serially.
    pub fn degrade_serial(self) -> Self {
        self.with_degrade(DegradePolicy::RetrySerial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.overflow_threshold, 64);
        assert_eq!(c.threads_per_cta, 128);
        assert_eq!(c.thresholds.small_max, 32);
        assert_eq!(c.thresholds.med_max, 128);
        assert_eq!(c.filter, FilterPolicy::Jit);
        assert_eq!(c.fusion, FusionStrategy::PushPull);
        assert_eq!(c.device.name, "Tesla K40");
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::unscaled()
            .with_filter(FilterPolicy::BallotOnly)
            .with_fusion(FusionStrategy::None)
            .with_overflow_threshold(8);
        assert_eq!(c.parallelism_scale, 1);
        assert_eq!(c.filter, FilterPolicy::BallotOnly);
        assert_eq!(c.fusion, FusionStrategy::None);
        assert_eq!(c.overflow_threshold, 8);
    }

    #[test]
    fn exec_mode_resolution() {
        assert_eq!(ExecMode::Serial.worker_count(), 1);
        assert_eq!(ExecMode::Parallel { threads: 4 }.worker_count(), 4);
        assert!(ExecMode::Parallel { threads: 0 }.worker_count() >= 1);
        assert_eq!(ExecMode::Serial.label(), "serial");
        assert_eq!(ExecMode::Parallel { threads: 4 }.label(), "parallel/4");
        let c = EngineConfig::unscaled().parallel(2);
        assert_eq!(c.exec, ExecMode::Parallel { threads: 2 });
        // Without SIMDX_EXEC the default backend is serial; with it,
        // the whole process flips (both are bit-equal by contract).
        assert!(matches!(
            EngineConfig::default().exec,
            ExecMode::Serial | ExecMode::Parallel { .. }
        ));
    }

    #[test]
    fn env_knob_contract() {
        // Unset and empty fall back to the default; matching is
        // case-insensitive. Driven through the pure half so the test
        // never mutates the process environment.
        assert_eq!(
            parse_knob("SIMDX_NO_SUCH_KNOB", "anything", 7, None, |_| None),
            Ok(7)
        );
        assert_eq!(
            parse_knob("SIMDX_NO_SUCH_KNOB", "x", 0, None, |v| (v == "set")
                .then_some(1)),
            Ok(0),
            "parser only runs on present, non-empty values"
        );
    }

    #[test]
    fn from_env_path_never_consults_the_stale_caches() {
        // Populate the per-process cache with the clean-environment
        // default first — this is the state a long-lived embedder is in
        // when it later changes SIMDX_EXEC and constructs a new runtime.
        let _ = EngineConfig::default();
        // The fresh-read path must honor the new raw value, not the
        // cached default.
        let cfg = EngineConfig::from_knob_value(Some("parallel:3".to_string()))
            .expect("the knob value is valid");
        assert_eq!(cfg.exec, ExecMode::Parallel { threads: 3 });
        // And a typo surfaces as a typed error from the fresh read,
        // regardless of what the cache holds.
        let err = EngineConfig::from_knob_value(Some("warp9".to_string())).unwrap_err();
        assert!(
            matches!(
                err,
                SimdxError::InvalidKnob {
                    var: "SIMDX_EXEC",
                    ..
                }
            ),
            "wrong error: {err:?}"
        );
    }

    #[test]
    fn knob_parser_reports_typos_as_typed_errors() {
        // The pure half is driven directly — no process-environment
        // mutation, which would race concurrent `getenv` from the
        // other tests in this binary.
        let parse = |v: &str| (v == "a" || v == "b").then_some(1);
        let err = parse_knob(
            "SIMDX_TEST_KNOB",
            "'a' or 'b'",
            0,
            Some("Bogus".to_string()),
            parse,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimdxError::InvalidKnob {
                var: "SIMDX_TEST_KNOB",
                expected: "'a' or 'b'",
                value: "Bogus".to_string(),
            }
        );
        // The error's display is the exact historical panic message.
        assert_eq!(
            err.to_string(),
            "SIMDX_TEST_KNOB must be 'a' or 'b', got 'Bogus'"
        );
        // Case-insensitive accept, empty-selects-default.
        assert_eq!(parse_knob("K", "x", 0, Some("B".to_string()), parse), Ok(1));
        assert_eq!(parse_knob("K", "x", 7, Some(String::new()), parse), Ok(7));
    }

    #[test]
    fn degrade_policy_defaults_to_fail_and_composes() {
        assert_eq!(EngineConfig::default().degrade, DegradePolicy::Fail);
        let c = EngineConfig::unscaled().degrade_serial();
        assert_eq!(c.degrade, DegradePolicy::RetrySerial);
        let c = c.with_degrade(DegradePolicy::Fail);
        assert_eq!(c.degrade, DegradePolicy::Fail);
    }

    #[test]
    fn clean_environment_has_no_cached_knob_error() {
        // The test processes never set SIMDX_EXEC to an invalid value,
        // so the cached default parses cleanly and validate() does not
        // reject on its account.
        assert!(cached_exec_knob().is_ok());
    }

    #[test]
    fn from_env_matches_default_when_unset() {
        // The test processes never set SIMDX_* to invalid values, so
        // the fallible path must agree with the cached defaults.
        let cfg = EngineConfig::from_env().expect("clean environment");
        let def = EngineConfig::default();
        assert_eq!(cfg.exec, def.exec);
        assert_eq!(cfg.max_iterations, def.max_iterations);
    }

    #[test]
    fn validate_rejects_broken_configs() {
        assert_eq!(EngineConfig::default().validate(), Ok(()));
        let cfg = EngineConfig {
            threads_per_cta: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(SimdxError::InvalidConfig { .. })
        ));
        let cfg = EngineConfig {
            parallelism_scale: 0,
            ..EngineConfig::default()
        };
        assert!(cfg.validate().is_err());
        let mut cfg = EngineConfig::default();
        cfg.thresholds.small_max = cfg.thresholds.med_max + 1;
        assert!(cfg.validate().is_err());
        let cfg = EngineConfig {
            direction: DirectionPolicy::Adaptive { alpha: 0 },
            ..EngineConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
