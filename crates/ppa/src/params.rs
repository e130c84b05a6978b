//! The tunable hardware parameter file (Input #2) and the DSE sweep
//! (Input #5 of Algorithm 1): systolic-array size, number of arrays,
//! number of activation units and number of pooling units.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One hardware design point — the adjustable parameters the paper
/// lists for the tunable hardware parameter file.
///
/// `n_act`/`n_pool` are per *kind*: a configuration whose workloads
/// need ReLU and GELU instantiates `n_act` ReLU units and `n_act` GELU
/// units (matching Table II, where each library row reports one count
/// next to its set of activation types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HwParams {
    /// Systolic array dimension (the array is `sa_size × sa_size` PEs).
    pub sa_size: u32,
    /// Number of systolic arrays per systolic module group.
    pub n_sa: u32,
    /// Number of activation units per activation kind present.
    pub n_act: u32,
    /// Number of pooling units per pooling kind present.
    pub n_pool: u32,
}

impl HwParams {
    /// Creates a design point.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero; use [`HwParams::try_new`] for a
    /// fallible constructor.
    pub fn new(sa_size: u32, n_sa: u32, n_act: u32, n_pool: u32) -> Self {
        match Self::try_new(sa_size, n_sa, n_act, n_pool) {
            Ok(hw) => hw,
            Err(e) => panic!("hardware parameters must be non-zero: {e}"),
        }
    }

    /// Fallible constructor validating all parameters are non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`HwParamsError::Zero`] naming the offending field.
    pub fn try_new(
        sa_size: u32,
        n_sa: u32,
        n_act: u32,
        n_pool: u32,
    ) -> Result<Self, HwParamsError> {
        for (name, v) in [
            ("sa_size", sa_size),
            ("n_sa", n_sa),
            ("n_act", n_act),
            ("n_pool", n_pool),
        ] {
            if v == 0 {
                return Err(HwParamsError::Zero { field: name });
            }
        }
        Ok(HwParams {
            sa_size,
            n_sa,
            n_act,
            n_pool,
        })
    }

    /// Total PEs across one systolic module group.
    pub fn total_pes(&self) -> u64 {
        u64::from(self.sa_size) * u64::from(self.sa_size) * u64::from(self.n_sa)
    }
}

impl fmt::Display for HwParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} SA x{}, {} act, {} pool",
            self.sa_size, self.sa_size, self.n_sa, self.n_act, self.n_pool
        )
    }
}

/// Error validating [`HwParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwParamsError {
    /// A parameter was zero.
    Zero {
        /// Which field.
        field: &'static str,
    },
}

impl fmt::Display for HwParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwParamsError::Zero { field } => {
                write!(f, "hardware parameter `{field}` must be non-zero")
            }
        }
    }
}

impl std::error::Error for HwParamsError {}

/// The largest worker count any thread knob may ask for:
/// [`DseSpace::threads`], the CLI's `--threads` and the
/// `CLAIRE_THREADS` environment variable. Each parallel map spawns up
/// to one fewer scoped threads (the caller is the first worker), and a
/// spawn the operating system refuses panics instead of surfacing as a
/// typed error, so the count is bounded where it enters the program. 256 is 32× the 8 workers
/// the determinism suites exercise.
pub const MAX_THREADS: usize = 256;

/// The most points a design space may span: a point's space index is a
/// `u32` (`claire_ppa::space_points`), which numbers 2³² points.
pub const MAX_POINTS: u64 = 1 << 32;

/// The design-space-exploration sweep: the cartesian product of the
/// parameter axes. The default is 3 values per axis = 3⁴ = **81
/// configurations**, matching "The DSE run encompassed 81
/// configurations".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DseSpace {
    /// Candidate systolic-array dimensions.
    pub sa_sizes: Vec<u32>,
    /// Candidate array counts.
    pub n_sas: Vec<u32>,
    /// Candidate activation-unit counts.
    pub n_acts: Vec<u32>,
    /// Candidate pooling-unit counts.
    pub n_pools: Vec<u32>,
    /// Worker threads for sweeping this space, from 1 to
    /// [`MAX_THREADS`]. `None` (the default, and what older run-config
    /// files deserialize to) defers to the `CLAIRE_THREADS`
    /// environment variable and then to the machine's available
    /// parallelism.
    pub threads: Option<usize>,
}

impl Default for DseSpace {
    fn default() -> Self {
        DseSpace {
            sa_sizes: vec![16, 32, 64],
            n_sas: vec![16, 32, 64],
            n_acts: vec![8, 16, 32],
            n_pools: vec![8, 16, 32],
            threads: None,
        }
    }
}

impl DseSpace {
    /// A parameterised dense stress space: `per_axis` values on every
    /// axis, i.e. `per_axis⁴` design points (`dense(10)` = 10,000 —
    /// two orders of magnitude beyond the paper's 81). The axes extend
    /// well past the point where systolic-group area alone exceeds any
    /// realistic chiplet cap, so a large fraction of the space is
    /// area-infeasible — the regime the staged, constraint-pruned
    /// sweep is built for.
    ///
    /// # Panics
    ///
    /// Panics when `per_axis` is zero.
    pub fn dense(per_axis: usize) -> Self {
        assert!(
            per_axis > 0,
            "dense space needs at least one value per axis"
        );
        let axis = |step: u32| -> Vec<u32> { (1..=per_axis as u32).map(|i| i * step).collect() };
        DseSpace {
            sa_sizes: axis(12),
            n_sas: axis(8),
            n_acts: axis(4),
            n_pools: axis(4),
            threads: None,
        }
    }

    /// Number of configurations in the sweep, saturating at
    /// `usize::MAX` (a space that large fails [`DseSpace::validate`]).
    pub fn len(&self) -> usize {
        self.sa_sizes
            .len()
            .saturating_mul(self.n_sas.len())
            .saturating_mul(self.n_acts.len())
            .saturating_mul(self.n_pools.len())
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates every configuration in deterministic axis order.
    /// Zero-valued axis entries (rejected by [`DseSpace::validate`])
    /// are skipped rather than panicking, keeping iteration total.
    pub fn iter(&self) -> impl Iterator<Item = HwParams> + '_ {
        self.sa_sizes.iter().flat_map(move |&s| {
            self.n_sas.iter().flat_map(move |&n| {
                self.n_acts.iter().flat_map(move |&a| {
                    self.n_pools
                        .iter()
                        .filter_map(move |&p| HwParams::try_new(s, n, a, p).ok())
                })
            })
        })
    }

    /// Checks the space describes at least one valid design point —
    /// every axis non-empty, every value non-zero — and at most
    /// [`MAX_POINTS`], and that its thread knob, when set, is from 1 to
    /// [`MAX_THREADS`].
    ///
    /// # Errors
    ///
    /// [`DseSpaceError`] naming the offending axis or limit.
    pub fn validate(&self) -> Result<(), DseSpaceError> {
        for (axis, values) in [
            ("sa_sizes", &self.sa_sizes),
            ("n_sas", &self.n_sas),
            ("n_acts", &self.n_acts),
            ("n_pools", &self.n_pools),
        ] {
            if values.is_empty() {
                return Err(DseSpaceError::EmptyAxis { axis });
            }
            if values.contains(&0) {
                return Err(DseSpaceError::ZeroValue { axis });
            }
        }
        check_point_count([
            self.sa_sizes.len(),
            self.n_sas.len(),
            self.n_acts.len(),
            self.n_pools.len(),
        ])?;
        match self.threads {
            Some(0) => Err(DseSpaceError::ZeroThreads),
            Some(threads) if threads > MAX_THREADS => {
                Err(DseSpaceError::TooManyThreads { threads })
            }
            _ => Ok(()),
        }
    }
}

/// Rejects axis lengths whose product, the space's slot count, exceeds
/// [`MAX_POINTS`] (or `u64`), multiplying with checked arithmetic.
pub(crate) fn check_point_count(axis_lens: [usize; 4]) -> Result<(), DseSpaceError> {
    let points = axis_lens
        .iter()
        .try_fold(1u64, |n, &len| n.checked_mul(len as u64));
    if points.is_none_or(|n| n > MAX_POINTS) {
        return Err(DseSpaceError::TooManyPoints);
    }
    Ok(())
}

/// Error validating a [`DseSpace`] or a [`crate::GridSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DseSpaceError {
    /// An axis has no candidate values, so the sweep is empty.
    EmptyAxis {
        /// Which axis.
        axis: &'static str,
    },
    /// An axis contains a zero, which no hardware point can realise.
    ZeroValue {
        /// Which axis.
        axis: &'static str,
    },
    /// The thread knob asks for zero workers.
    ZeroThreads,
    /// The thread knob asks for more than [`MAX_THREADS`] workers.
    TooManyThreads {
        /// The requested worker count.
        threads: usize,
    },
    /// The axes span more than [`MAX_POINTS`] points, more than a
    /// `u32` space index can number.
    TooManyPoints,
}

impl fmt::Display for DseSpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseSpaceError::EmptyAxis { axis } => {
                write!(f, "DSE axis `{axis}` has no candidate values")
            }
            DseSpaceError::ZeroValue { axis } => {
                write!(f, "DSE axis `{axis}` contains a zero value")
            }
            DseSpaceError::ZeroThreads => write!(f, "DSE field `threads` must be at least 1"),
            DseSpaceError::TooManyThreads { threads } => {
                write!(
                    f,
                    "{threads} threads requested; at most {MAX_THREADS} allowed"
                )
            }
            DseSpaceError::TooManyPoints => {
                write!(f, "DSE space has more than {MAX_POINTS} points")
            }
        }
    }
}

impl std::error::Error for DseSpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_is_81_configurations() {
        let space = DseSpace::default();
        assert_eq!(space.len(), 81);
        assert_eq!(space.iter().count(), 81);
    }

    #[test]
    fn iteration_is_deterministic_and_unique() {
        let space = DseSpace::default();
        let a: Vec<_> = space.iter().collect();
        let b: Vec<_> = space.iter().collect();
        assert_eq!(a, b);
        let mut set: Vec<_> = a.clone();
        set.dedup();
        assert_eq!(set.len(), 81);
    }

    #[test]
    fn dense_space_is_per_axis_to_the_fourth() {
        let space = DseSpace::dense(10);
        assert_eq!(space.len(), 10_000);
        assert_eq!(space.sa_sizes.len(), 10);
        assert!(space
            .iter()
            .all(|hw| hw.sa_size > 0 && hw.n_sa > 0 && hw.n_act > 0 && hw.n_pool > 0));
        let small = DseSpace::dense(2);
        assert_eq!(small.len(), 16);
    }

    #[test]
    fn zero_parameter_rejected() {
        let err = HwParams::try_new(32, 0, 16, 16).unwrap_err();
        assert_eq!(err, HwParamsError::Zero { field: "n_sa" });
        assert!(err.to_string().contains("n_sa"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_parameter_panics_in_infallible_constructor() {
        HwParams::new(0, 32, 16, 16);
    }

    #[test]
    fn degenerate_spaces_fail_validation() {
        assert!(DseSpace::default().validate().is_ok());
        let empty = DseSpace {
            n_acts: vec![],
            ..DseSpace::default()
        };
        assert_eq!(
            empty.validate().unwrap_err(),
            DseSpaceError::EmptyAxis { axis: "n_acts" }
        );
        let zeroed = DseSpace {
            sa_sizes: vec![16, 0],
            ..DseSpace::default()
        };
        assert_eq!(
            zeroed.validate().unwrap_err(),
            DseSpaceError::ZeroValue { axis: "sa_sizes" }
        );
        assert!(zeroed.validate().unwrap_err().to_string().contains("zero"));
        // Iteration skips the invalid points instead of panicking:
        // [16, 0] yields exactly the points [16] would.
        let valid_only = DseSpace {
            sa_sizes: vec![16],
            ..DseSpace::default()
        };
        assert_eq!(zeroed.iter().count(), valid_only.iter().count());
    }

    #[test]
    fn thread_knob_is_bounded() {
        let at = |threads| DseSpace {
            threads: Some(threads),
            ..DseSpace::default()
        };
        assert!(at(MAX_THREADS).validate().is_ok());
        let err = at(MAX_THREADS + 1).validate().unwrap_err();
        assert_eq!(
            err,
            DseSpaceError::TooManyThreads {
                threads: MAX_THREADS + 1
            }
        );
        assert!(err.to_string().contains(&MAX_THREADS.to_string()));
    }

    #[test]
    fn zero_thread_knob_is_rejected() {
        let space = DseSpace {
            threads: Some(0),
            ..DseSpace::default()
        };
        let err = space.validate().unwrap_err();
        assert_eq!(err, DseSpaceError::ZeroThreads);
        assert!(err.to_string().contains("`threads`"), "{err}");
        let one = DseSpace {
            threads: Some(1),
            ..DseSpace::default()
        };
        assert!(one.validate().is_ok());
    }

    #[test]
    fn spaces_past_the_u32_index_are_rejected() {
        let axes = |per_axis: u32| DseSpace {
            sa_sizes: (1..=per_axis).collect(),
            n_sas: (1..=per_axis).collect(),
            n_acts: (1..=per_axis).collect(),
            n_pools: (1..=per_axis).collect(),
            threads: None,
        };
        // 256⁴ = 2³² points: every index fits a u32.
        assert!(axes(256).validate().is_ok());
        // 257⁴ = 4,362,470,401 points and 65,536⁴ = 2⁶⁴ points (past
        // u64 too): rejected before any index is formed.
        for per_axis in [257, 65_536] {
            let err = axes(per_axis).validate().unwrap_err();
            assert_eq!(err, DseSpaceError::TooManyPoints, "{per_axis}");
            assert!(err.to_string().contains("4294967296"), "{err}");
        }
        assert_eq!(axes(65_536).len(), usize::MAX);
    }

    #[test]
    fn total_pes() {
        assert_eq!(HwParams::new(32, 32, 16, 16).total_pes(), 32 * 32 * 32);
    }

    #[test]
    fn display_is_informative() {
        let s = HwParams::new(32, 64, 16, 8).to_string();
        assert!(s.contains("32x32"));
        assert!(s.contains("x64"));
    }

    #[test]
    fn serde_round_trip() {
        let space = DseSpace::default();
        let json = serde_json::to_string(&space).unwrap();
        let back: DseSpace = serde_json::from_str(&json).unwrap();
        assert_eq!(space, back);
    }
}
