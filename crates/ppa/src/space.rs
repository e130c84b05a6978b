//! Generative design spaces: lazy [`HwParams`] producers that never
//! allocate the cross-product.
//!
//! The explicit [`DseSpace`] stores one `Vec` per axis and stays the
//! right tool at paper scale (81 points) and dense-stress scale (10⁴).
//! At 10⁶+ points even the *axis values* are better described than
//! stored — [`GridSpace`] holds four arithmetic progressions (12
//! words) and decodes any flat index on demand. The [`DesignSpace`]
//! trait abstracts both behind index-addressed enumeration so the
//! search can screen, sample and re-visit points by index without
//! ever materializing `size()` `HwParams` values at once.
//!
//! **Index order is iteration order.** `point_at` decodes a flat
//! index mixed-radix over the axes with `sa_size` slowest and
//! `n_pool` fastest — exactly the nested-loop order of
//! [`DseSpace::iter`] — so `space_points(&s)` yields the same point
//! sequence as the explicit iterator, and every downstream
//! deterministic tie-break ("first point in space order") means the
//! same thing for explicit and generative spaces.

use crate::params::{check_point_count, DseSpace, DseSpaceError, HwParams};
use serde::{Deserialize, Serialize};

/// A lazily enumerable hardware design space.
///
/// Implementations expose a raw index range `0..size()`; each slot
/// decodes to a design point or to `None` when the slot's parameter
/// combination is invalid (zero-valued — the same combinations
/// [`DseSpace::iter`] skips). Object-safe so sweep code can take
/// `&dyn DesignSpace`.
pub trait DesignSpace {
    /// Number of raw index slots (the axis cross-product size,
    /// counting slots whose decoded point is invalid).
    fn size(&self) -> usize;

    /// The design point at flat `index`, or `None` when the slot is
    /// out of range or decodes to a zero-valued parameter.
    fn point_at(&self, index: usize) -> Option<HwParams>;

    /// The space's four axes. `size()` is the product of their
    /// lengths, and `point_at(i)` is the point [`SpaceAxes::point`]
    /// builds from [`SpaceAxes::decode`]`(i)`.
    fn axes(&self) -> SpaceAxes;
}

/// The value lists of a design space's four axes, in index order — the
/// space as a grid. Pricing reads per-axis tables keyed by the
/// positions [`SpaceAxes::decode`] returns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpaceAxes {
    /// Systolic-array dimensions (slowest axis).
    pub sa_sizes: Vec<u32>,
    /// Array counts.
    pub n_sas: Vec<u32>,
    /// Activation-unit counts.
    pub n_acts: Vec<u32>,
    /// Pooling-unit counts (fastest axis).
    pub n_pools: Vec<u32>,
}

/// Axis positions `[sa_size, n_sa, n_act, n_pool]` of flat `index`
/// over axes of lengths `[_, n_sas, n_acts, n_pools]`: mixed radix,
/// `n_pool` fastest. The one decode every space and pricer shares.
fn decode(index: usize, n_sas: usize, n_acts: usize, n_pools: usize) -> [usize; 4] {
    let np = n_pools.max(1);
    let na = n_acts.max(1);
    let nn = n_sas.max(1);
    let pi = index % np;
    let rest = index / np;
    let ai = rest % na;
    let rest = rest / na;
    let ni = rest % nn;
    [rest / nn, ni, ai, pi]
}

impl SpaceAxes {
    /// Axis positions `[sa_size, n_sa, n_act, n_pool]` of flat
    /// `index`, decoded exactly as [`DesignSpace::point_at`] decodes
    /// it. The `sa_size` position is out of range when `index` is.
    pub fn decode(&self, index: usize) -> [usize; 4] {
        decode(
            index,
            self.n_sas.len(),
            self.n_acts.len(),
            self.n_pools.len(),
        )
    }

    /// The design point at axis positions `at`, or `None` when a
    /// position is out of range or its value is zero.
    pub fn point(&self, at: [usize; 4]) -> Option<HwParams> {
        let [si, ni, ai, pi] = at;
        HwParams::try_new(
            *self.sa_sizes.get(si)?,
            *self.n_sas.get(ni)?,
            *self.n_acts.get(ai)?,
            *self.n_pools.get(pi)?,
        )
        .ok()
    }
}

/// Iterates the valid points of `space` in index order, yielding
/// `(flat index, point)` pairs. For a [`DseSpace`] the point sequence
/// is exactly [`DseSpace::iter`]'s.
pub fn space_points(
    space: &(impl DesignSpace + ?Sized),
) -> impl Iterator<Item = (u32, HwParams)> + '_ {
    (0..space.size()).filter_map(move |i| space.point_at(i).map(|hw| (i as u32, hw)))
}

impl DesignSpace for DseSpace {
    fn size(&self) -> usize {
        self.len()
    }

    fn point_at(&self, index: usize) -> Option<HwParams> {
        let [si, ni, ai, pi] = decode(
            index,
            self.n_sas.len(),
            self.n_acts.len(),
            self.n_pools.len(),
        );
        let s = *self.sa_sizes.get(si)?;
        let n = *self.n_sas.get(ni)?;
        let a = *self.n_acts.get(ai)?;
        let p = *self.n_pools.get(pi)?;
        HwParams::try_new(s, n, a, p).ok()
    }

    fn axes(&self) -> SpaceAxes {
        SpaceAxes {
            sa_sizes: self.sa_sizes.clone(),
            n_sas: self.n_sas.clone(),
            n_acts: self.n_acts.clone(),
            n_pools: self.n_pools.clone(),
        }
    }
}

/// One axis of a [`GridSpace`]: the arithmetic progression
/// `start, start+step, …` of `count` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridAxis {
    /// First value of the progression.
    pub start: u32,
    /// Increment between consecutive values.
    pub step: u32,
    /// Number of values on the axis.
    pub count: u32,
}

impl GridAxis {
    /// Builds the axis `start, start+step, …` (`count` values).
    pub fn new(start: u32, step: u32, count: u32) -> Self {
        GridAxis { start, step, count }
    }

    /// The `i`-th value (saturating, so decoding stays panic-free
    /// under `-C overflow-checks=on` even for absurd descriptors).
    pub fn value(&self, i: u32) -> u32 {
        self.start.saturating_add(self.step.saturating_mul(i))
    }

    /// Number of values on the axis.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Every value of the axis, in order.
    fn values(&self) -> Vec<u32> {
        (0..self.count).map(|i| self.value(i)).collect()
    }

    /// True when the axis holds no values.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// A generative grid over the four hardware axes: O(1) storage for an
/// arbitrarily large cross-product, decoded point by point through
/// [`DesignSpace::point_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridSpace {
    /// Systolic-array dimension axis.
    pub sa_size: GridAxis,
    /// Array-count axis.
    pub n_sa: GridAxis,
    /// Activation-unit-count axis.
    pub n_act: GridAxis,
    /// Pooling-unit-count axis.
    pub n_pool: GridAxis,
}

impl GridSpace {
    /// The 10⁶-point stress grid: 32 values per axis, 32⁴ = 1 048 576
    /// raw slots, spanning tiny (8×8 array) through far-over-budget
    /// (132×132 arrays × 128) corners so the area and lower-bound
    /// screens both have real work to do.
    pub fn huge() -> Self {
        GridSpace {
            sa_size: GridAxis::new(8, 4, 32),
            n_sa: GridAxis::new(4, 4, 32),
            n_act: GridAxis::new(2, 2, 32),
            n_pool: GridAxis::new(2, 2, 32),
        }
    }

    /// Checks the grid describes at least one valid design point —
    /// every axis non-empty, every value non-zero — and at most
    /// [`crate::MAX_POINTS`], as [`DseSpace::validate`] does. An axis
    /// holds a zero exactly when it starts at zero: its values never
    /// decrease.
    ///
    /// # Errors
    ///
    /// [`DseSpaceError`] naming the offending axis or limit.
    pub fn validate(&self) -> Result<(), DseSpaceError> {
        let axes = [
            ("sa_size", self.sa_size),
            ("n_sa", self.n_sa),
            ("n_act", self.n_act),
            ("n_pool", self.n_pool),
        ];
        for (axis, values) in axes {
            if values.is_empty() {
                return Err(DseSpaceError::EmptyAxis { axis });
            }
            if values.start == 0 {
                return Err(DseSpaceError::ZeroValue { axis });
            }
        }
        check_point_count(axes.map(|(_, values)| values.len()))
    }
}

impl DesignSpace for GridSpace {
    /// The axis counts' product, saturating at `usize::MAX` (a grid
    /// that large fails [`GridSpace::validate`]).
    fn size(&self) -> usize {
        self.sa_size
            .len()
            .saturating_mul(self.n_sa.len())
            .saturating_mul(self.n_act.len())
            .saturating_mul(self.n_pool.len())
    }

    fn point_at(&self, index: usize) -> Option<HwParams> {
        if index >= self.size() {
            return None;
        }
        let [si, ni, ai, pi] = decode(index, self.n_sa.len(), self.n_act.len(), self.n_pool.len());
        HwParams::try_new(
            self.sa_size.value(si as u32),
            self.n_sa.value(ni as u32),
            self.n_act.value(ai as u32),
            self.n_pool.value(pi as u32),
        )
        .ok()
    }

    fn axes(&self) -> SpaceAxes {
        SpaceAxes {
            sa_sizes: self.sa_size.values(),
            n_sas: self.n_sa.values(),
            n_acts: self.n_act.values(),
            n_pools: self.n_pool.values(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dse_space_point_at_matches_iter_order() {
        for space in [DseSpace::default(), DseSpace::dense(6)] {
            let explicit: Vec<HwParams> = space.iter().collect();
            let decoded: Vec<HwParams> = space_points(&space).map(|(_, hw)| hw).collect();
            assert_eq!(explicit, decoded);
            assert_eq!(space.size(), space.len());
        }
    }

    #[test]
    fn zero_valued_slots_are_skipped_not_panicked() {
        let space = DseSpace {
            sa_sizes: vec![16, 0, 32],
            ..DseSpace::default()
        };
        let explicit: Vec<HwParams> = space.iter().collect();
        let decoded: Vec<HwParams> = space_points(&space).map(|(_, hw)| hw).collect();
        assert_eq!(explicit, decoded);
        assert!(decoded.len() < space.size());
    }

    #[test]
    fn out_of_range_index_is_none() {
        let space = DseSpace::default();
        assert!(space.point_at(space.size()).is_none());
        assert!(space.point_at(usize::MAX).is_none());
    }

    #[test]
    fn grid_space_decodes_every_slot_in_order() {
        let g = GridSpace {
            sa_size: GridAxis::new(16, 16, 3),
            n_sa: GridAxis::new(8, 8, 2),
            n_act: GridAxis::new(4, 4, 2),
            n_pool: GridAxis::new(4, 4, 2),
        };
        assert_eq!(g.size(), 3 * 2 * 2 * 2);
        let pts: Vec<HwParams> = space_points(&g).map(|(_, hw)| hw).collect();
        assert_eq!(pts.len(), g.size(), "no zero-valued slots in this grid");
        // Equivalent explicit space must enumerate identically.
        let explicit = DseSpace {
            sa_sizes: vec![16, 32, 48],
            n_sas: vec![8, 16],
            n_acts: vec![4, 8],
            n_pools: vec![4, 8],
            threads: None,
        };
        let reference: Vec<HwParams> = explicit.iter().collect();
        assert_eq!(pts, reference);
    }

    #[test]
    fn huge_grid_has_a_million_slots_without_allocating_them() {
        let g = GridSpace::huge();
        assert_eq!(g.size(), 1 << 20);
        assert!(g.point_at(0).is_some());
        assert!(g.point_at(g.size() - 1).is_some());
        assert!(g.point_at(g.size()).is_none());
        // Spot-check index round-tripping against the mixed-radix
        // layout: slot 0 is every axis at start.
        assert_eq!(g.point_at(0), HwParams::try_new(8, 4, 2, 2).ok());
    }

    #[test]
    fn grids_past_the_u32_index_saturate_and_fail_validation() {
        let grid = |per_axis: u32| {
            let axis = GridAxis::new(1, 1, per_axis);
            GridSpace {
                sa_size: axis,
                n_sa: axis,
                n_act: axis,
                n_pool: axis,
            }
        };
        // 256⁴ = 2³² slots: every index fits a u32.
        assert_eq!(grid(256).size(), 1 << 32);
        assert!(grid(256).validate().is_ok());
        // 257⁴ = 4,362,470,401 slots, and 65,536⁴ = 2⁶⁴, past `usize`:
        // `size` saturates and `validate` rejects both.
        assert_eq!(grid(257).size(), 4_362_470_401);
        assert_eq!(grid(65_536).size(), usize::MAX);
        for per_axis in [257, 65_536] {
            assert_eq!(
                grid(per_axis).validate(),
                Err(DseSpaceError::TooManyPoints),
                "{per_axis}"
            );
        }
        let empty = GridSpace {
            n_act: GridAxis::new(4, 4, 0),
            ..GridSpace::huge()
        };
        assert_eq!(
            empty.validate(),
            Err(DseSpaceError::EmptyAxis { axis: "n_act" })
        );
        let zeroed = GridSpace {
            n_sa: GridAxis::new(0, 4, 8),
            ..GridSpace::huge()
        };
        assert_eq!(
            zeroed.validate(),
            Err(DseSpaceError::ZeroValue { axis: "n_sa" })
        );
        assert!(GridSpace::huge().validate().is_ok());
    }

    #[test]
    fn axes_decode_every_slot_as_point_at_does() {
        let grid = GridSpace {
            sa_size: GridAxis::new(16, 16, 3),
            n_sa: GridAxis::new(8, 8, 2),
            n_act: GridAxis::new(4, 4, 2),
            n_pool: GridAxis::new(4, 4, 2),
        };
        let zeroed = DseSpace {
            sa_sizes: vec![16, 0, 32],
            n_pools: vec![32, 8, 0],
            ..DseSpace::default()
        };
        let spaces: [&dyn DesignSpace; 3] = [&grid, &zeroed, &DseSpace::dense(3)];
        for space in spaces {
            let axes = space.axes();
            let lens = [
                axes.sa_sizes.len(),
                axes.n_sas.len(),
                axes.n_acts.len(),
                axes.n_pools.len(),
            ];
            assert_eq!(lens.iter().product::<usize>(), space.size());
            for i in 0..=space.size() {
                assert_eq!(axes.point(axes.decode(i)), space.point_at(i), "slot {i}");
            }
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let spaces: Vec<Box<dyn DesignSpace>> =
            vec![Box::new(DseSpace::default()), Box::new(GridSpace::huge())];
        for s in &spaces {
            assert!(s.size() > 0);
            assert!(space_points(s.as_ref()).count() > 0);
        }
    }
}
