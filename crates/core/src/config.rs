//! Design configurations, chiplets, and the Input #4 constraints.

use crate::evaluate::PpaReport;
use claire_model::{ActivationKind, Model, OpClass};
use claire_noc::Network;
use claire_ppa::{unit_area_mm2, HwParams, SpaceAxes};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Input #4: the constraints that keep DSE results realistic for cloud
/// deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constraints {
    /// `A_Chip_limit`: maximum area of one chiplet (and of the
    /// monolithic die considered during DSE), mm². The paper keeps
    /// configurations "within a realistic area range of 10–100 mm²"
    /// per ASIC-Clouds-style specifications.
    pub chiplet_area_limit_mm2: f64,
    /// `PD_limit`: maximum power density, W/mm², to manage chip
    /// temperature.
    pub power_density_limit_w_per_mm2: f64,
    /// `L_limit` slack: a configuration's latency may not exceed the
    /// custom design solution's latency by more than this fraction
    /// (the paper's "does not exceed 50 %" ⇒ `0.5`).
    pub latency_slack: f64,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            chiplet_area_limit_mm2: 100.0,
            power_density_limit_w_per_mm2: 1.0,
            latency_slack: 0.5,
        }
    }
}

impl Constraints {
    /// Whether `report` meets the area and power-density limits: the
    /// per-point feasibility test of Algorithm 1's sweep. The latency
    /// limit needs the custom reference, so the selection applies it.
    pub(crate) fn admits(&self, report: &PpaReport) -> bool {
        report.area_mm2 <= self.chiplet_area_limit_mm2
            && report.power_density_w_per_mm2() <= self.power_density_limit_w_per_mm2
    }
}

/// One chiplet: a named set of module groups produced by the Louvain
/// clustering step, with its silicon area (module groups + one NoC
/// router per group + the AIB NoP PHY).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chiplet {
    /// Library name, `L1`, `L2`, … in Table II style.
    pub name: String,
    /// The module groups (hardware-unit classes) on this chiplet.
    pub classes: BTreeSet<OpClass>,
    /// Total silicon area, mm².
    pub area_mm2: f64,
}

impl Chiplet {
    /// Builds a chiplet from its module groups under `hw`, adding one
    /// NoC router per group and one NoP PHY for the AIB interface.
    pub fn from_classes(
        name: impl Into<String>,
        classes: BTreeSet<OpClass>,
        hw: &HwParams,
    ) -> Self {
        let noc = Network::noc();
        let nop = Network::nop_aib2();
        let units: f64 = classes.iter().map(|&c| unit_area_mm2(c, hw)).sum();
        let routers = classes.len() as f64 * noc.router.area_mm2;
        Chiplet {
            name: name.into(),
            classes,
            area_mm2: units + routers + nop.router.area_mm2,
        }
    }

    /// The activation kinds present, in Table II order.
    pub fn activation_kinds(&self) -> Vec<ActivationKind> {
        self.classes
            .iter()
            .filter_map(|c| match c {
                OpClass::Activation(a) => Some(*a),
                _ => None,
            })
            .collect()
    }

    /// The pooling kinds present.
    pub fn pooling_kinds(&self) -> Vec<claire_model::PoolingKind> {
        self.classes
            .iter()
            .filter_map(|c| match c {
                OpClass::Pooling(p) => Some(*p),
                _ => None,
            })
            .collect()
    }

    /// Number of systolic-array module groups on this chiplet.
    pub fn systolic_groups(&self) -> usize {
        self.classes.iter().filter(|c| c.is_systolic()).count()
    }
}

/// Silicon area of a monolithic (unclustered) configuration holding
/// `classes` under `hw`: the module-group areas summed in class order
/// plus one NoC router per group. This is **the** monolithic area
/// formula — [`DesignConfig::area_mm2`] and the staged DSE sweep's
/// area screens all call it, which is what lets the screens prune on
/// area without ever disagreeing with a full evaluation by even one
/// bit.
pub fn monolithic_area_mm2(classes: &BTreeSet<OpClass>, hw: &HwParams) -> f64 {
    let units: f64 = classes.iter().map(|&c| unit_area_mm2(c, hw)).sum();
    units + classes.len() as f64 * Network::noc().router.area_mm2
}

/// [`OpClass::bit`]s of `classes`, as one word.
pub(crate) fn class_mask(classes: &BTreeSet<OpClass>) -> u16 {
    classes.iter().fold(0u16, |m, c| m | c.bit())
}

/// [`monolithic_area_mm2`] over a grid of design points: one
/// unit-area table per class, in class order, along the one axis that
/// class's area reads — `(sa_size, n_sa)` for the systolic classes,
/// `n_act` for activations, `n_pool` for pooling, none for reshapes.
/// [`AreaTables::area_mm2`] folds the tables with the same `.sum()`
/// and adds the same router term, so it is bit-identical to
/// [`monolithic_area_mm2`] at every point of the grid.
///
/// A row of the grid (the `n_pool` axis at fixed `(sa_size, n_sa,
/// n_act)`) shares every term before the first pooling class, the
/// classes being ordered systolic, activation, pooling, reshape. So
/// [`AreaTables::row_mm2`] folds that prefix once per row and
/// [`AreaTables::area_in_row`] resumes the same left-to-right fold
/// from it per point: the same additions in the same order, hence the
/// same bits. No term is ever summed out of class order.
///
/// Each unit area is `f64::from(v)` times a positive constant, or a
/// constant, so it is non-decreasing along its axis; `f64` addition is
/// monotone, so the folded area is non-decreasing along every axis.
#[derive(Debug)]
pub(crate) struct AreaTables {
    /// Per class, in class order: the axis it reads and its areas.
    units: Box<[(UnitAxis, Box<[f64]>)]>,
    /// The position in `units` of the first pooling class (`units.len()`
    /// when there is none): the units before it read no `n_pool`.
    split: usize,
    /// `n_sas.len()`: the row stride of the systolic tables.
    n_sas: usize,
    /// One NoC router per module group.
    routers_mm2: f64,
}

/// The axis a unit area reads.
#[derive(Debug, Clone, Copy)]
enum UnitAxis {
    Systolic,
    Activation,
    Pooling,
    Fixed,
}

impl AreaTables {
    /// Tables for `classes` over `axes`, filled eagerly: a few
    /// multiplications per axis value, and no layer work.
    pub(crate) fn new(classes: &BTreeSet<OpClass>, axes: &SpaceAxes) -> Self {
        // Axes a class does not read hold a placeholder 1.
        let grid = |sa_size, n_sa, n_act, n_pool| HwParams {
            sa_size,
            n_sa,
            n_act,
            n_pool,
        };
        let units: Box<[(UnitAxis, Box<[f64]>)]> = classes
            .iter()
            .map(|&class| {
                let area = |hw: HwParams| unit_area_mm2(class, &hw);
                match class {
                    OpClass::Conv2d | OpClass::Conv1d | OpClass::Linear => (
                        UnitAxis::Systolic,
                        axes.sa_sizes
                            .iter()
                            .flat_map(|&s| axes.n_sas.iter().map(move |&n| area(grid(s, n, 1, 1))))
                            .collect(),
                    ),
                    OpClass::Activation(_) => (
                        UnitAxis::Activation,
                        axes.n_acts
                            .iter()
                            .map(|&a| area(grid(1, 1, a, 1)))
                            .collect(),
                    ),
                    OpClass::Pooling(_) => (
                        UnitAxis::Pooling,
                        axes.n_pools
                            .iter()
                            .map(|&p| area(grid(1, 1, 1, p)))
                            .collect(),
                    ),
                    OpClass::Flatten | OpClass::Permute => {
                        (UnitAxis::Fixed, Box::from([area(grid(1, 1, 1, 1))]))
                    }
                }
            })
            .collect();
        let split = units
            .iter()
            .position(|(axis, _)| matches!(axis, UnitAxis::Pooling))
            .unwrap_or(units.len());
        AreaTables {
            units,
            split,
            n_sas: axes.n_sas.len(),
            routers_mm2: classes.len() as f64 * Network::noc().router.area_mm2,
        }
    }

    /// The monolithic area at axis positions `[sa_size, n_sa, n_act,
    /// n_pool]` (see [`SpaceAxes::decode`]).
    pub(crate) fn area_mm2(&self, at: [usize; 4]) -> f64 {
        self.area_in_row(self.row_mm2(at), at)
    }

    /// The fold of the unit areas before the first pooling class at the
    /// row of `at` (its `n_pool` position is not read): the prefix of
    /// [`AreaTables::area_mm2`]'s sum that every point of the row
    /// shares.
    pub(crate) fn row_mm2(&self, at: [usize; 4]) -> f64 {
        self.units[..self.split]
            .iter()
            .map(|unit| self.unit_mm2(unit, at))
            .sum()
    }

    /// [`AreaTables::area_mm2`] at `at`, resumed from its row's prefix
    /// `row` ([`AreaTables::row_mm2`]): the remaining classes' terms
    /// added in class order, then the routers.
    pub(crate) fn area_in_row(&self, row: f64, at: [usize; 4]) -> f64 {
        let units = self.units[self.split..]
            .iter()
            .fold(row, |sum, unit| sum + self.unit_mm2(unit, at));
        units + self.routers_mm2
    }

    /// One class's unit area at `at`.
    fn unit_mm2(&self, (axis, areas): &(UnitAxis, Box<[f64]>), at: [usize; 4]) -> f64 {
        let [si, ni, ai, pi] = at;
        match axis {
            UnitAxis::Systolic => areas[si * self.n_sas + ni],
            UnitAxis::Activation => areas[ai],
            UnitAxis::Pooling => areas[pi],
            UnitAxis::Fixed => areas[0],
        }
    }
}

/// A design configuration: the DSE-selected hardware parameters, the
/// module groups it instantiates, and (after Step #TR3) its chiplet
/// partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignConfig {
    /// Configuration name (`C_i` of an algorithm, `C_g`, or `C_k`).
    pub name: String,
    /// DSE-selected tunable hardware parameters.
    pub hw: HwParams,
    /// The module groups (hardware-unit classes) the configuration
    /// instantiates — one per distinct op class of its workloads.
    pub classes: BTreeSet<OpClass>,
    /// The chiplet partition (empty until clustering runs).
    pub chiplets: Vec<Chiplet>,
    /// Interposer placement of the chiplets (None until clustering
    /// runs or for single-chiplet designs); cross-chiplet transfers
    /// pay its Manhattan distance in AIB channel hops.
    #[serde(default)]
    pub placement: Option<crate::place::InterposerPlacement>,
}

impl DesignConfig {
    /// Creates a monolithic (not yet clustered) configuration.
    pub fn monolithic(name: impl Into<String>, hw: HwParams, classes: BTreeSet<OpClass>) -> Self {
        DesignConfig {
            name: name.into(),
            hw,
            classes,
            chiplets: Vec::new(),
            placement: None,
        }
    }

    /// AIB channel hops between the chiplets hosting two classes
    /// (1 when unplaced or co-resident on an unplaced design).
    pub fn chiplet_distance(&self, a: usize, b: usize) -> u32 {
        match &self.placement {
            Some(p) if a < p.len() && b < p.len() => p.distance(a, b).max(1),
            _ => 1,
        }
    }

    /// Total silicon area, mm²: the sum of chiplet areas when
    /// clustered, otherwise the monolithic module-group area plus
    /// per-group routers (see [`monolithic_area_mm2`]).
    pub fn area_mm2(&self) -> f64 {
        if self.chiplets.is_empty() {
            monolithic_area_mm2(&self.classes, &self.hw)
        } else {
            self.chiplets.iter().map(|c| c.area_mm2).sum()
        }
    }

    /// Whether `class` can execute on this configuration.
    ///
    /// `Tanh` layers are implementable by a GELU unit: the GELU block
    /// is built around the characterized tanh core (paper Input #2),
    /// which is how BERT reaches 100 % coverage on `C_3` even though
    /// Table II lists only RELU/GELU/SILU for library L3.
    pub fn supports(&self, class: OpClass) -> bool {
        if self.classes.contains(&class) {
            return true;
        }
        class == OpClass::Activation(ActivationKind::Tanh)
            && self
                .classes
                .contains(&OpClass::Activation(ActivationKind::Gelu))
    }

    /// The class that actually executes `class` (identity, or GELU for
    /// folded Tanh). `None` when unsupported.
    pub fn executing_class(&self, class: OpClass) -> Option<OpClass> {
        if self.classes.contains(&class) {
            Some(class)
        } else if self.supports(class) {
            Some(OpClass::Activation(ActivationKind::Gelu))
        } else {
            None
        }
    }

    /// [`OpClass::bit`]s of every class [`DesignConfig::supports`]:
    /// the configuration's classes, plus Tanh when GELU is present.
    fn supported_mask(&self) -> u16 {
        let mask = class_mask(&self.classes);
        let (gelu, tanh) = (
            OpClass::Activation(ActivationKind::Gelu).bit(),
            OpClass::Activation(ActivationKind::Tanh).bit(),
        );
        if mask & gelu != 0 {
            mask | tanh
        } else {
            mask
        }
    }

    /// True when every layer of `model` is implementable — algorithm
    /// coverage `C_layer(i, k) = 100 %`.
    pub fn covers(&self, model: &Model) -> bool {
        self.first_missing(model).is_none()
    }

    /// The first layer class of `model` (in class order) this
    /// configuration cannot implement, if any: a test of the model's
    /// class mask ([`Model::class_mask`]) against the mask of every
    /// class [`DesignConfig::supports`].
    pub fn first_missing(&self, model: &Model) -> Option<OpClass> {
        OpClass::from_mask(model.class_mask() & !self.supported_mask()).next()
    }

    /// The chiplet index hosting `class`, after clustering.
    pub fn chiplet_of(&self, class: OpClass) -> Option<usize> {
        self.chiplets
            .iter()
            .position(|c| c.classes.contains(&class))
    }

    /// Number of chiplet types (the NRE driver).
    pub fn chiplet_count(&self) -> usize {
        self.chiplets.len()
    }

    /// Chiplet areas, mm² (for the NRE model).
    pub fn chiplet_areas(&self) -> Vec<f64> {
        self.chiplets.iter().map(|c| c.area_mm2).collect()
    }

    /// Checks the structural invariants of a (clustered) configuration:
    /// the chiplets partition exactly the configuration's classes, the
    /// placement (when present) covers every chiplet, and every area is
    /// finite and positive.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for ch in &self.chiplets {
            if ch.classes.is_empty() {
                return Err(format!("chiplet {} has no module groups", ch.name));
            }
            if !(ch.area_mm2.is_finite() && ch.area_mm2 > 0.0) {
                return Err(format!(
                    "chiplet {} has invalid area {}",
                    ch.name, ch.area_mm2
                ));
            }
            for class in &ch.classes {
                if !self.classes.contains(class) {
                    return Err(format!(
                        "chiplet {} carries {class}, which the configuration does not instantiate",
                        ch.name
                    ));
                }
                if !seen.insert(*class) {
                    return Err(format!("{class} appears on two chiplets"));
                }
            }
        }
        if !self.chiplets.is_empty() && seen.len() != self.classes.len() {
            return Err("chiplets do not cover every module group".into());
        }
        if let Some(p) = &self.placement {
            if p.len() != self.chiplets.len() {
                return Err(format!(
                    "placement has {} slots for {} chiplets",
                    p.len(),
                    self.chiplets.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_model::PoolingKind;

    fn classes(list: &[OpClass]) -> BTreeSet<OpClass> {
        list.iter().copied().collect()
    }

    fn hw() -> HwParams {
        HwParams::new(32, 32, 16, 16)
    }

    #[test]
    fn chiplet_area_includes_routers_and_phy() {
        let c = Chiplet::from_classes(
            "L1",
            classes(&[OpClass::Conv2d, OpClass::Activation(ActivationKind::Relu)]),
            &hw(),
        );
        let units = unit_area_mm2(OpClass::Conv2d, &hw())
            + unit_area_mm2(OpClass::Activation(ActivationKind::Relu), &hw());
        assert!(c.area_mm2 > units);
        assert!(c.area_mm2 < units + 1.0);
    }

    #[test]
    fn tanh_folds_into_gelu() {
        let cfg = DesignConfig::monolithic(
            "C_3",
            hw(),
            classes(&[OpClass::Linear, OpClass::Activation(ActivationKind::Gelu)]),
        );
        assert!(cfg.supports(OpClass::Activation(ActivationKind::Tanh)));
        assert_eq!(
            cfg.executing_class(OpClass::Activation(ActivationKind::Tanh)),
            Some(OpClass::Activation(ActivationKind::Gelu))
        );
        // But not the other way around: ReLU does not emulate GELU.
        let relu_only = DesignConfig::monolithic(
            "r",
            hw(),
            classes(&[OpClass::Activation(ActivationKind::Relu)]),
        );
        assert!(!relu_only.supports(OpClass::Activation(ActivationKind::Gelu)));
    }

    #[test]
    fn covers_bert_with_gelu_config() {
        let cfg = DesignConfig::monolithic(
            "C_3",
            hw(),
            classes(&[
                OpClass::Linear,
                OpClass::Activation(ActivationKind::Gelu),
                OpClass::Activation(ActivationKind::Silu),
            ]),
        );
        let bert = claire_model::zoo::bert_base();
        assert!(cfg.covers(&bert));
        assert_eq!(cfg.first_missing(&bert), None);
    }

    #[test]
    fn missing_class_reported() {
        let cfg = DesignConfig::monolithic("c", hw(), classes(&[OpClass::Linear]));
        let alexnet = claire_model::zoo::alexnet();
        assert!(!cfg.covers(&alexnet));
        assert_eq!(cfg.first_missing(&alexnet), Some(OpClass::Conv2d));
    }

    #[test]
    fn clustered_area_is_sum_of_chiplets() {
        let mut cfg =
            DesignConfig::monolithic("c", hw(), classes(&[OpClass::Conv2d, OpClass::Linear]));
        cfg.chiplets = vec![
            Chiplet::from_classes("L1", classes(&[OpClass::Conv2d]), &hw()),
            Chiplet::from_classes("L2", classes(&[OpClass::Linear]), &hw()),
        ];
        let sum: f64 = cfg.chiplet_areas().iter().sum();
        assert!((cfg.area_mm2() - sum).abs() < 1e-12);
        assert_eq!(cfg.chiplet_of(OpClass::Linear), Some(1));
        assert_eq!(cfg.chiplet_of(OpClass::Flatten), None);
    }

    #[test]
    fn table2_style_views() {
        let c = Chiplet::from_classes(
            "L1",
            classes(&[
                OpClass::Conv2d,
                OpClass::Activation(ActivationKind::Relu),
                OpClass::Activation(ActivationKind::Relu6),
                OpClass::Pooling(PoolingKind::MaxPool),
            ]),
            &hw(),
        );
        assert_eq!(
            c.activation_kinds(),
            vec![ActivationKind::Relu, ActivationKind::Relu6]
        );
        assert_eq!(c.pooling_kinds(), vec![PoolingKind::MaxPool]);
        assert_eq!(c.systolic_groups(), 1);
    }

    #[test]
    fn validate_accepts_well_formed_configs() {
        let mut cfg =
            DesignConfig::monolithic("c", hw(), classes(&[OpClass::Conv2d, OpClass::Linear]));
        assert!(cfg.validate().is_ok());
        cfg.chiplets = vec![
            Chiplet::from_classes("L1", classes(&[OpClass::Conv2d]), &hw()),
            Chiplet::from_classes("L2", classes(&[OpClass::Linear]), &hw()),
        ];
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_duplicated_class() {
        let mut cfg =
            DesignConfig::monolithic("c", hw(), classes(&[OpClass::Conv2d, OpClass::Linear]));
        cfg.chiplets = vec![
            Chiplet::from_classes("L1", classes(&[OpClass::Conv2d, OpClass::Linear]), &hw()),
            Chiplet::from_classes("L2", classes(&[OpClass::Linear]), &hw()),
        ];
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("two chiplets"), "{err}");
    }

    #[test]
    fn validate_rejects_uncovered_class() {
        let mut cfg =
            DesignConfig::monolithic("c", hw(), classes(&[OpClass::Conv2d, OpClass::Linear]));
        cfg.chiplets = vec![Chiplet::from_classes(
            "L1",
            classes(&[OpClass::Conv2d]),
            &hw(),
        )];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn monolithic_area_helper_matches_config_area() {
        let cfg = DesignConfig::monolithic(
            "c",
            hw(),
            classes(&[
                OpClass::Conv2d,
                OpClass::Linear,
                OpClass::Activation(ActivationKind::Relu),
            ]),
        );
        let direct = monolithic_area_mm2(&cfg.classes, &cfg.hw);
        assert_eq!(direct.to_bits(), cfg.area_mm2().to_bits());
    }

    #[test]
    fn area_tables_match_the_closed_form_at_every_grid_point() {
        use claire_model::PoolingKind;
        let classes = classes(&[
            OpClass::Conv2d,
            OpClass::Linear,
            OpClass::Activation(ActivationKind::Gelu),
            OpClass::Pooling(PoolingKind::MaxPool),
            OpClass::Pooling(PoolingKind::AvgPool),
            OpClass::Flatten,
        ]);
        let axes = SpaceAxes {
            sa_sizes: vec![48, 12],
            n_sas: vec![8, 8, 64],
            n_acts: vec![4],
            n_pools: vec![32, 4, 16],
        };
        let tables = AreaTables::new(&classes, &axes);
        for index in 0..2 * 3 * 3 {
            let at = axes.decode(index);
            let hw = axes.point(at).unwrap();
            assert_eq!(
                tables.area_mm2(at).to_bits(),
                monolithic_area_mm2(&classes, &hw).to_bits(),
                "{hw}"
            );
        }
    }

    #[test]
    fn row_fold_matches_the_closed_form_for_every_zoo_model() {
        use claire_ppa::{DesignSpace, DseSpace};
        let dense = DseSpace::dense(16).axes();
        let reversed = SpaceAxes {
            n_pools: dense.n_pools.iter().rev().copied().collect(),
            ..dense.clone()
        };
        let class_sets: BTreeSet<BTreeSet<OpClass>> = claire_model::zoo::TABLE
            .iter()
            .map(|(_, make)| make().op_class_counts().keys().copied().collect())
            .collect();
        let np = dense.n_pools.len();
        let rows = dense.sa_sizes.len() * dense.n_sas.len() * dense.n_acts.len();
        for classes in &class_sets {
            for axes in [&dense, &reversed] {
                let tables = AreaTables::new(classes, axes);
                for row in 0..rows {
                    let shared = tables.row_mm2(axes.decode(row * np));
                    for pi in 0..np {
                        let at = axes.decode(row * np + pi);
                        let hw = axes.point(at).expect("dense values are non-zero");
                        assert_eq!(
                            tables.area_in_row(shared, at).to_bits(),
                            monolithic_area_mm2(classes, &hw).to_bits(),
                            "{hw} {classes:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_constraints_match_paper() {
        let c = Constraints::default();
        assert_eq!(c.chiplet_area_limit_mm2, 100.0);
        assert_eq!(c.latency_slack, 0.5);
    }
}
