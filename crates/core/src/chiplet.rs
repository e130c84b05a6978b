//! Step #TR3/#TT4: clustering the monolithic graph into chiplets with
//! Louvain community detection.

use crate::config::{Chiplet, Constraints, DesignConfig};
use crate::error::ClaireError;
use crate::parallel::Engine;
use claire_graph::{louvain_csr, CsrGraph, Partition, WeightedGraph};
use claire_model::{Model, OpClass};
use claire_ppa::unit_area_mm2;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Partitions `config`'s module groups into chiplets by running
/// Louvain on the universal communication graph of `workloads` under
/// the configuration's hardware parameters, then materialises each
/// community as a [`Chiplet`] named `L1`, `L2`, … (`name_prefix`
/// selects the letter).
///
/// If a community's silicon area exceeds the chiplet area limit, the
/// clustering re-runs at a higher Louvain resolution (more, smaller
/// communities) until every chiplet fits.
///
/// Module classes of the configuration that never appear in the
/// workloads' graphs (e.g. the always-provisioned tanh block of the
/// generic configuration) are attached to the community hosting their
/// natural companion (GELU for tanh) or the last chiplet.
///
/// # Errors
///
/// [`ClaireError::ChipletAreaUnsatisfiable`] when a single module
/// group is larger than the limit — no partition can fix that.
pub fn cluster_into_chiplets(
    config: &mut DesignConfig,
    workloads: &[Model],
    constraints: &Constraints,
    resolution: f64,
) -> Result<(), ClaireError> {
    precheck_group_areas(config, constraints)?;
    let ug = crate::graphs::universal_graph(workloads, &config.hw);
    let csr = CsrGraph::from_weighted(&ug);
    cluster_attempts(config, constraints, &ug, resolution, |gamma| {
        Arc::new(louvain_csr(&csr, gamma))
    })
}

/// [`cluster_into_chiplets`] with the universal graph served from the
/// engine's graph memo tier and each Louvain partition served
/// from the engine's `(graph, γ)` memo tier
/// ([`Engine::louvain_partition`]). The CSR kernel graph is interned
/// **once**; the resolution-escalation loop re-clusters flat arrays
/// instead of rebuilding maps. Bit-identical to
/// [`cluster_into_chiplets`].
///
/// # Errors
///
/// Same as [`cluster_into_chiplets`].
pub fn cluster_into_chiplets_with_engine(
    config: &mut DesignConfig,
    workloads: &[Model],
    constraints: &Constraints,
    resolution: f64,
    engine: &Engine,
) -> Result<(), ClaireError> {
    precheck_group_areas(config, constraints)?;
    let ug = engine.universal_csr(workloads, &config.hw);
    cluster_attempts(config, constraints, &ug.graph, resolution, |gamma| {
        engine.louvain_partition(&ug.csr, gamma)
    })
}

/// A lone module group bigger than the limit can never fit.
fn precheck_group_areas(
    config: &DesignConfig,
    constraints: &Constraints,
) -> Result<(), ClaireError> {
    for &class in &config.classes {
        let area = unit_area_mm2(class, &config.hw);
        if area > constraints.chiplet_area_limit_mm2 {
            return Err(ClaireError::ChipletAreaUnsatisfiable {
                group: class.label(),
                area_mm2: area,
                limit_mm2: constraints.chiplet_area_limit_mm2,
            });
        }
    }
    Ok(())
}

/// The shared escalation loop: ask `partition_at` for the Louvain
/// partition at `γ, 1.5γ, 2.25γ, …` (successively finer) until every
/// materialised chiplet fits the area limit, then place.
fn cluster_attempts(
    config: &mut DesignConfig,
    constraints: &Constraints,
    ug: &WeightedGraph<OpClass>,
    resolution: f64,
    partition_at: impl Fn(f64) -> Arc<Partition<OpClass>>,
) -> Result<(), ClaireError> {
    let mut gamma = resolution;
    for _attempt in 0..12 {
        let partition = partition_at(gamma);
        gamma *= 1.5;
        let mut groups: Vec<BTreeSet<OpClass>> = partition
            .communities()
            .iter()
            .map(|c| c.iter().copied().collect())
            .collect();
        if groups.is_empty() {
            groups.push(BTreeSet::new());
        }

        // Attach configuration classes absent from the workload graphs.
        for &class in &config.classes {
            if groups.iter().any(|g| g.contains(&class)) {
                continue;
            }
            let companion = match class {
                OpClass::Activation(claire_model::ActivationKind::Tanh) => {
                    OpClass::Activation(claire_model::ActivationKind::Gelu)
                }
                other => other,
            };
            let target = groups
                .iter()
                .position(|g| g.contains(&companion))
                .unwrap_or(groups.len() - 1);
            groups[target].insert(class);
        }
        // Drop graph nodes that are not part of this configuration
        // (cannot happen in the normal flow; defensive).
        for g in &mut groups {
            g.retain(|c| config.classes.contains(c));
        }
        groups.retain(|g| !g.is_empty());

        let chiplets: Vec<Chiplet> = groups
            .iter()
            .enumerate()
            .map(|(i, g)| Chiplet::from_classes(format!("L{}", i + 1), g.clone(), &config.hw))
            .collect();

        if chiplets
            .iter()
            .all(|c| c.area_mm2 <= constraints.chiplet_area_limit_mm2)
        {
            config.chiplets = chiplets;
            // Place the chiplets on the interposer by their mutual
            // traffic (only meaningful beyond one chiplet).
            config.placement = if config.chiplets.len() > 1 {
                let traffic = crate::place::chiplet_traffic(config, ug);
                Some(crate::place::place(config.chiplets.len(), &traffic))
            } else {
                None
            };
            return Ok(());
        }
        // Area limit violated: retry at a higher γ.
    }

    // Resolution escalation failed; report the largest offender.
    // total_cmp orders any area values (NaN included) without
    // panicking; areas are finite in practice so the order matches
    // partial_cmp.
    match config
        .classes
        .iter()
        .max_by(|a, b| unit_area_mm2(**a, &config.hw).total_cmp(&unit_area_mm2(**b, &config.hw)))
    {
        Some(worst) => Err(ClaireError::ChipletAreaUnsatisfiable {
            group: worst.label(),
            area_mm2: unit_area_mm2(*worst, &config.hw),
            limit_mm2: constraints.chiplet_area_limit_mm2,
        }),
        None => Err(ClaireError::Internal {
            detail: "cluster_attempts on a configuration with no module classes".to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_model::zoo;
    use claire_ppa::HwParams;

    fn config_for(models: &[Model], name: &str) -> DesignConfig {
        let classes: BTreeSet<OpClass> = models
            .iter()
            .flat_map(|m| m.op_class_counts().into_keys())
            .collect();
        DesignConfig::monolithic(name, HwParams::new(32, 32, 16, 16), classes)
    }

    #[test]
    fn resnet_splits_compute_and_head() {
        // A CNN's feature extractor (conv/relu/pool) and its classifier
        // head communicate weakly: Louvain produces 2 chiplets.
        let models = [zoo::resnet18()];
        let mut cfg = config_for(&models, "C_Resnet18");
        cluster_into_chiplets(&mut cfg, &models, &Constraints::default(), 1.0).unwrap();
        assert_eq!(cfg.chiplet_count(), 2, "{:?}", cfg.chiplets);
    }

    #[test]
    fn transformer_is_one_chiplet() {
        let models = [zoo::bert_base()];
        let mut cfg = config_for(&models, "C_BERT");
        cluster_into_chiplets(&mut cfg, &models, &Constraints::default(), 1.0).unwrap();
        assert_eq!(cfg.chiplet_count(), 1, "{:?}", cfg.chiplets);
    }

    #[test]
    fn chiplets_partition_all_classes() {
        let models = [zoo::alexnet()];
        let mut cfg = config_for(&models, "C_Alexnet");
        cluster_into_chiplets(&mut cfg, &models, &Constraints::default(), 1.0).unwrap();
        let total: usize = cfg.chiplets.iter().map(|c| c.classes.len()).sum();
        assert_eq!(total, cfg.classes.len());
        for class in &cfg.classes {
            assert!(cfg.chiplet_of(*class).is_some(), "{class} unplaced");
        }
    }

    #[test]
    fn chiplet_names_are_sequential() {
        let models = [zoo::resnet50()];
        let mut cfg = config_for(&models, "C_Resnet50");
        cluster_into_chiplets(&mut cfg, &models, &Constraints::default(), 1.0).unwrap();
        for (i, c) in cfg.chiplets.iter().enumerate() {
            assert_eq!(c.name, format!("L{}", i + 1));
        }
    }

    #[test]
    fn every_chiplet_respects_area_limit() {
        let models = zoo::training_set();
        let mut cfg = config_for(&models, "C_g");
        let cons = Constraints::default();
        cluster_into_chiplets(&mut cfg, &models, &cons, 1.0).unwrap();
        for c in &cfg.chiplets {
            assert!(c.area_mm2 <= cons.chiplet_area_limit_mm2, "{:?}", c);
        }
    }

    #[test]
    fn provisioned_tanh_lands_next_to_gelu() {
        // The generic configuration provisions a tanh block even though
        // no training algorithm exercises it; it must co-locate with
        // GELU (same hardware family).
        let models = [zoo::vit_base()];
        let mut cfg = config_for(&models, "C");
        cfg.classes
            .insert(OpClass::Activation(claire_model::ActivationKind::Tanh));
        cluster_into_chiplets(&mut cfg, &models, &Constraints::default(), 1.0).unwrap();
        let tanh_chiplet = cfg
            .chiplet_of(OpClass::Activation(claire_model::ActivationKind::Tanh))
            .unwrap();
        let gelu_chiplet = cfg
            .chiplet_of(OpClass::Activation(claire_model::ActivationKind::Gelu))
            .unwrap();
        assert_eq!(tanh_chiplet, gelu_chiplet);
    }

    #[test]
    fn engine_clustering_is_bit_identical_and_memoized() {
        let models = [zoo::resnet18(), zoo::alexnet()];
        let cons = Constraints::default();
        let mut plain = config_for(&models, "C");
        cluster_into_chiplets(&mut plain, &models, &cons, 1.0).unwrap();

        let engine = Engine::new(2);
        let mut memo = config_for(&models, "C");
        cluster_into_chiplets_with_engine(&mut memo, &models, &cons, 1.0, &engine).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{memo:?}"));

        // Re-clustering the same workload graph hits the Louvain memo
        // tier.
        let mut again = config_for(&models, "C");
        cluster_into_chiplets_with_engine(&mut again, &models, &cons, 1.0, &engine).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{again:?}"));
        let stats = engine.stats();
        assert!(stats.louvain_hits >= 1, "{stats:?}");
        assert!(stats.louvain_entries >= 1);
    }

    #[test]
    fn oversized_group_is_unsatisfiable() {
        let models = [zoo::bert_base()];
        let mut cfg = config_for(&models, "C");
        let cons = Constraints {
            chiplet_area_limit_mm2: 5.0,
            ..Constraints::default()
        };
        let err = cluster_into_chiplets(&mut cfg, &models, &cons, 1.0).unwrap_err();
        assert!(matches!(err, ClaireError::ChipletAreaUnsatisfiable { .. }));
    }
}
