//! The [`Model`] type: a named sequence of extracted layers plus
//! aggregate queries used throughout the framework (parameter counts,
//! MAC totals, op-class inventories, and the layer-connection edges of
//! Step #TR1).

use crate::fxhash::FxBuildHasher;
use crate::layer::{Layer, LayerKind, OpClass};
use crate::name::{LayerName, LayerPath, PathRef};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock, Weak};

/// Broad workload family, mirroring the "Type" column of the paper's
/// Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ModelClass {
    /// Convolutional neural network.
    Cnn,
    /// Region-based CNN (detection / navigation).
    Rcnn,
    /// Decoder-style large language model.
    Llm,
    /// Mixture-of-experts LLM.
    MoeLlm,
    /// Encoder-style transformer (vision / audio / text).
    Transformer,
}

impl fmt::Display for ModelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelClass::Cnn => "CNN",
            ModelClass::Rcnn => "RCNN",
            ModelClass::Llm => "LLM",
            ModelClass::MoeLlm => "MoE LLM",
            ModelClass::Transformer => "Transformer",
        };
        f.write_str(s)
    }
}

/// An AI algorithm as the CLAIRE framework sees it: an ordered list of
/// compute layers plus bookkeeping for parameters that live outside the
/// considered layer types (embedding tables, normalisation scales).
///
/// The paper's parser "reads this layer information file, parses it, and
/// extracts details for each layer"; [`Model`] is the in-memory result.
///
/// A `Model` is an immutable handle: its layers and the structural
/// summaries derived from them (per-class counts and work weights, the
/// class mask, class-pair edge byte totals and edge families) sit
/// behind one shared allocation, so a clone is a reference-count bump
/// and every clone reads the summaries its source already derived.
/// Each summary is derived in one walk over the layers, on first use.
///
/// # Example
///
/// ```
/// use claire_model::zoo;
///
/// let gpt2 = zoo::gpt2();
/// // GPT-2 is the training algorithm that uses 1-D convolution modules.
/// assert!(gpt2
///     .op_class_weights()
///     .contains_key(&claire_model::OpClass::Conv1d));
/// ```
#[derive(Clone)]
pub struct Model {
    inner: Arc<ModelInner>,
}

/// A non-owning handle on a [`Model`] (see [`Model::downgrade`]), for
/// caches keyed by [`Model::instance_id`] that must not outlive the
/// instances they key.
#[derive(Debug)]
pub struct WeakModel {
    inner: Weak<ModelInner>,
}

impl WeakModel {
    /// Whether any [`Model`] handle on the model — the one downgraded
    /// or a clone of it — is still alive.
    pub fn is_live(&self) -> bool {
        self.inner.strong_count() > 0
    }
}

/// The shared body of a [`Model`] handle.
struct ModelInner {
    name: String,
    class: ModelClass,
    layers: Vec<Layer>,
    /// Parameters in modules outside the considered layer types
    /// (embeddings, norms). Counted in [`Model::param_count`] so Table I
    /// totals are faithful, but never mapped to hardware nodes.
    extra_params: u64,
    /// Process-unique instance id (see [`Model::instance_id`]); shared
    /// by clones, fresh per construction/deserialisation. Excluded from
    /// equality and serialisation.
    instance_id: u64,
    summary: OnceLock<Summary>,
}

/// Engine-independent facts about a layer sequence, derived in one
/// walk (see [`Summary::of`]).
#[derive(Debug)]
struct Summary {
    /// Layers per class, by [`OpClass::index`].
    counts: [u32; OpClass::COUNT],
    /// Work weight per class, by [`OpClass::index`]: each layer's MACs
    /// (systolic classes) or element operations, added in layer order
    /// from `0.0`.
    weights: [f64; OpClass::COUNT],
    /// [`OpClass::bit`]s of the classes with at least one layer.
    mask: u16,
    /// Per present `(from, to)` class pair, in pair order, the bytes
    /// summed over its edges; `None` when some sum overflows `u64`.
    edge_bytes: Option<Box<[(OpClass, OpClass, u64)]>>,
    /// The distinct `(from, to, bytes)` edges, in first-seen order.
    families: Box<[(OpClass, OpClass, u64)]>,
    /// Per edge, in execution order, its index into `families`.
    family_of_edge: Box<[u32]>,
}

impl Summary {
    fn of(layers: &[Layer]) -> Summary {
        let mut counts = [0u32; OpClass::COUNT];
        let mut weights = [0.0f64; OpClass::COUNT];
        for l in layers {
            let class = l.op_class();
            let w = if class.is_systolic() {
                l.macs() as f64
            } else {
                l.element_ops() as f64
            };
            counts[class.index()] += 1;
            weights[class.index()] += w;
        }
        let mask = (0..OpClass::COUNT)
            .filter(|&i| counts[i] > 0)
            .fold(0u16, |m, i| m | 1 << i);

        let mut ids: HashMap<(OpClass, OpClass, u64), u32, FxBuildHasher> = HashMap::default();
        let mut families = Vec::new();
        let mut family_of_edge = Vec::with_capacity(layers.len().saturating_sub(1));
        // Per (from, to) index pair: absent, or the running byte sum.
        let mut sums = [[None::<u64>; OpClass::COUNT]; OpClass::COUNT];
        let mut overflow = false;
        for pair in layers.windows(2) {
            let edge = (
                pair[0].op_class(),
                pair[1].op_class(),
                pair[0].output_elements(),
            );
            let next = families.len() as u32;
            let family = *ids.entry(edge).or_insert_with(|| {
                families.push(edge);
                next
            });
            family_of_edge.push(family);
            let sum = &mut sums[edge.0.index()][edge.1.index()];
            match sum.unwrap_or(0).checked_add(edge.2) {
                Some(s) => *sum = Some(s),
                None => overflow = true,
            }
        }
        let edge_bytes = (!overflow).then(|| {
            let all = OpClass::all();
            all.iter()
                .flat_map(|&a| all.iter().map(move |&b| (a, b)))
                .filter_map(|(a, b)| sums[a.index()][b.index()].map(|bytes| (a, b, bytes)))
                .collect()
        });
        Summary {
            counts,
            weights,
            mask,
            edge_bytes,
            families: families.into(),
            family_of_edge: family_of_edge.into(),
        }
    }
}

/// The structural fields and the instance id, as a derived `Debug`
/// over them would print them. The summaries are left out: whether
/// one is derived yet depends on which queries ran, and the output
/// must not.
impl fmt::Debug for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = &*self.inner;
        f.debug_struct("Model")
            .field("name", &m.name)
            .field("class", &m.class)
            .field("layers", &m.layers)
            .field("extra_params", &m.extra_params)
            .field("instance_id", &m.instance_id)
            .finish()
    }
}

/// Structural equality — the instance id is deliberately ignored, so a
/// deserialised or independently rebuilt model equals the original.
impl PartialEq for Model {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.inner, &*other.inner);
        a.name == b.name
            && a.class == b.class
            && a.layers == b.layers
            && a.extra_params == b.extra_params
    }
}

/// Serialisation proxy carrying only the structural fields.
#[derive(Serialize, Deserialize)]
struct ModelRepr {
    name: String,
    class: ModelClass,
    layers: Vec<Layer>,
    extra_params: u64,
}

impl Serialize for Model {
    fn to_value(&self) -> serde::Value {
        ModelRepr {
            name: self.inner.name.clone(),
            class: self.inner.class,
            layers: self.inner.layers.clone(),
            extra_params: self.inner.extra_params,
        }
        .to_value()
    }
}

impl Deserialize for Model {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        ModelRepr::from_value(v).map(|r| Model::new(r.name, r.class, r.layers, r.extra_params))
    }
}

/// Monotonic source of [`Model::instance_id`] values.
static NEXT_INSTANCE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Model {
    /// Creates a model from parts.
    ///
    /// Most callers should use [`ModelBuilder`] or the [`crate::zoo`]
    /// constructors instead.
    pub fn new(
        name: impl Into<String>,
        class: ModelClass,
        layers: Vec<Layer>,
        extra_params: u64,
    ) -> Self {
        Model {
            inner: Arc::new(ModelInner {
                name: name.into(),
                class,
                layers,
                extra_params,
                instance_id: NEXT_INSTANCE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                summary: OnceLock::new(),
            }),
        }
    }

    /// A process-unique identity for memoization: every construction
    /// (including deserialisation) gets a fresh id, and clones share
    /// their source's. Models are immutable after construction, so two
    /// models with the same id are guaranteed structurally identical —
    /// caches may key on `(instance_id, …)` without content hashing.
    /// The converse does not hold (equal content, different ids), which
    /// costs a cache a miss, never correctness.
    pub fn instance_id(&self) -> u64 {
        self.inner.instance_id
    }

    /// A [`WeakModel`] on this model: it holds none of the model's
    /// data alive, and tells when the last handle on it has dropped.
    pub fn downgrade(&self) -> WeakModel {
        WeakModel {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Algorithm name as listed in the paper's tables.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Workload family (Table I "Type" column).
    pub fn class(&self) -> ModelClass {
        self.inner.class
    }

    /// The extracted layers in execution order. Clones share one
    /// layer buffer.
    pub fn layers(&self) -> &[Layer] {
        &self.inner.layers
    }

    /// The structural summaries, derived on first use.
    fn summary(&self) -> &Summary {
        self.inner
            .summary
            .get_or_init(|| Summary::of(&self.inner.layers))
    }

    /// Total trainable parameters (layer parameters + embedding/norm
    /// parameters recorded at construction).
    pub fn param_count(&self) -> u64 {
        self.layers()
            .iter()
            .map(Layer::params)
            .fold(self.inner.extra_params, u64::saturating_add)
    }

    /// Total multiply-accumulate operations for one inference.
    pub fn macs(&self) -> u64 {
        self.layers()
            .iter()
            .map(Layer::macs)
            .fold(0, u64::saturating_add)
    }

    /// Total element-wise (activation / pooling / reshape) operations.
    pub fn element_ops(&self) -> u64 {
        self.layers()
            .iter()
            .map(Layer::element_ops)
            .fold(0, u64::saturating_add)
    }

    /// Total activation bytes flowing between layers (8-bit elements).
    pub fn activation_bytes(&self) -> u64 {
        self.edges()
            .iter()
            .map(|(_, _, b)| *b)
            .fold(0, u64::saturating_add)
    }

    /// Arithmetic intensity: MACs per byte of weights + inter-layer
    /// activations (8-bit). High values are compute-bound on any
    /// sane memory system; low values live on the memory wall.
    pub fn arithmetic_intensity(&self) -> f64 {
        let weight_bytes = self
            .layers()
            .iter()
            .map(Layer::params)
            .fold(0u64, u64::saturating_add);
        let traffic = weight_bytes.saturating_add(self.activation_bytes());
        if traffic == 0 {
            return 0.0;
        }
        self.macs() as f64 / traffic as f64
    }

    /// The set of hardware-unit classes this algorithm needs, with the
    /// number of layers mapping to each — the basis of the node weights
    /// `w_N` and of algorithm coverage `C_layer`.
    pub fn op_class_counts(&self) -> BTreeMap<OpClass, u32> {
        let s = self.summary();
        OpClass::from_mask(s.mask)
            .map(|c| (c, s.counts[c.index()]))
            .collect()
    }

    /// Work-weighted op-class vector: for systolic classes the weight is
    /// total MACs, for the rest total element operations. This is the
    /// vector the weighted Jaccard similarity (Step #TR2 line 14 and
    /// Step #TT1) compares. Each class's weight is its layers' weights
    /// added in layer order from `0.0`.
    pub fn op_class_weights(&self) -> BTreeMap<OpClass, f64> {
        let s = self.summary();
        OpClass::from_mask(s.mask)
            .map(|c| (c, s.weights[c.index()]))
            .collect()
    }

    /// [`OpClass::bit`]s of the classes this algorithm's layers map
    /// onto: the key set of [`Model::op_class_counts`] as one word.
    pub fn class_mask(&self) -> u16 {
        self.summary().mask
    }

    /// Data volume (elements) flowing between consecutive layer classes:
    /// the per-model edge list `(E, w_E)` of the initial graph
    /// `G_ini(N, E, w_N, w_E)`.
    pub fn edges(&self) -> Vec<(OpClass, OpClass, u64)> {
        self.layers()
            .windows(2)
            .map(|pair| {
                (
                    pair[0].op_class(),
                    pair[1].op_class(),
                    pair[0].output_elements(),
                )
            })
            .collect()
    }

    /// [`Model::edges`] summed per `(from, to)` class pair, one entry
    /// per pair with at least one edge, in pair order: the edge weights
    /// of `G_ini` as exact integers. `None` when some pair's sum
    /// overflows `u64`.
    pub fn edge_byte_totals(&self) -> Option<&[(OpClass, OpClass, u64)]> {
        self.summary().edge_bytes.as_deref()
    }

    /// The distinct `(from, to, bytes)` entries of [`Model::edges`], in
    /// order of first occurrence. Anything priced per edge from these
    /// three values alone can be priced once per family and expanded
    /// through [`Model::edge_family_index`].
    pub fn edge_families(&self) -> &[(OpClass, OpClass, u64)] {
        &self.summary().families
    }

    /// Per edge of [`Model::edges`], in execution order, the index of
    /// its entry in [`Model::edge_families`]. Families are numbered in
    /// order of first occurrence, so each index is at most one more
    /// than the largest before it.
    pub fn edge_family_index(&self) -> &[u32] {
        &self.summary().family_of_edge
    }

    /// Edge-combination counts keyed by (source label, destination
    /// label) — the data behind the paper's Fig. 2 histogram.
    pub fn edge_combination_counts(&self) -> BTreeMap<(OpClass, OpClass), u32> {
        let mut m = BTreeMap::new();
        for pair in self.layers().windows(2) {
            *m.entry((pair[0].op_class(), pair[1].op_class()))
                .or_insert(0) += 1;
        }
        m
    }

    /// Number of extracted layers.
    pub fn layer_count(&self) -> usize {
        self.layers().len()
    }

    /// True when every layer's op class is contained in `supported` —
    /// i.e. algorithm coverage `C_layer` would be 100 %.
    pub fn covered_by<'a, I>(&self, supported: I) -> bool
    where
        I: IntoIterator<Item = &'a OpClass>,
    {
        let supported = supported.into_iter().fold(0u16, |m, c| m | c.bit());
        self.class_mask() & !supported == 0
    }
}

/// Incremental constructor used by the [`crate::zoo`] generators.
///
/// Tracks the "current" feature-map/sequence shape so that repeated
/// blocks can be emitted with correct dimensions, exactly as a layer-by-
/// layer walk over a `print(model)` dump would produce them.
///
/// Layer paths go into one name buffer, which [`ModelBuilder::build`]
/// freezes once: every [`LayerName`] of the built model shares it, and
/// pushing a layer allocates nothing of its own.
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    name: String,
    class: ModelClass,
    /// Every pushed path (and block prefix), back to back.
    names: String,
    /// Per pushed layer, its path's range in `names` and its metadata.
    layers: Vec<(Range<usize>, LayerKind)>,
    extra_params: u64,
}

impl ModelBuilder {
    /// Starts a new model description.
    pub fn new(name: impl Into<String>, class: ModelClass) -> Self {
        ModelBuilder {
            name: name.into(),
            class,
            names: String::new(),
            layers: Vec::new(),
            extra_params: 0,
        }
    }

    /// Appends a layer whose module path is `name`: text, or
    /// `format_args!(…)` to write an indexed path without allocating.
    pub fn push(&mut self, name: impl LayerPath, kind: LayerKind) -> &mut Self {
        let start = name.append(&mut self.names);
        self.layers.push((start..self.names.len(), kind));
        self
    }

    /// Writes a block prefix into the name buffer without pushing a
    /// layer; its children (`prefix.child("conv1")`) copy it from
    /// there, and the first one right after it extends it in place.
    pub(crate) fn prefix(&mut self, path: impl LayerPath) -> PathRef {
        let start = path.append(&mut self.names);
        PathRef::new(start..self.names.len())
    }

    /// The last pushed layer's path (empty before the first push).
    pub(crate) fn last_path(&self) -> PathRef {
        PathRef::new(self.layers.last().map_or(0..0, |(range, _)| range.clone()))
    }

    /// Records parameters that live outside the considered layer types
    /// (embedding tables, layer norms). They count toward
    /// [`Model::param_count`] but produce no hardware nodes.
    pub fn extra_params(&mut self, params: u64) -> &mut Self {
        self.extra_params += params;
        self
    }

    /// Number of layers pushed so far (useful for generated names).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when no layer has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Finalises the model.
    ///
    /// # Panics
    ///
    /// Panics if no layers were pushed — an empty algorithm cannot be
    /// mapped onto hardware.
    pub fn build(self) -> Model {
        assert!(
            !self.layers.is_empty(),
            "model `{}` has no layers",
            self.name
        );
        let text: Arc<str> = Arc::from(self.names);
        let layers = self
            .layers
            .into_iter()
            .map(|(range, kind)| Layer {
                name: LayerName::in_buffer(&text, range),
                kind,
            })
            .collect();
        Model::new(self.name, self.class, layers, self.extra_params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, ActivationKind, Conv2d, Linear};

    fn tiny() -> Model {
        let mut b = ModelBuilder::new("tiny", ModelClass::Cnn);
        b.push(
            "conv",
            LayerKind::Conv2d(Conv2d {
                in_channels: 3,
                out_channels: 8,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
                ifm: (8, 8),
                groups: 1,
            }),
        );
        b.push(
            "relu",
            LayerKind::Activation(Activation {
                kind: ActivationKind::Relu,
                elements: 8 * 8 * 8,
            }),
        );
        b.push(
            "fc",
            LayerKind::Linear(Linear {
                in_features: 512,
                out_features: 10,
                tokens: 1,
            }),
        );
        b.build()
    }

    #[test]
    fn param_count_sums_layers_and_extras() {
        let mut b = ModelBuilder::new("m", ModelClass::Llm);
        b.push(
            "fc",
            LayerKind::Linear(Linear {
                in_features: 4,
                out_features: 4,
                tokens: 1,
            }),
        );
        b.extra_params(100);
        let m = b.build();
        assert_eq!(m.param_count(), 4 * 4 + 4 + 100);
    }

    #[test]
    fn edges_follow_execution_order() {
        let m = tiny();
        let e = m.edges();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].0, OpClass::Conv2d);
        assert_eq!(e[0].1, OpClass::Activation(ActivationKind::Relu));
        // edge weight = conv output volume
        assert_eq!(e[0].2, 8 * 8 * 8);
    }

    #[test]
    fn op_class_counts_are_per_class() {
        let m = tiny();
        let c = m.op_class_counts();
        assert_eq!(c[&OpClass::Conv2d], 1);
        assert_eq!(c[&OpClass::Linear], 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn coverage_requires_all_classes() {
        let m = tiny();
        let full = OpClass::all();
        assert!(m.covered_by(full.iter()));
        let partial = [OpClass::Conv2d, OpClass::Linear];
        assert!(!m.covered_by(partial.iter()));
    }

    #[test]
    fn weights_split_macs_and_element_ops() {
        let m = tiny();
        let w = m.op_class_weights();
        assert!(w[&OpClass::Conv2d] > 0.0);
        assert_eq!(
            w[&OpClass::Activation(ActivationKind::Relu)],
            (8 * 8 * 8) as f64
        );
    }

    #[test]
    fn arithmetic_intensity_is_macs_per_byte() {
        let m = tiny();
        let weights: u64 = m.layers().iter().map(|l| l.params()).sum();
        let expected = m.macs() as f64 / (weights + m.activation_bytes()) as f64;
        assert!((m.arithmetic_intensity() - expected).abs() < 1e-12);
        assert!(m.arithmetic_intensity() > 0.0);
    }

    #[test]
    #[should_panic(expected = "no layers")]
    fn empty_model_panics() {
        ModelBuilder::new("empty", ModelClass::Cnn).build();
    }

    #[test]
    fn serde_round_trip() {
        let m = tiny();
        let json = serde_json::to_string(&m).unwrap();
        let back: Model = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn clones_share_the_layer_buffer_and_the_instance_id() {
        let m = tiny();
        let c = m.clone();
        assert_eq!(c.layers().as_ptr(), m.layers().as_ptr());
        assert_eq!(c.instance_id(), m.instance_id());
        assert_eq!(c, m);
        // A summary derived through one handle is the other's too.
        assert_eq!(m.class_mask(), c.class_mask());
        assert!(std::ptr::eq(m.edge_families(), c.edge_families()));
    }

    #[test]
    fn a_weak_model_is_live_while_any_clone_is() {
        let m = tiny();
        let weak = m.downgrade();
        let c = m.clone();
        drop(m);
        assert!(weak.is_live());
        drop(c);
        assert!(!weak.is_live());
    }

    #[test]
    fn deserialised_model_is_equal_but_a_fresh_instance() {
        let m = tiny();
        let back: Model = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(back, m);
        assert_ne!(back.instance_id(), m.instance_id());
        assert_ne!(back.layers().as_ptr(), m.layers().as_ptr());
        assert_eq!(format!("{back:?}").len(), format!("{m:?}").len());
    }

    #[test]
    fn debug_renders_the_plain_fields() {
        let m = tiny();
        let text = format!("{m:?}");
        assert!(text.starts_with("Model { name: \"tiny\", class: Cnn, layers: ["));
        assert!(text.ends_with(&format!(
            "extra_params: 0, instance_id: {} }}",
            m.instance_id()
        )));
    }

    #[test]
    fn edge_summaries_follow_the_edge_list() {
        let mut b = ModelBuilder::new("rep", ModelClass::Llm);
        let fc = LayerKind::Linear(Linear {
            in_features: 8,
            out_features: 8,
            tokens: 2,
        });
        let act = LayerKind::Activation(Activation {
            kind: ActivationKind::Gelu,
            elements: 16,
        });
        for kind in [fc, act, fc, act, fc, fc] {
            b.push("l", kind);
        }
        let m = b.build();
        let edges = m.edges();
        let families = m.edge_families();
        let index = m.edge_family_index();
        assert_eq!(index.len(), edges.len());
        for (edge, &f) in edges.iter().zip(index) {
            assert_eq!(families[f as usize], *edge);
        }
        assert_eq!(families.len(), 3, "fc->act, act->fc, fc->fc");
        let gelu = OpClass::Activation(ActivationKind::Gelu);
        assert_eq!(
            m.edge_byte_totals().unwrap(),
            [
                (OpClass::Linear, OpClass::Linear, 16),
                (OpClass::Linear, gelu, 32),
                (gelu, OpClass::Linear, 32),
            ]
        );
    }

    #[test]
    fn zero_work_layers_keep_their_class() {
        let mut b = ModelBuilder::new("idle", ModelClass::Cnn);
        b.push(
            "a",
            LayerKind::Activation(Activation {
                kind: ActivationKind::Silu,
                elements: 0,
            }),
        );
        let m = b.build();
        let silu = OpClass::Activation(ActivationKind::Silu);
        assert_eq!(m.class_mask(), silu.bit());
        assert_eq!(m.op_class_counts()[&silu], 1);
        assert_eq!(m.op_class_weights()[&silu], 0.0);
        assert!(!m.covered_by([OpClass::Conv2d].iter()));
    }

    #[test]
    fn edge_byte_totals_report_u64_overflow() {
        let mut b = ModelBuilder::new("huge", ModelClass::Cnn);
        let big = |kind| {
            LayerKind::Activation(Activation {
                kind,
                elements: 1 << 63,
            })
        };
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Gelu,
            ActivationKind::Relu,
            ActivationKind::Gelu,
            ActivationKind::Relu,
        ] {
            b.push("a", big(kind));
        }
        let m = b.build();
        assert_eq!(m.edge_byte_totals(), None, "2^63 + 2^63 overflows");
        assert_eq!(m.edge_families().len(), 2);
    }
}
