//! The four workloads and the inputs each one's seed generates. The
//! seed only picks inputs and their order or arrival times; the program
//! under test receives nothing but the generated inputs.

use crate::stats::{Rng, Rounds};
use serde_json::Value;

/// A benchmark workload. The names are cited by later changes and must
/// stay as they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back `flow --json` processes with empty memo tiers.
    FlowCold,
    /// The same flows, each reading a primed `--cache-dir` snapshot.
    FlowWarm,
    /// Mixed requests against one resident `serve` over a unix socket.
    ServeMixed,
    /// Back-to-back `custom` processes over the 65,536-point space.
    DseDense,
}

impl Workload {
    /// Every workload, in the order `run` and `trace` visit them.
    pub const ALL: [Workload; 4] = [
        Workload::FlowCold,
        Workload::FlowWarm,
        Workload::ServeMixed,
        Workload::DseDense,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlowCold => "flow-cold",
            Workload::FlowWarm => "flow-warm",
            Workload::ServeMixed => "serve-mixed",
            Workload::DseDense => "dse-dense",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seed streams, one per independent random choice, so that adding a
/// draw to one never shifts another.
pub mod stream {
    /// Order of one-shot inputs.
    pub const ORDER: u64 = 1;
    /// Warm-up pool and open-loop requests of `serve-mixed`.
    pub const OPEN: u64 = 2;
    /// Open-loop arrival times.
    pub const ARRIVALS: u64 = 3;
    /// Requests of the closed-loop capacity phase.
    pub const CAPACITY: u64 = 4;
}

/// The `flow` variants: a name and the flags that select it.
pub const FLOW_VARIANTS: [(&str, &[&str]); 4] = [
    ("plain", &[]),
    ("paper-subsets", &["--paper-subsets"]),
    ("extended", &["--extended"]),
    ("paper-subsets+extended", &["--paper-subsets", "--extended"]),
];

/// The mid-size zoo models `dse-dense` draws from: each prices the
/// dense space in roughly 40–70 ms.
pub const DSE_MODELS: [&str; 8] = [
    "Resnet18",
    "VGG16",
    "Resnet50",
    "GPT2",
    "SWIN-T",
    "BERT-base",
    "ViT-base",
    "DETR",
];

/// Zoo models `serve-mixed` asks `custom` and `what_if` for.
pub const SERVE_MODELS: [&str; 12] = [
    "Resnet18",
    "VGG16",
    "Mobilenetv2",
    "Resnet50",
    "GPT2",
    "SWIN-T",
    "BERT-base",
    "ViT-base",
    "AST",
    "DETR",
    "Alexnet",
    "Graphormer",
];

/// The test and extended test sets, which `serve-mixed` assigns.
pub const ASSIGN_MODELS: [&str; 11] = [
    "BERT-base",
    "Graphormer",
    "ViT-base",
    "AST",
    "DETR",
    "Alexnet",
    "Wav2Vec2-base",
    "DistilGPT2",
    "MaskRCNN-R50",
    "ConvNeXt-T",
    "EfficientNet-B0",
];

/// The `print(model)` dumps `serve-mixed` sends, relative to the
/// repository root.
pub const PRINTOUTS: [&str; 3] = [
    "assets/alexnet_print.txt",
    "assets/resnet18_print.txt",
    "assets/mobilenetv2_print_head.txt",
];

/// Offered rate of the open-loop phase, requests per second.
pub const OPEN_RATE: f64 = 100.0;

/// Requests kept outstanding in the closed-loop capacity phase.
pub const CAPACITY_WINDOW: usize = 8;

/// Requests the closed-loop capacity phase sends per second of its
/// nominal length. The phase sends a fixed number of requests rather
/// than running for a fixed time, so that every run of a seed does the
/// same work and leaves the server with the same memo state, whatever
/// the host's speed.
pub const CAPACITY_PER_SECOND: f64 = 500.0;

/// One `serve` request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `custom` by zoo name.
    Custom(&'static str),
    /// `custom` by printout, at a square image size.
    Printout {
        /// Index into [`PRINTOUTS`].
        asset: usize,
        /// Image height and width.
        size: u32,
    },
    /// `assign` of a test-set model.
    Assign(&'static str),
    /// `what_if` under a chiplet area limit.
    WhatIf {
        /// Zoo model.
        model: &'static str,
        /// Chiplet area limit, mm².
        area_mm2: u32,
    },
}

impl Request {
    /// Draws one request of the mix: 60 % `custom` by name, 15 % by
    /// printout, 15 % `assign`, 10 % `what_if`.
    pub fn draw(rng: &mut Rng) -> Request {
        match rng.below(100) {
            0..=59 => Request::Custom(SERVE_MODELS[rng.below(SERVE_MODELS.len())]),
            60..=74 => Request::Printout {
                asset: rng.below(PRINTOUTS.len()),
                size: 64 + rng.below(449) as u32,
            },
            75..=89 => Request::Assign(ASSIGN_MODELS[rng.below(ASSIGN_MODELS.len())]),
            _ => Request::WhatIf {
                model: SERVE_MODELS[rng.below(SERVE_MODELS.len())],
                area_mm2: 20 + rng.below(131) as u32,
            },
        }
    }

    /// The op label the server echoes.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Custom(_) | Request::Printout { .. } => "custom",
            Request::Assign(_) => "assign",
            Request::WhatIf { .. } => "what_if",
        }
    }

    /// The request's kind in the mix: its op, with `custom` by printout
    /// told apart from `custom` by zoo name.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Printout { .. } => "printout",
            other => other.op(),
        }
    }

    /// The request as a JSON object; `printouts` holds the texts of
    /// [`PRINTOUTS`].
    pub fn to_value(&self, id: u64, printouts: &[String]) -> Value {
        match self {
            Request::Custom(model) => {
                serde_json::json!({"id": id, "op": "custom", "model": *model})
            }
            Request::Printout { asset, size } => serde_json::json!({
                "id": id,
                "op": "custom",
                "printout": printouts[*asset].as_str(),
                "name": format!("print{asset}-{size}"),
                "image": vec![3u32, *size, *size],
            }),
            Request::Assign(model) => {
                serde_json::json!({"id": id, "op": "assign", "model": *model})
            }
            Request::WhatIf { model, area_mm2 } => serde_json::json!({
                "id": id,
                "op": "what_if",
                "model": *model,
                "constraints": serde_json::json!({
                    "chiplet_area_limit_mm2": f64::from(*area_mm2)
                }),
            }),
        }
    }
}

/// Everything `serve-mixed` sends for one seed.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// The warm-up pass: every zoo `custom` and `assign` of the mix once,
    /// so the timed window starts after lazy training.
    pub warmup: Vec<Request>,
    /// The open-loop phase: `(due offset in seconds, request)`, arrivals
    /// of a Poisson process at [`OPEN_RATE`].
    pub open: Vec<(f64, Request)>,
    /// The closed-loop phase's requests, in sending order.
    pub capacity: Vec<Request>,
}

impl ServePlan {
    /// The plan for `seed`, over a timed window `seconds` long: the
    /// first half open loop, the second half's worth of requests closed
    /// loop.
    pub fn new(seed: u64, seconds: f64) -> ServePlan {
        let open_seconds = seconds / 2.0;
        let mut requests = Rng::new(seed, stream::OPEN);
        let mut arrivals = Rng::new(seed, stream::ARRIVALS);
        let mut open = Vec::new();
        let mut due = arrivals.exponential(OPEN_RATE);
        while due < open_seconds {
            open.push((due, Request::draw(&mut requests)));
            due += arrivals.exponential(OPEN_RATE);
        }
        let mut rng = Rng::new(seed, stream::CAPACITY);
        let capacity_requests = (CAPACITY_PER_SECOND * (seconds - open_seconds)).ceil() as usize;
        let capacity = (0..capacity_requests.max(CAPACITY_WINDOW))
            .map(|_| Request::draw(&mut rng))
            .collect();
        let warmup = SERVE_MODELS
            .iter()
            .map(|m| Request::Custom(m))
            .chain(ASSIGN_MODELS.iter().map(|m| Request::Assign(m)))
            .collect();
        ServePlan {
            warmup,
            open,
            capacity,
        }
    }
}

/// The seeded order in which one-shot inputs (flow variants or models)
/// run: balanced rounds, so every input gets the same share of a run.
pub fn one_shot_order(seed: u64, inputs: usize) -> Rounds {
    Rounds::new(Rng::new(seed, stream::ORDER), inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_requests_and_arrivals() {
        let a = ServePlan::new(7, 10.0);
        let b = ServePlan::new(7, 10.0);
        assert_eq!(a.open, b.open);
        assert_eq!(a.capacity, b.capacity);
        assert!(a.open.len() > 400, "{} arrivals", a.open.len());
        assert_eq!(a.capacity.len(), 2500);
    }

    #[test]
    fn different_seeds_give_different_requests_and_arrivals() {
        let a = ServePlan::new(7, 10.0);
        let b = ServePlan::new(8, 10.0);
        let times = |p: &ServePlan| p.open.iter().map(|(t, _)| *t).collect::<Vec<_>>();
        let reqs = |p: &ServePlan| p.open.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>();
        assert_ne!(times(&a), times(&b));
        assert_ne!(reqs(&a), reqs(&b));
        assert_ne!(a.capacity, b.capacity);
    }

    #[test]
    fn arrivals_are_ordered_and_near_the_rate() {
        let plan = ServePlan::new(3, 20.0);
        assert!(plan.open.windows(2).all(|w| w[0].0 <= w[1].0));
        let rate = plan.open.len() as f64 / 10.0;
        assert!((rate - OPEN_RATE).abs() < OPEN_RATE * 0.1, "rate {rate}");
    }

    #[test]
    fn the_mix_has_every_op() {
        let plan = ServePlan::new(11, 20.0);
        for op in ["custom", "assign", "what_if"] {
            assert!(plan.open.iter().any(|(_, r)| r.op() == op), "{op}");
        }
        assert!(plan
            .open
            .iter()
            .any(|(_, r)| matches!(r, Request::Printout { .. })));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
