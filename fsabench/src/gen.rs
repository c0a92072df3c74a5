//! Seeded workload inputs and their independent reference answers.
//!
//! The program under test only ever sees the generated inputs; every
//! expected answer here is derived from the generator's own structure
//! (or a breadth-first search over the generated flow graph), never from
//! the elicitation code being measured.

use fsa_core::{Action, Agent, AuthRequirement, SosInstance};
use std::collections::BTreeSet;

/// splitmix64: a tiny, fully specified generator, so the same seed gives
/// the same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The canonical text of one requirement, as the CLI prints it.
fn requirement(antecedent: &str, consequent: &str, stakeholder: &str) -> String {
    AuthRequirement::new(
        Action::parse(antecedent),
        Action::parse(consequent),
        Agent::new(stakeholder),
    )
    .to_string()
}

/// One `elicit` input: spec source plus the requirement lines its §4
/// elicitation must print.
pub struct SpecInput {
    pub label: String,
    pub source: String,
    /// Run the §5 cross-check too (`--verify-dataflow`).
    pub verify: bool,
    pub expected: BTreeSet<String>,
}

/// `k` independent warning chains, each with `h` forwarding hops
/// (Fig. 4 is `k = 1, h = 1`). Chain `c` has the sender's `sense` and
/// `pos`, one policy `pos` per forwarder and the receiver's `pos` as
/// sources and the receiver's `show` as its only sink, so the spec
/// elicits exactly `k·(h+3)` requirements. The seed only permutes the
/// declaration order, which changes node numbering but not the answer.
pub fn chain_spec(k: usize, h: usize, rng: &mut Rng) -> SpecInput {
    let mut actions = Vec::new();
    let mut flows = Vec::new();
    let mut expected = BTreeSet::new();
    for c in 1..=k {
        let decl = |id: &str, term: &str, vehicle: &str| {
            format!("action {id} = {term} owner V_{vehicle} stakeholder D_{vehicle};")
        };
        let s = format!("c{c}s");
        let w = format!("c{c}w");
        actions.push(decl(
            &format!("sense_{s}"),
            &format!("sense(ESP_{s}, sW)"),
            &s,
        ));
        actions.push(decl(&format!("pos_{s}"), &format!("pos(GPS_{s}, pos)"), &s));
        actions.push(decl(
            &format!("send_{s}"),
            &format!("send(CU_{s}, cam(pos))"),
            &s,
        ));
        flows.push(format!("flow sense_{s} -> send_{s};"));
        flows.push(format!("flow pos_{s} -> send_{s};"));
        let show = format!("show(HMI_{w}, warn)");
        let stakeholder = format!("D_{w}");
        let mut sources = vec![format!("sense(ESP_{s}, sW)"), format!("pos(GPS_{s}, pos)")];
        let mut previous = format!("send_{s}");
        for j in 1..=h {
            let f = format!("c{c}f{j}");
            actions.push(decl(
                &format!("rec_{f}"),
                &format!("rec(CU_{f}, cam(pos))"),
                &f,
            ));
            actions.push(decl(&format!("pos_{f}"), &format!("pos(GPS_{f}, pos)"), &f));
            actions.push(decl(
                &format!("fwd_{f}"),
                &format!("fwd(CU_{f}, cam(pos))"),
                &f,
            ));
            flows.push(format!("flow {previous} -> rec_{f};"));
            flows.push(format!("flow rec_{f} -> fwd_{f};"));
            flows.push(format!("policy flow pos_{f} -> fwd_{f};"));
            sources.push(format!("pos(GPS_{f}, pos)"));
            previous = format!("fwd_{f}");
        }
        actions.push(decl(
            &format!("rec_{w}"),
            &format!("rec(CU_{w}, cam(pos))"),
            &w,
        ));
        actions.push(decl(&format!("pos_{w}"), &format!("pos(GPS_{w}, pos)"), &w));
        actions.push(decl(&format!("show_{w}"), &show, &w));
        flows.push(format!("flow {previous} -> rec_{w};"));
        flows.push(format!("flow rec_{w} -> show_{w};"));
        flows.push(format!("flow pos_{w} -> show_{w};"));
        sources.push(format!("pos(GPS_{w}, pos)"));
        for source in &sources {
            expected.insert(requirement(source, &show, &stakeholder));
        }
    }
    rng.shuffle(&mut actions);
    rng.shuffle(&mut flows);
    let label = format!("chain k={k} h={h}");
    let mut source = format!("instance \"{label}\" {{\n");
    for line in actions.iter().chain(&flows) {
        source.push_str("    ");
        source.push_str(line);
        source.push('\n');
    }
    source.push_str("}\n");
    SpecInput {
        label,
        source,
        verify: true,
        expected,
    }
}

/// The (minimal, maximal) requirement lines of `instance` by a
/// breadth-first search from every source over its flow graph.
pub fn reachable_pairs(instance: &SosInstance) -> BTreeSet<String> {
    let graph = instance.graph();
    let n = graph.node_count();
    let mut succ = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    let mut ids = Vec::with_capacity(n);
    for (id, _) in graph.nodes() {
        ids.push(id);
    }
    for (from, to) in graph.edges() {
        succ[from.index()].push(to.index());
        indegree[to.index()] += 1;
    }
    let mut pairs = BTreeSet::new();
    let mut seen = vec![usize::MAX; n];
    for s in (0..n).filter(|&s| indegree[s] == 0) {
        let mut queue = std::collections::VecDeque::from([s]);
        seen[s] = s;
        while let Some(v) = queue.pop_front() {
            if v != s && succ[v].is_empty() {
                let sink = ids[v];
                pairs.insert(
                    AuthRequirement::new(
                        instance.action(ids[s]).clone(),
                        instance.action(sink).clone(),
                        instance.stakeholder(sink).clone(),
                    )
                    .to_string(),
                );
            }
            for &t in &succ[v] {
                if seen[t] != s {
                    seen[t] = s;
                    queue.push_back(t);
                }
            }
        }
    }
    pairs
}

/// The 20 chain specs of every input list: `(k, h, copies)`. All shapes
/// stay cheap enough to sample many times in one window (under 150 ms
/// each with `--verify-dataflow`). The 15 specs of the first six shapes
/// and the two figures take under 2.5 ms, less than any traffic
/// topology, so with the ten topologies and the five heavier shapes
/// above them the median operation is always a `(2, 1)` chain: the
/// median stays put whatever topologies a seed draws.
pub const CHAIN_SHAPES: [(usize, usize, usize); 11] = [
    (1, 0, 3),
    (1, 1, 3),
    (1, 2, 3),
    (1, 3, 2),
    (2, 0, 2),
    (2, 1, 2),
    (2, 2, 1),
    (2, 3, 1),
    (3, 0, 1),
    (3, 1, 1),
    (4, 0, 1),
];

/// The 32 `elicit` inputs of one seed: the 20 chain specs of
/// [`CHAIN_SHAPES`], 10 rendered traffic topologies of 110, 130, …, 290
/// vehicles and the paper's Figs. 3 and 4. The seed draws the
/// topologies and the chains' declaration orders; the list order is
/// fixed, because an operation's cost depends on what ran before it
/// (a cheap spec after a large one pays to regrow the heap), and a
/// seeded order would move the median with the seed.
pub fn elicit_inputs(seed: u64) -> Vec<SpecInput> {
    let mut rng = Rng::new(seed);
    let mut inputs = Vec::with_capacity(32);
    for &(k, h, copies) in &CHAIN_SHAPES {
        for _ in 0..copies {
            inputs.push(chain_spec(k, h, &mut rng));
        }
    }
    for stratum in 0..10 {
        let vehicles = 110 + 20 * stratum;
        let config = vanet::generator::TrafficConfig {
            vehicles,
            ..Default::default()
        };
        let instance = vanet::generator::random_traffic_instance(&config, rng.next_u64());
        inputs.push(SpecInput {
            label: format!("traffic {vehicles} vehicles"),
            source: speclang::pretty::render(&instance),
            verify: false,
            expected: reachable_pairs(&instance),
        });
    }
    for (label, source) in [
        ("fig3", include_str!("../../specs/fig3.fsa")),
        ("fig4", include_str!("../../specs/fig4.fsa")),
    ] {
        let instances = speclang::parse(source).expect("the paper's specs parse");
        inputs.push(SpecInput {
            label: label.to_owned(),
            source: source.to_owned(),
            verify: true,
            expected: instances.iter().flat_map(reachable_pairs).collect(),
        });
    }
    inputs
}

/// One `serve-edit` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// The vehicle pair in the `six` scenario's third zone drives off
    /// and the pair with sender tag `pair` takes its place (a pair's
    /// receiver has the next tag).
    Arrive { pair: usize },
    /// Receiver `V2` moves to `position`.
    Move { position: i64 },
    /// An `elicit` request after an edit (a response-cache miss).
    Elicit,
    /// The same `elicit` again (a response-cache hit).
    Repeat,
}

/// Vehicle pairs that pass through the third zone. They arrive in a
/// seeded order that repeats every `POOL` arrivals, and every arrival
/// adds the memo entry of one new fragment shape, so by the time a pair
/// comes back its entry has been pushed out of the session's 256-entry
/// memo store: each arrival misses the memo and evicts an entry. The
/// pool exceeds the store by a quarter, enough for entries the analysis
/// of the other zones adds.
pub const POOL: usize = 320;

/// Positions of receiver `V2`: within radio range of its sender at 0
/// (the scenario's own 50) and out of it.
pub const MOVE_POSITIONS: [i64; 2] = [50, 300];

/// Position of the third zone's sender; its receiver sits 50 further.
const ZONE3_BASE: i64 = 20_000;

/// What the `serve-edit` edits have changed in the `six` model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelState {
    /// Sender tag of the third zone's pair.
    pub zone3: usize,
    /// Position of receiver `V2`.
    pub position: i64,
}

impl ModelState {
    /// The `six` scenario as a session opens it.
    pub const INITIAL: ModelState = ModelState {
        zone3: 5,
        position: MOVE_POSITIONS[0],
    };

    /// Applies `op` to this state and returns the delta lines that make
    /// the same change to the model (none for a request).
    pub fn edit(&mut self, op: &EditOp) -> Vec<String> {
        let mut lines = Vec::new();
        match *op {
            EditOp::Arrive { pair } => {
                let leaving = std::mem::replace(&mut self.zone3, pair);
                for tag in [leaving, leaving + 1] {
                    for flow in ["sense", "pos", "send", "rec", "show"] {
                        lines.push(format!("remove-flow V{tag}_{flow}"));
                    }
                    for component in ["esp", "gps", "bus", "hmi"] {
                        lines.push(format!("remove-component {component}{tag}"));
                    }
                }
                // As `vanet::apa_model::n_pair_model` builds a pair.
                for (tag, position, esp) in
                    [(pair, ZONE3_BASE, " sW"), (pair + 1, ZONE3_BASE + 50, "")]
                {
                    lines.extend([
                        format!("add-component esp{tag}{esp}"),
                        format!("add-component gps{tag} {position}"),
                        format!("add-component bus{tag}"),
                        format!("add-component hmi{tag}"),
                        format!("add-flow V{tag}_sense move esp{tag} bus{tag}"),
                        format!("add-flow V{tag}_pos move gps{tag} bus{tag}"),
                        format!("add-flow V{tag}_send send-cam:V{tag} bus{tag} net"),
                        format!("add-flow V{tag}_rec recv-cam:100 net bus{tag}"),
                        format!("add-flow V{tag}_show move-atom:warn bus{tag} hmi{tag}"),
                    ]);
                }
            }
            EditOp::Move { position } => {
                self.position = position;
                lines.push(format!("set-initial gps2 {position}"));
            }
            EditOp::Elicit | EditOp::Repeat => {}
        }
        lines
    }
}

/// The seeded `serve-edit` traffic of one session.
pub struct EditTraffic {
    rng: Rng,
    /// Sender tags of the pool, in arrival order.
    arrivals: Vec<usize>,
    next: usize,
}

impl EditTraffic {
    pub fn new(seed: u64) -> EditTraffic {
        let mut rng = Rng::new(seed);
        let first = ModelState::INITIAL.zone3 + 2;
        let mut arrivals: Vec<usize> = (0..POOL).map(|i| first + 2 * i).collect();
        rng.shuffle(&mut arrivals);
        EditTraffic {
            rng,
            arrivals,
            next: 0,
        }
    }

    /// One `serve-edit` operation: an analyst's step of five pipelined
    /// requests, `arrive, elicit, move, elicit, repeat` — 40 % edits,
    /// 40 % elicits and 20 % repeats, in the same shape every step. The
    /// arrival brings a fragment the memo no longer holds; the move
    /// re-shapes the first zone into one of two fragments the memo's
    /// structure-addressed entries already hold.
    pub fn step(&mut self) -> [EditOp; 5] {
        let pair = self.arrivals[self.next % POOL];
        self.next += 1;
        let position = MOVE_POSITIONS[self.rng.below(MOVE_POSITIONS.len())];
        [
            EditOp::Arrive { pair },
            EditOp::Elicit,
            EditOp::Move { position },
            EditOp::Elicit,
            EditOp::Repeat,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let a = elicit_inputs(7);
        let b = elicit_inputs(7);
        let c = elicit_inputs(8);
        let text = |v: &[SpecInput]| v.iter().map(|i| i.source.clone()).collect::<Vec<_>>();
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        assert_eq!(a.len(), 32);
        let steps = |seed| {
            let mut traffic = EditTraffic::new(seed);
            (0..20).map(|_| traffic.step()).collect::<Vec<_>>()
        };
        assert_eq!(steps(3), steps(3));
        assert_ne!(steps(3), steps(4));
    }

    #[test]
    fn arrivals_cycle_through_the_pool_and_apply_to_the_six_model() {
        let mut traffic = EditTraffic::new(5);
        let mut model = vanet::apa_model::n_pair_model(3);
        let mut state = ModelState::INITIAL;
        let mut arrivals = Vec::new();
        for _ in 0..POOL + 2 {
            for op in traffic.step() {
                for line in state.edit(&op) {
                    let delta = fsa_core::delta::ModelDelta::parse(&line).expect(&line);
                    model.apply(&delta).expect(&line);
                }
                if let EditOp::Arrive { pair } = op {
                    arrivals.push(pair);
                }
            }
        }
        assert_eq!(arrivals[POOL..], arrivals[..2]);
        arrivals.truncate(POOL);
        arrivals.sort_unstable();
        arrivals.dedup();
        assert_eq!(arrivals.len(), POOL);
        // The model still has three pairs of ten flows.
        assert_eq!(model.flows().len(), 30);
    }

    #[test]
    fn chain_specs_parse_and_elicit_k_times_h_plus_3() {
        let mut rng = Rng::new(1);
        for &(k, h, _) in &CHAIN_SHAPES {
            let spec = chain_spec(k, h, &mut rng);
            assert_eq!(spec.expected.len(), k * (h + 3));
            let instances = speclang::parse(&spec.source).expect("parses");
            assert_eq!(instances.len(), 1);
            let report = fsa_core::manual::elicit(&instances[0]).expect("loop-free");
            let got: BTreeSet<String> = report
                .requirements()
                .iter()
                .map(ToString::to_string)
                .collect();
            assert_eq!(got, spec.expected, "k={k} h={h}");
            assert_eq!(reachable_pairs(&instances[0]), spec.expected);
        }
    }
}
