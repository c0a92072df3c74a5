//! Actions, parameters and agents.
//!
//! Actions are the atomic units of the functional model (Table 1 of the
//! paper): terms like `sense(ESP_1, sW)` or `show(HMI_w, warn)`. A
//! parameter may carry an *instance index* (`ESP_1`, `GPS_w`), which the
//! parameterisation step ([`crate::param`]) abstracts into first-order
//! variables.
//!
//! [`Action`] and [`Agent`] are reference-counted handles: a clone
//! shares the term or name instead of copying it, so the many SoS
//! instances composed from one component template share its actions.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An agent / stakeholder, e.g. the driver `D_w` of vehicle `w`.
///
/// A reference-counted handle on the name: cloning an agent increments
/// a count. Equality, order and hash are those of the name.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Agent(Arc<str>);

impl Agent {
    /// Creates an agent from its name.
    pub fn new(name: &str) -> Self {
        Agent(Arc::from(name))
    }

    /// The agent's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Display for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Agent {
    fn from(s: &str) -> Self {
        Agent::new(s)
    }
}

/// One action parameter: a base name with an optional instance index,
/// e.g. `GPS_1` = base `GPS`, index `1`; plain `warn` has no index.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Param {
    base: String,
    index: Option<String>,
}

impl Param {
    /// A parameter without an index.
    pub fn plain(base: &str) -> Self {
        Param {
            base: base.to_owned(),
            index: None,
        }
    }

    /// A parameter with an instance index.
    pub fn indexed(base: &str, index: &str) -> Self {
        Param {
            base: base.to_owned(),
            index: Some(index.to_owned()),
        }
    }

    /// Parses `GPS_1` into base `GPS` / index `1`; a trailing
    /// `_<suffix>` after the *last* underscore is taken as the index.
    /// Without an underscore the whole string is the base.
    pub fn parse(s: &str) -> Self {
        match s.rsplit_once('_') {
            Some((base, index)) if !base.is_empty() && !index.is_empty() => {
                Param::indexed(base, index)
            }
            _ => Param::plain(s),
        }
    }

    /// The base name.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// The instance index, if any.
    pub fn index(&self) -> Option<&str> {
        self.index.as_deref()
    }

    /// The same parameter with its index replaced (used when
    /// instantiating component templates and when abstracting indices
    /// into variables).
    pub fn with_index(&self, index: &str) -> Self {
        Param::indexed(&self.base, index)
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.index {
            Some(i) => write!(f, "{}_{}", self.base, i),
            None => write!(f, "{}", self.base),
        }
    }
}

impl Param {
    /// The length of the parameter's text.
    fn rendered_len(&self) -> usize {
        self.base.len() + self.index.as_ref().map_or(0, |i| i.len() + 1)
    }

    /// Appends the parameter's text, as [`fmt::Display`] writes it.
    fn push_to(&self, text: &mut String) {
        text.push_str(&self.base);
        if let Some(i) = &self.index {
            text.push('_');
            text.push_str(i);
        }
    }
}

/// An atomic action of the functional model, e.g. `sense(ESP_1,sW)`.
///
/// A reference-counted handle on one shared term: cloning an action
/// increments a count and copies neither the name nor the parameters.
/// Equality, order and hash are the term's, name first, then the
/// parameters.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Action(Arc<Term>);

/// The shared term behind an [`Action`]: its parameters and its
/// rendered text `name(p1,p2,…)`, built once when the term is made, so
/// displaying an action copies one string. The name is the text's
/// prefix. Equality, order and hash are those of (name, parameters):
/// two terms may render alike (`a_b` is a plain parameter or `a`
/// indexed by `b`) and still differ.
struct Term {
    text: String,
    name_len: usize,
    params: Vec<Param>,
}

impl Term {
    fn name(&self) -> &str {
        &self.text[..self.name_len]
    }

    fn key(&self) -> (&str, &[Param]) {
        (self.name(), &self.params)
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Term {}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name().hash(state);
        self.params.hash(state);
    }
}

impl Action {
    /// Creates an action from its name and parameters.
    pub fn new(name: &str, params: impl IntoIterator<Item = Param>) -> Self {
        Action::from_parts(name, params.into_iter().collect())
    }

    /// A handle on a new term, rendered here once.
    fn from_parts(name: &str, params: Vec<Param>) -> Self {
        let mut text = String::with_capacity(
            name.len() + params.iter().map(|p| p.rendered_len() + 1).sum::<usize>() + 1,
        );
        text.push_str(name);
        for (i, p) in params.iter().enumerate() {
            text.push(if i == 0 { '(' } else { ',' });
            p.push_to(&mut text);
        }
        if !params.is_empty() {
            text.push(')');
        }
        Action(Arc::new(Term {
            text,
            name_len: name.len(),
            params,
        }))
    }

    /// Parses the `name(p1,p2,…)` notation of Table 1, e.g.
    /// `"sense(ESP_1,sW)"`. Nested parentheses in a parameter (such as
    /// `cam(pos)`) are kept as part of that parameter's base name.
    /// Without parentheses the whole string is the name.
    pub fn parse(s: &str) -> Self {
        let s = s.trim();
        let Some(open) = s.find('(') else {
            return Action::new(s, []);
        };
        if !s.ends_with(')') {
            return Action::new(s, []);
        }
        let name = &s[..open];
        let inner = &s[open + 1..s.len() - 1];
        let mut params = Vec::new();
        let mut depth = 0usize;
        let mut start = 0usize;
        for (i, c) in inner.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    params.push(Param::parse(inner[start..i].trim()));
                    start = i + 1;
                }
                _ => {}
            }
        }
        if start < inner.len() {
            params.push(Param::parse(inner[start..].trim()));
        }
        Action::new(name, params)
    }

    /// The action's name (e.g. `sense`).
    pub fn name(&self) -> &str {
        self.0.name()
    }

    /// The action's text, `name(p1,p2,…)`, as [`fmt::Display`] writes
    /// it.
    pub fn as_str(&self) -> &str {
        &self.0.text
    }

    /// The action's parameters.
    pub fn params(&self) -> &[Param] {
        &self.0.params
    }

    /// The instance indices occurring in the parameters, in order,
    /// de-duplicated.
    pub fn indices(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for p in self.params() {
            if let Some(i) = p.index() {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
        }
        out
    }

    /// The action with every occurrence of index `from` replaced by
    /// `to` — used to instantiate component templates (`i ↦ 1`) and to
    /// abstract indices into first-order variables (`2 ↦ x`).
    pub fn rename_index(&self, from: &str, to: &str) -> Action {
        Action::from_parts(
            self.name(),
            self.params()
                .iter()
                .map(|p| {
                    if p.index() == Some(from) {
                        p.with_index(to)
                    } else {
                        p.clone()
                    }
                })
                .collect(),
        )
    }

    /// A canonical identifier usable as an APA automaton name or graph
    /// label, e.g. `V1_sense` for `sense(ESP_1, sW)` would instead be
    /// rendered as `sense(ESP_1,sW)`; this method just formats the term.
    pub fn label(&self) -> String {
        self.as_str().to_owned()
    }

    /// The action with all indices erased — its *shape*, used when
    /// de-duplicating isomorphic SoS instances.
    pub fn shape(&self) -> Action {
        Action::from_parts(
            self.name(),
            self.params()
                .iter()
                .map(|p| Param::plain(p.base()))
                .collect(),
        )
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_parse() {
        let p = Param::parse("GPS_1");
        assert_eq!(p.base(), "GPS");
        assert_eq!(p.index(), Some("1"));
        let p = Param::parse("warn");
        assert_eq!(p.base(), "warn");
        assert_eq!(p.index(), None);
        let p = Param::parse("HMI_w");
        assert_eq!(p.index(), Some("w"));
        assert_eq!(
            Param::parse("_x"),
            Param::plain("_x"),
            "empty base kept plain"
        );
    }

    #[test]
    fn action_parse_table1() {
        let a = Action::parse("sense(ESP_1,sW)");
        assert_eq!(a.name(), "sense");
        assert_eq!(a.params().len(), 2);
        assert_eq!(a.params()[0], Param::indexed("ESP", "1"));
        assert_eq!(a.params()[1], Param::plain("sW"));
        assert_eq!(a.to_string(), "sense(ESP_1,sW)");
    }

    #[test]
    fn action_parse_nested() {
        let a = Action::parse("send(CU_i,cam(pos))");
        assert_eq!(a.params().len(), 2);
        assert_eq!(a.params()[1], Param::plain("cam(pos)"));
        assert_eq!(a.to_string(), "send(CU_i,cam(pos))");
    }

    #[test]
    fn action_parse_no_params() {
        let a = Action::parse("tick");
        assert_eq!(a.name(), "tick");
        assert!(a.params().is_empty());
        assert_eq!(a.to_string(), "tick");
    }

    #[test]
    fn rename_index_instantiates_template() {
        let template = Action::parse("pos(GPS_i,pos)");
        let inst = template.rename_index("i", "2");
        assert_eq!(inst.to_string(), "pos(GPS_2,pos)");
        // other indices untouched
        let a = Action::parse("rec(CU_w,cam(pos))").rename_index("i", "9");
        assert_eq!(a.to_string(), "rec(CU_w,cam(pos))");
    }

    #[test]
    fn indices_and_shape() {
        let a = Action::parse("fwd(CU_2,cam_1)");
        assert_eq!(a.indices(), vec!["2", "1"]);
        assert_eq!(a.shape().to_string(), "fwd(CU,cam)");
    }

    #[test]
    fn round_trip_display_parse() {
        for s in [
            "send(cam(pos))",
            "sense(ESP_1,sW)",
            "show(HMI_w,warn)",
            "rec(CU_i,cam(pos))",
        ] {
            assert_eq!(Action::parse(s).to_string(), s);
        }
    }

    #[test]
    fn handles_share_their_term_and_compare_like_its_fields() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let hash = |v: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            v(&mut h);
            h.finish()
        };
        let a = Action::parse("send(CU_1,cam(pos))");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0), "a clone shares the term");
        let fields = (a.name().to_owned(), a.params().to_vec());
        assert_eq!(hash(&|h| a.hash(h)), hash(&|h| fields.hash(h)));
        let c = Action::parse("send(CU_2,cam(pos))");
        assert_eq!(
            a.cmp(&c),
            fields.cmp(&(c.name().to_owned(), c.params().to_vec()))
        );
        let d = Agent::new("D_1");
        assert_eq!(hash(&|h| d.hash(h)), hash(&|h| "D_1".to_owned().hash(h)));
        assert!(
            Agent::new("D_10") < Agent::new("D_2"),
            "agents order as strings"
        );
    }

    #[test]
    fn the_stored_text_is_the_terms_rendering() {
        let a = Action::new("f", [Param::indexed("a", "b"), Param::plain("c")]);
        assert_eq!(a.as_str(), "f(a_b,c)");
        assert_eq!(format!("[{a}]"), "[f(a_b,c)]");
        assert_eq!(a.label(), "f(a_b,c)");
        assert_eq!(Action::new("tick", []).as_str(), "tick");
        assert_eq!(a.rename_index("b", "9").as_str(), "f(a_9,c)");
        assert_eq!(a.shape().as_str(), "f(a,c)");
        // Equal text, different terms: identity is (name, parameters).
        let b = Action::new("f", [Param::plain("a_b"), Param::plain("c")]);
        assert_eq!(a.as_str(), b.as_str());
        assert_ne!(a, b);
        assert_eq!(
            a.cmp(&b),
            (a.name(), a.params()).cmp(&(b.name(), b.params()))
        );
    }

    #[test]
    fn agent_display() {
        let a = Agent::new("D_w");
        assert_eq!(a.to_string(), "D_w");
        assert_eq!(a.name(), "D_w");
        let b: Agent = "D_1".into();
        assert_ne!(a, b);
    }
}
