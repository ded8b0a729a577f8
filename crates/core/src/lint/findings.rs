//! Typed lint findings with severity, location and rendering.
//!
//! A [`Finding`] points at a *rule site* — a `(role, term)` privilege
//! assignment in the linted policy, possibly a term nested inside one —
//! plus the effect edge when the diagnostic is about a specific edge.
//! [`LintReport`] carries the full pass result with deterministic
//! ordering, so its JSON rendering is byte-stable and CI can diff it.

use crate::display::{edge_to_string, priv_to_string, Notation};
use crate::ids::{PrivId, RoleId};
use crate::universe::{Edge, Universe};

/// How serious a finding is. Ordered: `Note < Warning < Error`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Stylistic or informational; the policy behaves as written.
    Note,
    /// The policy almost certainly does not mean what it says.
    Warning,
    /// A declared property (e.g. separation of duty) is violated.
    Error,
}

impl Severity {
    /// Stable lowercase name used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses the stable name back (for `--deny <severity>`).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "note" => Some(Severity::Note),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// The category of a finding. See [`crate::lint`] for the catalog.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FindingKind {
    /// The rule can never change any reachable policy.
    DeadCommand,
    /// No `⊑`-compatible authorizing term is ever assigned, so the
    /// rule's command can never be executed.
    Unauthorizable,
    /// The role already reaches the same privilege through the role
    /// hierarchy; the direct assignment adds nothing.
    RedundantGrant,
    /// A revoke rule in the may-add closure can strip this assignment.
    ShadowedGrant,
    /// Some user can statically reach both roles of a declared
    /// separation-of-duty pair.
    SodConflict,
    /// An edge asserted frozen by an admission constraint is absent
    /// from the candidate policy, or some authorized command sequence
    /// can revoke it (it is not in the must-closure `Φ⁻`).
    FrozenEdgeViolation,
}

impl FindingKind {
    /// Stable kebab-case name used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::DeadCommand => "dead-command",
            FindingKind::Unauthorizable => "unauthorizable",
            FindingKind::RedundantGrant => "redundant-grant",
            FindingKind::ShadowedGrant => "shadowed-grant",
            FindingKind::SodConflict => "sod-conflict",
            FindingKind::FrozenEdgeViolation => "frozen-edge-violation",
        }
    }
}

/// How certain a finding is, for the checks that can tell (currently
/// `sod-conflict`, `shadowed-grant` and the admission gate's
/// `frozen-edge-violation`): `Confirmed` means the condition holds in a
/// concrete witness state (the root/candidate policy itself), `Potential`
/// means it only holds somewhere in the may-add closure `Φ⁺`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Confirmation {
    /// Witnessed in the root (or candidate) policy itself.
    Confirmed,
    /// Reachable per the may-closure, but not witnessed in the root.
    Potential,
}

impl Confirmation {
    /// Stable lowercase name used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Confirmation::Confirmed => "confirmed",
            Confirmation::Potential => "potential",
        }
    }
}

/// One diagnostic produced by the lint pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// The category.
    pub kind: FindingKind,
    /// How serious it is.
    pub severity: Severity,
    /// The role whose privilege assignment anchors the finding.
    pub role: RoleId,
    /// The term at fault (the assigned term, or a term nested in one),
    /// when the finding is about a specific term.
    pub term: Option<PrivId>,
    /// The effect edge the diagnostic is about, when there is one.
    pub edge: Option<Edge>,
    /// How certain the finding is, for the checks that distinguish a
    /// witnessed violation from a merely reachable one (`None` for the
    /// checks where the distinction is meaningless).
    pub confirmation: Option<Confirmation>,
    /// A one-line, fully rendered explanation.
    pub message: String,
}

/// The result of a full lint pass, deterministically ordered.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by `(kind, role, term, edge)`.
    pub findings: Vec<Finding>,
    /// Rule sites examined (assigned administrative terms plus the
    /// administrative terms nested inside them).
    pub rules_checked: usize,
    /// Edges in the may-add closure `Φ⁺` (root plus addable).
    pub closure_edges: usize,
}

impl LintReport {
    /// The most severe finding, or `None` on a clean policy.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// How many findings are at or above `floor`.
    pub fn count_at_or_above(&self, floor: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity >= floor).count()
    }

    /// How many findings carry exactly `severity`.
    pub fn count_of(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Sorts findings into the canonical order. Called by the pass; a
    /// sorted report renders byte-identically across runs.
    pub(crate) fn canonicalize(&mut self) {
        self.findings
            .sort_by_key(|f| (f.kind, f.role, f.term, f.edge));
    }

    /// Renders the report as deterministic JSON (no trailing newline).
    ///
    /// `source` labels the linted policy (the CLI passes the file path
    /// verbatim). The schema is hand-rolled and stable so CI lanes can
    /// byte-diff the output against a pinned expectation.
    pub fn to_json(&self, universe: &Universe, source: &str) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": 2,\n");
        out.push_str(&format!("  \"policy\": \"{}\",\n", escape(source)));
        out.push_str(&format!("  \"rules_checked\": {},\n", self.rules_checked));
        out.push_str(&format!("  \"closure_edges\": {},\n", self.closure_edges));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\n");
            out.push_str(&format!("      \"severity\": \"{}\",\n", f.severity.name()));
            out.push_str(&format!("      \"kind\": \"{}\",\n", f.kind.name()));
            out.push_str(&format!(
                "      \"role\": \"{}\",\n",
                escape(universe.role_name(f.role))
            ));
            match f.term {
                Some(term) => out.push_str(&format!(
                    "      \"term\": \"{}\",\n",
                    escape(&priv_to_string(universe, term, Notation::Ascii))
                )),
                None => out.push_str("      \"term\": null,\n"),
            }
            match f.edge {
                Some(edge) => out.push_str(&format!(
                    "      \"edge\": \"{}\",\n",
                    escape(&edge_to_string(universe, edge, Notation::Ascii))
                )),
                None => out.push_str("      \"edge\": null,\n"),
            }
            match f.confirmation {
                Some(c) => out.push_str(&format!("      \"confirmation\": \"{}\",\n", c.name())),
                None => out.push_str("      \"confirmation\": null,\n"),
            }
            out.push_str(&format!("      \"message\": \"{}\"\n", escape(&f.message)));
            out.push_str("    }");
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"counts\": {{\"note\": {}, \"warning\": {}, \"error\": {}}}\n",
            self.count_of(Severity::Note),
            self.count_of(Severity::Warning),
            self.count_of(Severity::Error)
        ));
        out.push('}');
        out
    }
}

/// Minimal JSON string escaping for names and messages.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_round_trips() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        for s in [Severity::Note, Severity::Warning, Severity::Error] {
            assert_eq!(Severity::parse(s.name()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn empty_report_renders_empty_array() {
        let uni = Universe::new();
        let report = LintReport::default();
        let json = report.to_json(&uni, "p.rbac");
        assert!(json.contains("\"findings\": [],"), "{json}");
        assert!(json.contains("\"error\": 0"));
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
