//! Diagnostic types: stable lint codes, severities, span-like sites, and
//! the report container with human and machine (JSON) rendering.

use std::fmt;

/// How bad a finding is.
///
/// `Error` findings describe plans that will misbehave at runtime
/// (deadlock, corrupt data, route over a dead link); the compiler gate
/// refuses to emit them under deny semantics. `Warn`
/// findings describe waste (dead transfers, TB over-budget) that runs
/// correctly but squanders resources. `Info` is reserved for advisory
/// output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Correct but wasteful.
    Warn,
    /// Will misbehave at runtime.
    Error,
}

impl Severity {
    /// Stable lowercase name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable lint codes. Codes are append-only: a code's meaning never
/// changes once released, and retired codes are never reused. RA008
/// (dead transfers of a pruned residual plan) is retired: a faulted run
/// now resumes its own plan, whose transfers RA004 already covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// Deadlock: a cycle in the combined order induced by DAG data edges,
    /// per-TB slot serialization, and fused-slot cut-through gates.
    RA001,
    /// Buffer race: two writes into one `(rank, chunk)` slot with no
    /// happens-before path between them, at least one a plain copy.
    RA002,
    /// Over-subscription: a conflict resource carries more concurrent
    /// tasks than its saturation limit inside one sub-pipeline, or a rank
    /// launches more TBs than the configured budget (Eq. 7).
    RA003,
    /// Dead transfer: a task whose delivered data never reaches any slot
    /// the operator's postcondition reads.
    RA004,
    /// Degraded-plan soundness: a task routed over a resource masked dead
    /// in the topology's health overlay.
    RA005,
    /// Buffer-lifetime overlap: a `(rank, chunk)` slot is rewritten while
    /// a reader of the previous write is still unordered with the reuse —
    /// across micro-batches the overwrite can land mid-read.
    RA006,
    /// Cost infeasibility: the schedule's windowed demand on a link
    /// exceeds its capacity under the α–β–γ model (the plan cannot meet
    /// its own makespan certificate).
    RA007,
}

impl LintCode {
    /// The stable code string ("RA001", …).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::RA001 => "RA001",
            LintCode::RA002 => "RA002",
            LintCode::RA003 => "RA003",
            LintCode::RA004 => "RA004",
            LintCode::RA005 => "RA005",
            LintCode::RA006 => "RA006",
            LintCode::RA007 => "RA007",
        }
    }

    /// One-line summary of what the lint proves.
    pub fn description(self) -> &'static str {
        match self {
            LintCode::RA001 => "deadlock cycle across DAG, TB serialization and fusion gates",
            LintCode::RA002 => "unordered writes race into one buffer slot",
            LintCode::RA003 => "resource over-subscription or TB budget exceeded",
            LintCode::RA004 => "transfer never contributes to the operator postcondition",
            LintCode::RA005 => "task routed over a resource masked dead",
            LintCode::RA006 => "slot reuse overlaps the previous write's read lifetime",
            LintCode::RA007 => "scheduled demand exceeds link capacity (alpha-beta-gamma)",
        }
    }

    /// Every code, ascending.
    pub fn all() -> [LintCode; 7] {
        [
            LintCode::RA001,
            LintCode::RA002,
            LintCode::RA003,
            LintCode::RA004,
            LintCode::RA005,
            LintCode::RA006,
            LintCode::RA007,
        ]
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Span-like location of a finding inside the compiled artifact stack.
/// Every field is optional; lints fill in whatever coordinates exist for
/// their finding (a deadlock names tasks, a budget overrun names a rank).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// Offending task index in the DAG.
    pub task: Option<u32>,
    /// Rank the finding is anchored on.
    pub rank: Option<u32>,
    /// TB index within the rank's program.
    pub tb: Option<u32>,
    /// Algorithm step.
    pub step: Option<u32>,
    /// Sub-pipeline index in the schedule.
    pub sub_pipeline: Option<u32>,
    /// Contention resource id.
    pub resource: Option<u32>,
    /// Chunk id.
    pub chunk: Option<u32>,
}

impl Site {
    /// A site anchored on a task.
    pub fn task(task: u32) -> Self {
        Self {
            task: Some(task),
            ..Self::default()
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(t) = self.task {
            parts.push(format!("t{t}"));
        }
        if let Some(r) = self.rank {
            parts.push(format!("r{r}"));
        }
        if let Some(tb) = self.tb {
            parts.push(format!("tb{tb}"));
        }
        if let Some(s) = self.step {
            parts.push(format!("step {s}"));
        }
        if let Some(sp) = self.sub_pipeline {
            parts.push(format!("sp{sp}"));
        }
        if let Some(res) = self.resource {
            parts.push(format!("res{res}"));
        }
        if let Some(c) = self.chunk {
            parts.push(format!("c{c}"));
        }
        write!(f, "{}", parts.join(" "))
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: LintCode,
    /// Severity.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Where in the artifact stack the finding lives.
    pub site: Site,
    /// Counterexample path: task indices witnessing the finding, in
    /// evidence order. For RA001 this is the deadlock cycle; for RA002
    /// `[divergence, writer_a, writer_b]` (divergence omitted when the
    /// writers share no ancestor); for RA006
    /// `[prior_write, reader, reuse]`. Empty when the lint has no path
    /// evidence. Rendered by `rescc-lint --explain` and the JSON schema's
    /// `path` key.
    pub path: Vec<u32>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        let site = self.site.to_string();
        if !site.is_empty() {
            write!(f, " at {site}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The α–β–γ makespan lower-bound certificate computed by lint RA007 and
/// carried on every clean plan's report.
///
/// The bound is `max(alpha_chain_ns, bottleneck drain)` where the drain
/// is `bottleneck_tasks · chunk_total_bytes · bottleneck_beta_ns_per_byte`:
/// no execution of the plan can finish faster than its critical startup
/// chain, nor faster than its most-loaded link can serially move the
/// bytes scheduled across it. The sim cross-check (bench harness,
/// communicator watchdog) treats a report that undercuts this bound as a
/// cost-model bug.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostCertificate {
    /// Critical-path startup cost, ns: the maximum over DAG paths of the
    /// summed α of non-fused tasks (fused cut-through forwards pay no α).
    pub alpha_chain_ns: f64,
    /// Raw resource id of the link with the largest serial drain floor.
    pub bottleneck_resource: u32,
    /// Number of tasks whose route crosses the bottleneck link.
    pub bottleneck_tasks: u32,
    /// The bottleneck link's β, ns per byte.
    pub bottleneck_beta_ns_per_byte: f64,
}

// All fields are finite by construction (α/β come from LinkParams, the
// chain is a finite sum), so equality is total in practice.
impl Eq for CostCertificate {}

impl CostCertificate {
    /// The certified makespan lower bound, ns, for a run moving
    /// `chunk_total_bytes` per (task, chunk) across all micro-batches.
    pub fn lower_bound_ns(&self, chunk_total_bytes: u64) -> f64 {
        let drain = self.bottleneck_tasks as f64
            * chunk_total_bytes as f64
            * self.bottleneck_beta_ns_per_byte;
        self.alpha_chain_ns.max(drain)
    }
}

/// The result of one analysis run: all findings, in a deterministic order
/// (sorted by code, then site, then message), plus the cost certificate
/// when RA007 ran.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
    certificate: Option<CostCertificate>,
}

impl AnalysisReport {
    /// Build a report, sorting the findings into the stable order.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| (a.code, a.site, &a.message).cmp(&(b.code, b.site, &b.message)));
        Self {
            diagnostics,
            certificate: None,
        }
    }

    /// Attach the makespan certificate (builder style).
    pub fn with_certificate(mut self, certificate: CostCertificate) -> Self {
        self.certificate = Some(certificate);
        self
    }

    /// The makespan certificate, when RA007 ran.
    pub fn certificate(&self) -> Option<&CostCertificate> {
        self.certificate.as_ref()
    }

    /// All findings.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of `Error`-severity findings.
    pub fn n_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of `Warn`-severity findings.
    pub fn n_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Does any finding have `Error` severity?
    pub fn has_errors(&self) -> bool {
        self.n_errors() > 0
    }

    /// Is the report empty (plan is clean)?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings carrying a given code.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Render the report for humans, one finding per line.
    pub fn render_human(&self) -> String {
        if self.diagnostics.is_empty() {
            return "clean: no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.n_errors(),
            self.n_warnings()
        ));
        out
    }

    /// Render the report as stable JSON.
    ///
    /// The schema is part of the tool's interface (documented in
    /// DESIGN.md §12) and only ever grows:
    ///
    /// ```json
    /// {"diagnostics": [{"code": "RA001", "severity": "error",
    ///   "message": "...", "task": 0, "rank": 1, "tb": 0, "step": 2,
    ///   "sub_pipeline": 0, "resource": 5, "chunk": 3,
    ///   "path": [0, 4, 0]}],
    ///  "errors": 1, "warnings": 0,
    ///  "certificate": {"alpha_chain_ns": 32000,
    ///    "bottleneck_resource": 5, "bottleneck_tasks": 12,
    ///    "bottleneck_beta_ns_per_byte": 0.04}}
    /// ```
    ///
    /// Site fields are omitted when absent, `path` when empty, and
    /// `certificate` when RA007 did not run; `diagnostics` is sorted by
    /// (code, site, message). Two runs over the same plan emit
    /// byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"code\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"",
                d.code,
                d.severity,
                escape_json(&d.message)
            ));
            for (key, val) in [
                ("task", d.site.task),
                ("rank", d.site.rank),
                ("tb", d.site.tb),
                ("step", d.site.step),
                ("sub_pipeline", d.site.sub_pipeline),
                ("resource", d.site.resource),
                ("chunk", d.site.chunk),
            ] {
                if let Some(v) = val {
                    out.push_str(&format!(", \"{key}\": {v}"));
                }
            }
            if !d.path.is_empty() {
                out.push_str(", \"path\": [");
                for (j, t) in d.path.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&t.to_string());
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str(&format!(
            "], \"errors\": {}, \"warnings\": {}",
            self.n_errors(),
            self.n_warnings()
        ));
        if let Some(c) = &self.certificate {
            out.push_str(&format!(
                ", \"certificate\": {{\"alpha_chain_ns\": {}, \
                 \"bottleneck_resource\": {}, \"bottleneck_tasks\": {}, \
                 \"bottleneck_beta_ns_per_byte\": {}}}",
                c.alpha_chain_ns,
                c.bottleneck_resource,
                c.bottleneck_tasks,
                c.bottleneck_beta_ns_per_byte
            ));
        }
        out.push('}');
        out
    }
}

/// Escape a string for inclusion in a JSON string literal (no surrounding
/// quotes): `"` and `\` are backslash-escaped, and every control
/// character becomes `\n`, `\r`, `\t` or a `\u00XX` escape.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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
    fn codes_and_severities_have_stable_names() {
        for code in LintCode::all() {
            assert!(code.as_str().starts_with("RA"));
            assert!(!code.description().is_empty());
        }
        assert_eq!(Severity::Error.as_str(), "error");
        assert_eq!(Severity::Warn.as_str(), "warn");
        assert_eq!(Severity::Info.as_str(), "info");
        assert!(Severity::Error > Severity::Warn);
    }

    #[test]
    fn report_sorts_and_counts() {
        let report = AnalysisReport::new(vec![
            Diagnostic {
                code: LintCode::RA004,
                severity: Severity::Warn,
                message: "dead".into(),
                site: Site::task(3),
                path: Vec::new(),
            },
            Diagnostic {
                code: LintCode::RA001,
                severity: Severity::Error,
                message: "cycle".into(),
                site: Site::task(0),
                path: Vec::new(),
            },
        ]);
        assert_eq!(report.diagnostics()[0].code, LintCode::RA001);
        assert_eq!(report.n_errors(), 1);
        assert_eq!(report.n_warnings(), 1);
        assert!(report.has_errors());
        assert!(!report.is_clean());
        assert_eq!(report.with_code(LintCode::RA004).count(), 1);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let report = AnalysisReport::new(vec![Diagnostic {
            code: LintCode::RA002,
            severity: Severity::Error,
            message: "a \"race\"\non slot".into(),
            site: Site {
                task: Some(7),
                rank: Some(1),
                chunk: Some(2),
                ..Site::default()
            },
            path: Vec::new(),
        }]);
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"diagnostics\": [{\"code\": \"RA002\", \"severity\": \"error\", \
             \"message\": \"a \\\"race\\\"\\non slot\", \"task\": 7, \"rank\": 1, \
             \"chunk\": 2}], \"errors\": 1, \"warnings\": 0}"
        );
    }

    #[test]
    fn json_grows_path_and_certificate_append_only() {
        let report = AnalysisReport::new(vec![Diagnostic {
            code: LintCode::RA001,
            severity: Severity::Error,
            message: "cycle".into(),
            site: Site::task(0),
            path: vec![0, 4, 0],
        }])
        .with_certificate(CostCertificate {
            alpha_chain_ns: 32000.0,
            bottleneck_resource: 5,
            bottleneck_tasks: 12,
            bottleneck_beta_ns_per_byte: 0.04,
        });
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"diagnostics\": [{\"code\": \"RA001\", \"severity\": \"error\", \
             \"message\": \"cycle\", \"task\": 0, \"path\": [0, 4, 0]}], \
             \"errors\": 1, \"warnings\": 0, \
             \"certificate\": {\"alpha_chain_ns\": 32000, \
             \"bottleneck_resource\": 5, \"bottleneck_tasks\": 12, \
             \"bottleneck_beta_ns_per_byte\": 0.04}}"
        );
        assert_eq!(
            report.certificate().unwrap().lower_bound_ns(1000),
            32000.0_f64.max(12.0 * 1000.0 * 0.04)
        );
    }

    #[test]
    fn empty_report_renders_clean() {
        let report = AnalysisReport::default();
        assert!(report.is_clean());
        assert_eq!(report.render_human(), "clean: no diagnostics\n");
        assert_eq!(
            report.to_json(),
            "{\"diagnostics\": [], \"errors\": 0, \"warnings\": 0}"
        );
    }

    #[test]
    fn human_rendering_names_code_and_site() {
        let report = AnalysisReport::new(vec![Diagnostic {
            code: LintCode::RA005,
            severity: Severity::Error,
            message: "routed over dead link".into(),
            site: Site {
                task: Some(4),
                resource: Some(9),
                ..Site::default()
            },
            path: Vec::new(),
        }]);
        let text = report.render_human();
        assert!(text.contains("error[RA005] at t4 res9: routed over dead link"));
        assert!(text.contains("1 error(s), 0 warning(s)"));
    }
}
