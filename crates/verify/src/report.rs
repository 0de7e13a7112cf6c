//! Findings, witnesses, and the per-configuration verification report.
//!
//! Every check the verifier runs reports through these types: a
//! [`Finding`] names the [`Lint`] that fired and carries a concrete
//! [`Witness`] — a routed path or a channel-dependency cycle — so a
//! failure is never just an assertion, it is a reproducible counterexample.

use ruche_noc::prelude::*;
use ruche_noc::routing::{PathStep, RouteId};
use std::fmt;

/// How serious a finding is.
///
/// Ordered so that `Error > Warning > Info`, which is the order findings
/// are reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Diagnostic output (e.g. channel-dependency-graph statistics).
    Info,
    /// A broken structural invariant that does not by itself make the
    /// network incorrect (e.g. an asymmetry in route lengths).
    Warning,
    /// A provable correctness violation: deadlock cycle, non-terminating
    /// route, crossbar mismatch.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "ERROR",
        })
    }
}

/// The individual checks the verifier runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// `NetworkConfig::validate` rejected the configuration outright.
    Config,
    /// A route left the array or exceeded the hop bound
    /// ([`NetworkConfig::max_route_hops`]) without ejecting.
    RouteTotality,
    /// A hop failed to strictly decrease the remaining distance to the
    /// destination — the livelock-freedom argument.
    MinimalProgress,
    /// A route requested an (input → output) transition the configured
    /// crossbar scheme does not implement.
    CrossbarConnectivity,
    /// A route requested a virtual channel beyond the port's VC count.
    VcRange,
    /// A packet's VC decreased while staying on a torus ring — legal for
    /// the router, but it voids the dateline ordering argument.
    VcMonotonicity,
    /// The channel-dependency graph has a cycle: the Dally–Seitz
    /// deadlock-freedom condition is violated.
    ChannelDeadlock,
    /// A faulted configuration leaves a source/destination pair with no
    /// surviving route (benign: the degradation sweep accounts for it, but
    /// traffic must not be offered to the pair).
    Unreachable,
    /// Route lengths are not invariant under array reflection on a
    /// translation-symmetric topology.
    Symmetry,
    /// Channel-dependency-graph statistics (always `Info`).
    CdgStats,
}

impl Lint {
    /// Short lint name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Config => "config",
            Lint::RouteTotality => "route-totality",
            Lint::MinimalProgress => "minimal-progress",
            Lint::CrossbarConnectivity => "crossbar-connectivity",
            Lint::VcRange => "vc-range",
            Lint::VcMonotonicity => "vc-monotonicity",
            Lint::ChannelDeadlock => "channel-deadlock",
            Lint::Unreachable => "unreachable",
            Lint::Symmetry => "symmetry",
            Lint::CdgStats => "cdg-stats",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// A virtual channel on a physical link: the node that owns the output,
/// the output direction, and the VC index.
///
/// These are the vertices of the channel-dependency graph. Injection and
/// ejection channels are excluded — a packet never *holds* them while
/// waiting for a network channel, so they cannot take part in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// Router that drives the channel.
    pub from: Coord,
    /// Output direction at `from`.
    pub out: Dir,
    /// Virtual channel index on the link.
    pub vc: u8,
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -{}-> vc{}", self.from, self.out, self.vc)
    }
}

/// The concrete counterexample attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// A cycle in the channel-dependency graph. `channels[i] →
    /// channels[(i+1) % len]` is a dependency induced by `routes[i]`: a
    /// packet on that route holds `channels[i]` while requesting the next.
    Cycle {
        /// The channels on the cycle, in dependency order.
        channels: Vec<Channel>,
        /// One inducing route per dependency edge (same length).
        routes: Vec<RouteId>,
    },
    /// A single offending route, with as much of its path as was walked.
    Route {
        /// The route that triggered the finding.
        route: RouteId,
        /// `(router, output)` steps walked so far.
        steps: Vec<PathStep>,
    },
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::Cycle { channels, routes } => {
                writeln!(f, "dependency cycle over {} channel(s):", channels.len())?;
                for (i, ch) in channels.iter().enumerate() {
                    writeln!(f, "      {ch}   [held by route {}]", routes[i])?;
                }
                write!(f, "      ...back to {}", channels[0])
            }
            Witness::Route { route, steps } => {
                write!(f, "route {route}: ")?;
                for (i, (at, out)) in steps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{at}:{out}")?;
                }
                Ok(())
            }
        }
    }
}

/// One verification finding: a lint, its severity, a human-readable
/// message, and (usually) a concrete witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which check fired.
    pub lint: Lint,
    /// How serious it is.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Counterexample, when one exists.
    pub witness: Option<Witness>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.lint, self.message)?;
        if let Some(w) = &self.witness {
            write!(f, "\n    {w}")?;
        }
        Ok(())
    }
}

/// Size statistics of the analyzed channel-dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CdgStats {
    /// Vertices: distinct `(link, vc)` channels reached by some route.
    pub channels: usize,
    /// Edges: distinct hold-one-request-next dependencies.
    pub dependencies: usize,
    /// Number of routes enumerated to build the graph.
    pub routes: usize,
    /// Largest strongly connected component (1 = acyclic).
    pub largest_scc: usize,
}

/// The verification result for one [`NetworkConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// `cfg.label()` of the verified configuration.
    pub label: String,
    /// Array dimensions, as `cols x rows` text.
    pub dims: String,
    /// All findings, most severe first.
    pub findings: Vec<Finding>,
    /// Channel-dependency-graph statistics.
    pub stats: CdgStats,
}

impl Report {
    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Whether any `Error` finding was produced.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether the configuration is fully clean (no errors, no warnings).
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0 && self.count(Severity::Warning) == 0
    }

    /// Findings of a specific lint.
    pub fn of_lint(&self, lint: Lint) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.lint == lint)
    }

    /// Multi-line human-readable rendering of the whole report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} {} — {} channels, {} dependencies, {} routes, largest SCC {}",
            self.label,
            self.dims,
            self.stats.channels,
            self.stats.dependencies,
            self.stats.routes,
            self.stats.largest_scc
        );
        if self.is_clean() {
            let _ = writeln!(out, "  clean: deadlock-free and all routing lints hold");
        }
        for finding in &self.findings {
            let _ = writeln!(out, "  {finding}");
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}
