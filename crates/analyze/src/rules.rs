//! Declarative trace-invariant linter.
//!
//! Each [`Rule`] is a pure function over the structured trace
//! ([`TraceEvent`] sequence) encoding one safety/liveness property from
//! the paper's allocation protocol. Violations carry the offending event
//! window so a failure reads like a replayable counterexample, not a
//! boolean.
//!
//! The rules lint *whole* traces: linting a truncated dump (e.g. the tail
//! of a file) can report end-of-trace liveness violations for exchanges
//! whose completion was cut off.

use rb_simcore::span::{parse_span_close, parse_span_open};
use rb_simcore::{Duration, SimTime, SpanForest, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};

/// One rule violation, anchored to the events that prove it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the violated rule.
    pub rule: &'static str,
    /// Simulated time of the decisive event.
    pub at: SimTime,
    /// What went wrong, in terms of hosts/jobs/procs.
    pub message: String,
    /// The implicated events, in trace order (usually the opening event
    /// of the exchange plus the event that violated it).
    pub window: Vec<TraceEvent>,
}

/// A named trace invariant.
pub struct Rule {
    pub name: &'static str,
    /// The property, phrased as the invariant that must hold.
    pub description: &'static str,
    pub check: fn(&[TraceEvent]) -> Vec<Violation>,
}

/// The full rule catalogue (see DESIGN.md §9 for the rationale of each).
pub fn all_rules() -> &'static [Rule] {
    &RULES
}

static RULES: [Rule; 13] = [
    Rule {
        name: "no-double-allocation",
        description: "a machine is never granted to a job while another job still holds it",
        check: no_double_allocation,
    },
    Rule {
        name: "reclaim-terminates",
        description: "every broker reclaim ends in the machine being freed or regranted",
        check: reclaim_terminates,
    },
    Rule {
        name: "release-completes",
        description: "every sub-appl release ends in Released, the appl's hard deadline, \
                      or the machine going down",
        check: release_completes,
    },
    Rule {
        name: "grant-precedes-spawn",
        description: "a sub-appl spawn is only initiated at a machine granted to some job",
        check: grant_precedes_spawn,
    },
    Rule {
        name: "phase1-before-phase2",
        description: "a coerced named rsh (phase II) only happens after a symbolic rsh \
                      failed in phase I",
        check: phase1_before_phase2,
    },
    Rule {
        name: "sigkill-term-grace",
        description: "the vacate path escalates to SIGKILL only after SIGTERM plus the \
                      grace period",
        check: sigkill_term_grace,
    },
    Rule {
        name: "offer-validity",
        description: "the broker only offers machines that no job currently holds",
        check: offer_validity,
    },
    Rule {
        name: "owner-eviction",
        description: "owner evictions are justified by owner presence, and a returned \
                      owner eventually gets the machine back",
        check: owner_eviction,
    },
    Rule {
        name: "job-lifecycle",
        description: "a finished job receives no further grants or offers",
        check: job_lifecycle,
    },
    Rule {
        name: "pool-conservation",
        description: "grants only go to machines whose daemon registered, and the held \
                      set never exceeds the pool",
        check: pool_conservation,
    },
    Rule {
        name: "span-closure",
        description: "every allocation span of a finished job is closed before quiescence",
        check: span_closure,
    },
    Rule {
        name: "grant-has-request",
        description: "every grant span descends from an alloc request span",
        check: grant_has_request,
    },
    Rule {
        name: "span-nesting",
        description: "spans open once, close after opening at most once, and open after \
                      their parents (guards the sharded kernel's trace merge)",
        check: span_nesting,
    },
];

/// Run every rule over the events.
pub fn lint_events(events: &[TraceEvent]) -> Vec<Violation> {
    let mut out: Vec<Violation> = RULES.iter().flat_map(|r| (r.check)(events)).collect();
    out.sort_by_key(|v| v.at);
    out
}

/// Render violations for humans: one block per violation with its window.
pub fn render_violations(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!(
            "violation [{}] at {}: {}\n",
            v.rule, v.at, v.message
        ));
        for e in &v.window {
            out.push_str(&format!(
                "    {:>14}  {:<28} {}\n",
                e.at.to_string(),
                e.topic,
                e.detail
            ));
        }
    }
    out
}

// ----------------------------------------------------------------------
// Detail-string parsing helpers. The formats are the ones the behaviors
// emit (see `broker.rs`, `appl.rs`, `subappl.rs`, `world.rs`); a parse
// failure means the trace is foreign/corrupt, and the helpers return
// `None` so the rule skips the event rather than panicking mid-lint.
// ----------------------------------------------------------------------

/// `"<left><sep><right>"` → `(left, right)`.
fn split2<'a>(detail: &'a str, sep: &str) -> Option<(&'a str, &'a str)> {
    detail.split_once(sep)
}

/// First whitespace-separated word.
fn first_word(s: &str) -> &str {
    s.split_whitespace().next().unwrap_or(s)
}

/// `broker.grant` / `broker.offer` detail: `"<host> -> <job> ..."`.
fn host_arrow_job(detail: &str) -> Option<(&str, &str)> {
    let (host, rest) = split2(detail, " -> ")?;
    Some((host, first_word(rest)))
}

/// `proc.start` detail: `"<proc> <name> on <host>"`.
fn proc_start(detail: &str) -> Option<(&str, &str, &str)> {
    let (left, host) = split2(detail, " on ")?;
    let (proc, name) = split2(left, " ")?;
    Some((proc, name, host))
}

/// `rsh.invoke` detail: `"<caller> <binding> <hostspec> <command>"` →
/// `(hostspec, command)`.
fn rsh_invoke(detail: &str) -> Option<(&str, &str)> {
    let mut it = detail.split_whitespace();
    let _caller = it.next()?;
    let _binding = it.next()?;
    let host = it.next()?;
    let cmd = it.next()?;
    Some((host, cmd))
}

/// `sig.deliver` detail: `"<proc> <name> <signal>"`.
fn sig_deliver(detail: &str) -> Option<(&str, &str)> {
    let mut it = detail.split_whitespace();
    let proc = it.next()?;
    let sig = it.last()?;
    Some((proc, sig))
}

fn violation(rule: &'static str, message: String, window: Vec<&TraceEvent>) -> Violation {
    let at = window.last().map_or(SimTime(0), |e| e.at);
    Violation {
        rule,
        at,
        message,
        window: window.into_iter().cloned().collect(),
    }
}

/// Shared bookkeeping: which host is held by which job, per the broker's
/// grant/freed/job-done events. `held` maps host → (job, index of the
/// grant event).
struct HeldSet {
    held: BTreeMap<String, (String, usize)>,
}

impl HeldSet {
    fn new() -> Self {
        HeldSet {
            held: BTreeMap::new(),
        }
    }

    /// Update from one event; returns the previous holder on a grant that
    /// collides with an existing allocation.
    fn observe(&mut self, i: usize, e: &TraceEvent) -> Option<(String, usize)> {
        match e.topic.as_str() {
            "broker.grant" => {
                if let Some((host, job)) = host_arrow_job(&e.detail) {
                    return self.held.insert(host.to_string(), (job.to_string(), i));
                }
            }
            "broker.freed" => {
                if let Some((host, _)) = split2(&e.detail, " by ") {
                    self.held.remove(host);
                }
            }
            "broker.job.done" => {
                let job = e.detail.trim();
                self.held.retain(|_, (j, _)| j != job);
            }
            _ => {}
        }
        None
    }
}

// ----------------------------------------------------------------------
// Rules
// ----------------------------------------------------------------------

/// A machine must be freed (or its job finished) before it can be granted
/// again. Double allocation is the paper's cardinal sin: two jobs would
/// run on one workstation and neither gets the promised capacity.
fn no_double_allocation(events: &[TraceEvent]) -> Vec<Violation> {
    let mut held = HeldSet::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if let Some((prev_job, prev_i)) = held.observe(i, e) {
            let (host, job) = host_arrow_job(&e.detail).unwrap_or(("?", "?"));
            out.push(violation(
                "no-double-allocation",
                format!("{host} granted to {job} while still held by {prev_job}"),
                vec![&events[prev_i], e],
            ));
        }
    }
    out
}

/// Every `broker.reclaim` must resolve before the trace ends: the machine
/// is freed, regranted, or the victim job finishes. A pending reclaim at
/// end of trace is a machine stuck in limbo.
fn reclaim_terminates(events: &[TraceEvent]) -> Vec<Violation> {
    // host -> (victim job, reclaim event index)
    let mut pending: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.topic.as_str() {
            "broker.reclaim" => {
                if let Some((host, victim)) = split2(&e.detail, " from ") {
                    pending.insert(host.to_string(), (victim.to_string(), i));
                }
            }
            "broker.freed" => {
                if let Some((host, _)) = split2(&e.detail, " by ") {
                    pending.remove(host);
                }
            }
            "broker.grant" => {
                if let Some((host, _)) = host_arrow_job(&e.detail) {
                    pending.remove(host);
                }
            }
            "broker.job.done" => {
                let job = e.detail.trim();
                pending.retain(|_, (victim, _)| victim != job);
            }
            _ => {}
        }
    }
    pending
        .into_iter()
        .map(|(host, (victim, i))| {
            violation(
                "reclaim-terminates",
                format!("reclaim of {host} from {victim} never completed"),
                vec![&events[i]],
            )
        })
        .collect()
}

/// Every `subappl.release` must end: the sub-appl reports Released, the
/// appl's hard release deadline fires, or the machine goes down. A
/// release pending at end of trace means a vacate hung with no backstop.
fn release_completes(events: &[TraceEvent]) -> Vec<Violation> {
    // host -> index of the unresolved release event
    let mut pending: BTreeMap<String, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.topic.as_str() {
            "subappl.release" => {
                pending.insert(e.detail.trim().to_string(), i);
            }
            "subappl.released" | "appl.release.timeout" => {
                pending.remove(e.detail.trim());
            }
            "machine.power" => {
                if let Some((host, updown)) = split2(&e.detail, " up=") {
                    if updown.trim() == "false" {
                        pending.remove(host);
                    }
                }
            }
            _ => {}
        }
    }
    pending
        .into_iter()
        .map(|(host, i)| {
            violation(
                "release-completes",
                format!("release of {host} never completed (no Released, deadline, or crash)"),
                vec![&events[i]],
            )
        })
        .collect()
}

/// A sub-appl spawn must be *authorized by a grant at initiation time*:
/// when the appl invokes the remote rsh (`rsh.invoke ... sub-appl`), the
/// target machine must be granted to some job. The check is causal, not
/// instantaneous — rsh has real latency, and a job can legitimately
/// finish (freeing its machines) while a spawn is in flight; what must
/// never happen is launching a spawn at a machine nobody holds.
fn grant_precedes_spawn(events: &[TraceEvent]) -> Vec<Violation> {
    let mut held = HeldSet::new();
    // host -> FIFO of authorizations, one per in-flight sub-appl rsh:
    // (was the host held at invoke time?, invoke event index)
    let mut in_flight: BTreeMap<String, Vec<(bool, usize)>> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        held.observe(i, e);
        match e.topic.as_str() {
            "rsh.invoke" => {
                if let Some((host, cmd)) = rsh_invoke(&e.detail) {
                    if cmd == "sub-appl" {
                        let authorized = held.held.contains_key(host);
                        in_flight
                            .entry(host.to_string())
                            .or_default()
                            .push((authorized, i));
                    }
                }
            }
            "proc.start" => {
                if let Some((proc, name, host)) = proc_start(&e.detail) {
                    if name == "sub-appl" {
                        match in_flight.get_mut(host).and_then(|q| {
                            if q.is_empty() {
                                None
                            } else {
                                Some(q.remove(0))
                            }
                        }) {
                            Some((true, _)) => {}
                            Some((false, invoke_i)) => out.push(violation(
                                "grant-precedes-spawn",
                                format!(
                                    "sub-appl {proc} spawned at {host} which no job held \
                                     at invoke time"
                                ),
                                vec![&events[invoke_i], e],
                            )),
                            None => out.push(violation(
                                "grant-precedes-spawn",
                                format!("sub-appl {proc} started on {host} with no rsh invoke"),
                                vec![e],
                            )),
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Phase II (the module's coerced, named rsh) presupposes Phase I (the
/// symbolic rsh that deliberately failed while the allocation ran in the
/// background). A phase-II event with no earlier phase-I event means the
/// two-phase module protocol was bypassed.
fn phase1_before_phase2(events: &[TraceEvent]) -> Vec<Violation> {
    let mut phase1_seen = 0usize;
    let mut out = Vec::new();
    for e in events {
        match e.topic.as_str() {
            "appl.module.phase1" => phase1_seen += 1,
            "appl.module.phase2" if phase1_seen == 0 => {
                out.push(violation(
                    "phase1-before-phase2",
                    format!("phase-II rsh to {} with no prior phase-I failure", e.detail),
                    vec![e],
                ));
            }
            _ => {}
        }
    }
    out
}

/// In the vacate path, SIGKILL is a last resort: `subappl.grace-expired`
/// (the moment the sub-appl escalates to SIGKILL) must follow a
/// `subappl.release` on the same host *and* a SIGTERM delivered to a
/// process on that host after the release. Kills outside a release
/// window (job shutdown, harness chaos) are not the vacate path and are
/// not judged here.
fn sigkill_term_grace(events: &[TraceEvent]) -> Vec<Violation> {
    let mut proc_host: BTreeMap<String, String> = BTreeMap::new();
    // host -> index of the open release
    let mut open_release: BTreeMap<String, usize> = BTreeMap::new();
    // hosts with a SIGTERM delivered since their release opened
    let mut termed_hosts: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.topic.as_str() {
            "proc.start" => {
                if let Some((proc, _, host)) = proc_start(&e.detail) {
                    proc_host.insert(proc.to_string(), host.to_string());
                }
            }
            "subappl.release" => {
                let host = e.detail.trim().to_string();
                termed_hosts.remove(&host);
                open_release.insert(host, i);
            }
            "subappl.released" | "appl.release.timeout" => {
                let host = e.detail.trim();
                open_release.remove(host);
                termed_hosts.remove(host);
            }
            "sig.deliver" => {
                if let Some((proc, sig)) = sig_deliver(&e.detail) {
                    if sig == "Term" {
                        if let Some(host) = proc_host.get(proc) {
                            termed_hosts.insert(host.clone());
                        }
                    }
                }
            }
            "subappl.grace-expired" => {
                let host = e.detail.trim();
                match open_release.get(host) {
                    None => out.push(violation(
                        "sigkill-term-grace",
                        format!("SIGKILL escalation on {host} outside any release window"),
                        vec![e],
                    )),
                    Some(&rel_i) if !termed_hosts.contains(host) => out.push(violation(
                        "sigkill-term-grace",
                        format!("SIGKILL escalation on {host} with no SIGTERM delivered first"),
                        vec![&events[rel_i], e],
                    )),
                    Some(_) => {}
                }
            }
            _ => {}
        }
    }
    out
}

/// A `broker.offer` advertises an idle machine; offering a machine some
/// job currently holds would invite the double allocation the grant path
/// prevents.
fn offer_validity(events: &[TraceEvent]) -> Vec<Violation> {
    let mut held = HeldSet::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        held.observe(i, e);
        if e.topic == "broker.offer" {
            if let Some((host, job)) = host_arrow_job(&e.detail) {
                if let Some((holder, grant_i)) = held.held.get(host) {
                    out.push(violation(
                        "offer-validity",
                        format!("{host} offered to {job} while held by {holder}"),
                        vec![&events[*grant_i], e],
                    ));
                }
            }
        }
    }
    out
}

/// Owner evictions must be justified and effective: `broker.evict.owner`
/// requires the owner to actually be present (per the last
/// `machine.owner` transition), and once an owner returns to a held
/// machine, that machine must eventually leave the job (evict, freed, or
/// job done) or the owner must leave again — the paper's "owner always
/// wins" guarantee. A grant of a machine whose owner is present starts
/// the same wait: the broker may grant on a stale report, but the next
/// report must take the machine back.
fn owner_eviction(events: &[TraceEvent]) -> Vec<Violation> {
    let mut present: BTreeMap<String, bool> = BTreeMap::new();
    let mut held = HeldSet::new();
    // host -> index of the owner-return or grant event that started the
    // wait
    let mut awaiting_eviction: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        held.observe(i, e);
        match e.topic.as_str() {
            "machine.owner" => {
                if let Some((host, p)) = split2(&e.detail, " present=") {
                    let p = p.trim() == "true";
                    present.insert(host.to_string(), p);
                    if p && held.held.contains_key(host) {
                        awaiting_eviction.insert(host.to_string(), i);
                    } else {
                        awaiting_eviction.remove(host);
                    }
                }
            }
            "broker.grant" => {
                if let Some((host, _job)) = host_arrow_job(&e.detail) {
                    if present.get(host).copied().unwrap_or(false) {
                        awaiting_eviction.insert(host.to_string(), i);
                    }
                }
            }
            "broker.evict.owner" => {
                if let Some((host, _job)) = split2(&e.detail, " from ") {
                    if !present.get(host).copied().unwrap_or(false) {
                        out.push(violation(
                            "owner-eviction",
                            format!("{host} evicted for its owner, but the owner is not present"),
                            vec![e],
                        ));
                    }
                    awaiting_eviction.remove(host);
                }
            }
            "broker.freed" | "broker.job.done" => {
                // HeldSet already applied the release; an owner waiting on
                // a host that is no longer held has been satisfied.
                awaiting_eviction.retain(|host, _| held.held.contains_key(host));
            }
            _ => {}
        }
    }
    out.extend(awaiting_eviction.into_iter().map(|(host, i)| {
        violation(
            "owner-eviction",
            format!("the owner of {host} is present but the machine was never vacated"),
            vec![&events[i]],
        )
    }));
    out
}

/// A job that reported done is out of the protocol: granting or offering
/// it machines afterwards leaks capacity to a corpse.
fn job_lifecycle(events: &[TraceEvent]) -> Vec<Violation> {
    let mut done: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.topic.as_str() {
            "broker.job.done" => {
                done.insert(e.detail.trim().to_string(), i);
            }
            "broker.grant" | "broker.offer" => {
                if let Some((host, job)) = host_arrow_job(&e.detail) {
                    if let Some(&done_i) = done.get(job) {
                        out.push(violation(
                            "job-lifecycle",
                            format!(
                                "{host} {} to {job} after the job finished",
                                if e.topic == "broker.grant" {
                                    "granted"
                                } else {
                                    "offered"
                                }
                            ),
                            vec![&events[done_i], e],
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Machines are conserved: the broker can only grant hosts whose daemon
/// said hello, and the number of simultaneously held machines can never
/// exceed the pool size announced at `broker.up`.
fn pool_conservation(events: &[TraceEvent]) -> Vec<Violation> {
    let mut pool_size: Option<usize> = None;
    let mut known_hosts: BTreeSet<String> = BTreeSet::new();
    let mut held = HeldSet::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.topic.as_str() {
            "broker.up" => {
                pool_size = first_word(&e.detail).parse().ok();
            }
            "broker.daemon.hello" => {
                known_hosts.insert(e.detail.trim().to_string());
            }
            "broker.grant" => {
                if let Some((host, job)) = host_arrow_job(&e.detail) {
                    if !known_hosts.contains(host) {
                        out.push(violation(
                            "pool-conservation",
                            format!("{host} granted to {job} but its daemon never registered"),
                            vec![e],
                        ));
                    }
                }
                held.observe(i, e);
                if let Some(n) = pool_size {
                    if held.held.len() > n {
                        out.push(violation(
                            "pool-conservation",
                            format!("{} machines held at once, pool has {n}", held.held.len()),
                            vec![e],
                        ));
                    }
                }
            }
            _ => {
                held.observe(i, e);
            }
        }
    }
    out
}

/// Allocation spans must not leak: an `alloc*` span (alloc / decide /
/// grant / spawn / exec — the broker allocation chain) carrying its own
/// `job=` tag whose job reported done must be closed before the trace
/// quiesces.
///
/// Scoped deliberately:
/// - only the broker allocation chain is judged: every teardown path
///   there is required to close its spans. The parallel systems'
///   `parsys.*` spans are a best-effort local view — a master SIGKILLed
///   at job teardown strands its in-flight grow spans with no code left
///   to close them, which is a shutdown race, not a leak;
/// - only spans whose *own* detail names a job are judged (rsh′ request
///   roots carry no `job=` and have their own timeout backstop);
/// - the job must have a `broker.job.done` event *and* the trace must
///   extend at least one virtual second past it — teardown closes
///   (grant-freed, exec-done) race the cut-off otherwise;
/// - any machine crash (`machine.power … up=false`) at or after the
///   span's open exempts it: crash chaos can legitimately strand spans
///   whose closing messages died with the machine;
/// - close-only ring stubs are skipped (their open, and possibly their
///   close ordering, was truncated away).
fn span_closure(events: &[TraceEvent]) -> Vec<Violation> {
    let forest = SpanForest::from_events(events);
    let Some(end) = events.last().map(|e| e.at) else {
        return Vec::new();
    };
    let mut job_done: BTreeMap<&str, usize> = BTreeMap::new();
    let mut crashes: Vec<SimTime> = Vec::new();
    // Span id → index of its `span.open` event, for violation windows.
    let mut open_idx: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.topic.as_str() {
            "broker.job.done" => {
                job_done.insert(e.detail.trim(), i);
            }
            "machine.power" => {
                if let Some((_, updown)) = split2(&e.detail, " up=") {
                    if updown.trim() == "false" {
                        crashes.push(e.at);
                    }
                }
            }
            "span.open" => {
                if let Some((id, _, _, _)) = parse_span_open(&e.detail) {
                    open_idx.insert(id, i);
                }
            }
            _ => {}
        }
    }
    let grace = Duration::from_secs(1);
    let mut out = Vec::new();
    for rec in forest.spans.values() {
        if !rec.name.starts_with("alloc") || rec.close_at.is_some() {
            continue;
        }
        let Some(open) = rec.open_at else {
            continue;
        };
        let Some(job) = rec.field("job") else {
            continue;
        };
        let Some(&done_i) = job_done.get(job) else {
            continue;
        };
        let done_at = events[done_i].at;
        if end < done_at + grace {
            continue;
        }
        if crashes.iter().any(|&t| t >= open) {
            continue;
        }
        let mut window = Vec::new();
        if let Some(&i) = open_idx.get(&rec.id) {
            window.push(&events[i]);
        }
        window.push(&events[done_i]);
        out.push(violation(
            "span-closure",
            format!(
                "span s{} ({}) of finished job {job} still open {:.3}s after the job's done",
                rec.id,
                rec.name,
                (end - done_at).as_secs_f64()
            ),
            window,
        ));
    }
    out
}

/// A grant without a request is an allocation from nowhere: every
/// `alloc.grant` span must reach an `alloc` (request) span by following
/// parent links. Chains cut by ring truncation — a parent id that never
/// appears, or a parent surviving only as a close-stub — are skipped
/// rather than blamed on the protocol.
fn grant_has_request(events: &[TraceEvent]) -> Vec<Violation> {
    let forest = SpanForest::from_events(events);
    // Span id → index of its `span.open` event, for violation windows.
    let mut open_idx: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.topic == "span.open" {
            if let Some((id, _, _, _)) = parse_span_open(&e.detail) {
                open_idx.insert(id, i);
            }
        }
    }
    let mut out = Vec::new();
    for rec in forest.spans.values() {
        if rec.name != "alloc.grant" || rec.open_at.is_none() {
            continue;
        }
        let mut cur = rec;
        let orphaned = loop {
            if cur.parent == 0 {
                // A recorded root: the grant (or an ancestor still short
                // of `alloc`) was opened with no parent at all.
                break true;
            }
            match forest.get(cur.parent) {
                None => break false, // truncated away — benefit of the doubt
                Some(p) if p.open_at.is_none() => break false, // close-only stub
                Some(p) if p.name == "alloc" => break false,
                Some(p) => cur = p,
            }
        };
        if orphaned {
            let window = open_idx.get(&rec.id).map(|&i| vec![&events[i]]);
            out.push(violation(
                "grant-has-request",
                format!(
                    "grant span s{} ({}) has no alloc request ancestor",
                    rec.id, rec.detail
                ),
                window.unwrap_or_default(),
            ));
        }
    }
    out
}

/// Span records must interleave like a well-nested event stream: an id
/// opens at most once (ids are globally unique), closes at most once and
/// only after its open, and a child's open never precedes its parent's.
/// Trace-order inversions here are how a broken shard-trace merge would
/// first show up — the serial kernel can't produce them. Ring-trimmed
/// traces legitimately lose old opens, so a close (or a parent reference)
/// whose open is missing from the trace *entirely* gets the benefit of
/// the doubt; only records that provably appear out of order are flagged.
fn span_nesting(events: &[TraceEvent]) -> Vec<Violation> {
    // Pre-pass: first `span.open` index of every id, so an out-of-order
    // record can be distinguished from a truncated-away one.
    let mut first_open: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.topic == "span.open" {
            if let Some((id, _, _, _)) = parse_span_open(&e.detail) {
                first_open.entry(id).or_insert(i);
            }
        }
    }
    let mut seen_open: BTreeSet<u64> = BTreeSet::new();
    let mut seen_close: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.topic.as_str() {
            "span.open" => {
                let Some((id, parent, name, _)) = parse_span_open(&e.detail) else {
                    continue;
                };
                if !seen_open.insert(id) {
                    let w = first_open
                        .get(&id)
                        .map(|&j| vec![&events[j], &events[i]])
                        .unwrap_or_default();
                    out.push(violation(
                        "span-nesting",
                        format!("span s{id} ({name}) opened twice"),
                        w,
                    ));
                    continue;
                }
                if parent != 0 && !seen_open.contains(&parent) {
                    if let Some(&pj) = first_open.get(&parent) {
                        out.push(violation(
                            "span-nesting",
                            format!("span s{id} ({name}) opens before its parent s{parent}"),
                            vec![&events[i], &events[pj]],
                        ));
                    }
                }
            }
            "span.close" => {
                let Some((id, name, _)) = parse_span_close(&e.detail) else {
                    continue;
                };
                if let Some(&j) = seen_close.get(&id) {
                    out.push(violation(
                        "span-nesting",
                        format!("span s{id} ({name}) closed twice"),
                        vec![&events[j], &events[i]],
                    ));
                    continue;
                }
                seen_close.insert(id, i);
                if !seen_open.contains(&id) {
                    if let Some(&oj) = first_open.get(&id) {
                        out.push(violation(
                            "span-nesting",
                            format!("span s{id} ({name}) closes before it opens"),
                            vec![&events[i], &events[oj]],
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_unique_and_documented() {
        let mut seen = BTreeSet::new();
        for r in all_rules() {
            assert!(seen.insert(r.name), "duplicate rule {}", r.name);
            assert!(!r.description.is_empty());
        }
        assert_eq!(all_rules().len(), 13);
    }

    #[test]
    fn span_nesting_flags_order_inversions_but_tolerates_truncation() {
        let parse = |text: &str| rb_simcore::parse_rendered(text).unwrap();
        // Well-nested stream: clean.
        let ok = parse(
            "T+1.000000s span.open s1 - alloc job j1\n\
             T+1.100000s span.open s2 s1 alloc.grant n01\n\
             T+1.200000s span.close s2 alloc.grant ok\n\
             T+1.300000s span.close s1 alloc ok\n",
        );
        assert!(span_nesting(&ok).is_empty());
        // Close before open, child before parent, double open, double close.
        let bad = parse(
            "T+1.000000s span.close s1 alloc ok\n\
             T+1.100000s span.open s1 - alloc job j1\n\
             T+1.200000s span.open s3 s2 alloc.grant n01\n\
             T+1.300000s span.open s2 - alloc job j2\n\
             T+1.400000s span.open s2 - alloc job j2\n\
             T+1.500000s span.close s3 alloc.grant ok\n\
             T+1.600000s span.close s3 alloc.grant ok\n",
        );
        let v = span_nesting(&bad);
        let msgs: Vec<&str> = v.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(v.len(), 4, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("closes before it opens")));
        assert!(msgs.iter().any(|m| m.contains("opens before its parent")));
        assert!(msgs.iter().any(|m| m.contains("opened twice")));
        assert!(msgs.iter().any(|m| m.contains("closed twice")));
        // A ring-trimmed trace that lost s1's open: no blame.
        let trimmed = parse(
            "T+5.000000s span.open s9 s1 alloc.grant n02\n\
             T+5.100000s span.close s9 alloc.grant ok\n\
             T+5.200000s span.close s1 alloc ok\n",
        );
        assert!(span_nesting(&trimmed).is_empty());
    }

    #[test]
    fn empty_trace_is_clean() {
        assert!(lint_events(&[]).is_empty());
    }
}
