//! `chat_server`: the FreeCS case study (§7.4) driven command by command.
//!
//! One `laminar::Laminar` system with a `laminar_apps::freecs::ChatServer`
//! of 256 users (the first 16 are VIPs) and 8 groups; group `g` is owned
//! by user `g`, a VIP, so its owner may ban. Every user starts in group
//! `u % 8`. One thread issues commands directly, with no request padding,
//! so Laminar's share of a command is visible. `read_inbox` is left out:
//! it clones the whole inbox, so its cost would grow with run length.

use crate::harness::{collect, run_one, Check, Limit, LoopStats, Workload};
use crate::layers::{self, Counters};
use crate::report::APP_CMDS;
use crate::trace::{stats_by_name, Probe};
use crate::{timed_setups, Config, Outcome};
use laminar::{Laminar, LaminarResult};
use laminar_apps::freecs::{ChatServer, CmdOutcome};
use laminar_difc::{Label, SecPair, TagAllocator};
use laminar_util::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: usize = 256;
const VIPS: usize = 16;
const GROUPS: usize = 8;
/// Users bans and kicks pick their victims from.
const VICTIMS: std::ops::Range<usize> = 128..160;
const THEMES: usize = 16;
/// Warm-up commands, run (and checked) as part of set-up.
const WARMUP_OPS: u64 = 2000;

/// One command. `u` issues it; `g` is a group; `v` a victim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChatOp {
    /// 35 %.
    Say { u: usize, g: usize },
    /// 20 %: a private message from `u` to `to`.
    Msg { u: usize, to: usize },
    /// 7.5 %.
    Join { u: usize, g: usize },
    /// 7.5 %.
    Leave { u: usize, g: usize },
    /// 15 %: read a group's theme.
    Theme { g: usize },
    /// 5 %: set theme number `t`.
    SetTheme { u: usize, g: usize, t: usize },
    /// 4 %.
    Ban { u: usize, g: usize, v: usize },
    /// 4 %.
    Unban { u: usize, g: usize, v: usize },
    /// 2 %.
    Kick { u: usize, g: usize, v: usize },
}

/// Draws the next command. Half of the role-gated commands come from the
/// group's owner, half from a random user (mostly expected denials).
#[must_use]
pub fn gen_op(rng: &mut SplitMix64) -> ChatOp {
    let g = rng.gen_range(0..GROUPS);
    let u = rng.gen_range(0..USERS);
    let issuer = if rng.gen_bool() { g } else { u };
    let v = rng.gen_range(VICTIMS);
    match rng.below(1000) {
        0..=349 => ChatOp::Say { u, g },
        350..=549 => ChatOp::Msg { u, to: rng.gen_range(0..USERS) },
        550..=624 => ChatOp::Join { u, g },
        625..=699 => ChatOp::Leave { u, g },
        700..=849 => ChatOp::Theme { g },
        850..=899 => ChatOp::SetTheme { u: issuer, g, t: rng.gen_range(0..THEMES) },
        900..=939 => ChatOp::Ban { u: issuer, g, v },
        940..=979 => ChatOp::Unban { u: issuer, g, v },
        _ => ChatOp::Kick { u: issuer, g, v },
    }
}

/// What a command returned.
#[derive(Debug)]
pub enum ChatObs {
    /// A command's verdict.
    Cmd(LaminarResult<CmdOutcome>),
    /// The theme read back.
    Theme(LaminarResult<String>),
}

/// Users in a bit set.
type UserSet = [u64; USERS / 64];

fn has(s: &UserSet, u: usize) -> bool {
    s[u / 64] >> (u % 64) & 1 == 1
}

fn set(s: &mut UserSet, u: usize, on: bool) {
    if on {
        s[u / 64] |= 1 << (u % 64);
    } else {
        s[u / 64] &= !(1 << (u % 64));
    }
}

/// The role, membership and ban model.
#[derive(Clone, Debug)]
pub struct ChatModel {
    members: [UserSet; GROUPS],
    banned: [UserSet; GROUPS],
    theme: [Option<usize>; GROUPS],
}

/// The name of theme number `t`.
#[must_use]
pub fn theme_name(t: Option<usize>) -> String {
    t.map_or_else(|| "default".into(), |t| format!("theme{t}"))
}

fn is_owner(u: usize, g: usize) -> bool {
    u == g
}

impl ChatModel {
    /// The state set-up leaves: user `u` is a member of group `u % 8`.
    #[must_use]
    pub fn new() -> Self {
        let mut m = ChatModel {
            members: [[0; USERS / 64]; GROUPS],
            banned: [[0; USERS / 64]; GROUPS],
            theme: [None; GROUPS],
        };
        for u in 0..USERS {
            set(&mut m.members[u % GROUPS], u, true);
        }
        m
    }

    /// Checks one outcome and advances the model.
    pub fn check(&mut self, op: &ChatOp, obs: &ChatObs) -> Check {
        let verdict =
            |allowed: bool| if allowed { CmdOutcome::Ok } else { CmdOutcome::Denied };
        let (allowed, effect): (bool, Option<(bool, usize, usize, bool)>) = match *op {
            ChatOp::Theme { g } => {
                return match obs {
                    ChatObs::Theme(Ok(s)) => {
                        Check::ok_if(*s == theme_name(self.theme[g]))
                    }
                    _ => Check::FAILED,
                }
            }
            ChatOp::Say { u, g } => (has(&self.members[g], u), None),
            ChatOp::Msg { .. } => (true, None),
            ChatOp::Join { u, g } => {
                let ok = !has(&self.banned[g], u);
                (ok, Some((true, g, u, true)))
            }
            ChatOp::Leave { u, g } => (true, Some((true, g, u, false))),
            ChatOp::SetTheme { u, g, .. } => (is_owner(u, g), None),
            ChatOp::Ban { u, g, v } => {
                (is_owner(u, g) && u < VIPS, Some((false, g, v, true)))
            }
            ChatOp::Unban { u, g, v } => {
                (is_owner(u, g) && u < VIPS, Some((false, g, v, false)))
            }
            ChatOp::Kick { u, g, v } => (is_owner(u, g), Some((true, g, v, false))),
        };
        let ChatObs::Cmd(Ok(got)) = obs else { return Check::FAILED };
        if *got != verdict(allowed) {
            return Check::FAILED;
        }
        if !allowed {
            return Check::DENIED;
        }
        if let ChatOp::SetTheme { g, t, .. } = *op {
            self.theme[g] = Some(t);
        }
        if let Some((members, g, who, on)) = effect {
            let s = if members { &mut self.members[g] } else { &mut self.banned[g] };
            set(s, who, on);
        }
        Check::OK
    }
}

impl Default for ChatModel {
    fn default() -> Self {
        Self::new()
    }
}

/// A booted system running the chat server.
struct Server {
    system: Arc<Laminar>,
    srv: ChatServer,
}

/// Counters of the servers a client has retired.
#[derive(Clone, Copy, Debug, Default)]
struct Past {
    hooks: u64,
    regions: u64,
    region_ns: u64,
    accesses: u64,
    dispatches: u64,
    syncs: u64,
    elided: u64,
    suppressed: u64,
}

/// Boots a system, logs every user in, creates the groups and makes the
/// initial memberships.
fn boot_server(users: &[String], groups: &[String]) -> Result<Server, String> {
    let e = |e: laminar::LaminarError| format!("chat_server set-up: {e}");
    let system = Laminar::boot();
    let srv = ChatServer::new(&system).map_err(e)?;
    for (u, name) in users.iter().enumerate() {
        srv.login_user(name, u < VIPS).map_err(e)?;
    }
    for (g, name) in groups.iter().enumerate() {
        srv.create_group(name, &users[g]).map_err(e)?;
    }
    for (u, name) in users.iter().enumerate() {
        if srv.join(name, &groups[u % GROUPS]).map_err(e)? != CmdOutcome::Ok {
            return Err(format!("chat_server set-up: {name} could not join"));
        }
    }
    Ok(Server { system, srv })
}

/// The single client. The server's public log and inboxes grow with
/// every `say` and `msg` and cannot be trimmed through the app's API, so
/// the client moves to a freshly set-up server every `EPOCH_OPS`
/// commands; that upkeep is not part of any op.
pub struct Chat {
    rng: SplitMix64,
    server: Server,
    users: Vec<String>,
    groups: Vec<String>,
    themes: Vec<String>,
    model: ChatModel,
    epoch_ops: u64,
    hooks_at_start: u64,
    past: Past,
}

/// Commands served by one server before the client moves to a fresh one.
const EPOCH_OPS: u64 = 1 << 17;

impl std::fmt::Debug for Chat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chat").field("epoch_ops", &self.epoch_ops).finish_non_exhaustive()
    }
}

impl Chat {
    /// Starts counting from zero on the current server.
    fn reset_counters(&mut self) {
        self.server.srv.reset_stats();
        self.hooks_at_start = self.server.system.kernel().hook_calls();
        self.past = Past::default();
    }

    /// Counters since [`Chat::reset_counters`], over every server used.
    fn totals(&self) -> Past {
        let s = self.server.srv.stats();
        let p = self.past;
        Past {
            hooks: p.hooks + self.server.system.kernel().hook_calls()
                - self.hooks_at_start,
            regions: p.regions + s.regions_entered,
            region_ns: p.region_ns + s.region_ns,
            accesses: p.accesses + s.labeled_reads + s.labeled_writes,
            dispatches: p.dispatches + s.dynamic_dispatches,
            syncs: p.syncs + s.os_syncs,
            elided: p.elided + s.os_syncs_elided,
            suppressed: p.suppressed + s.exceptions_suppressed,
        }
    }
}

impl Workload for Chat {
    type Op = ChatOp;
    type Obs = ChatObs;

    fn next_op(&mut self) -> ChatOp {
        gen_op(&mut self.rng)
    }

    fn kind(op: &ChatOp) -> &'static str {
        match op {
            ChatOp::Say { .. } => "op.say",
            ChatOp::Msg { .. } => "op.msg",
            ChatOp::Join { .. } => "op.join",
            ChatOp::Leave { .. } => "op.leave",
            ChatOp::Theme { .. } => "op.theme",
            ChatOp::SetTheme { .. } => "op.set_theme",
            ChatOp::Ban { .. } => "op.ban",
            ChatOp::Unban { .. } => "op.unban",
            ChatOp::Kick { .. } => "op.kick",
        }
    }

    fn exec<P: Probe>(&mut self, op: &ChatOp, p: &mut P) -> ChatObs {
        self.epoch_ops += 1;
        let (srv, n, gr) = (&self.server.srv, &self.users, &self.groups);
        match *op {
            ChatOp::Say { u, g } => {
                ChatObs::Cmd(p.call("apps.say", || srv.say(&n[u], &gr[g], "hello")))
            }
            ChatOp::Msg { u, to } => {
                ChatObs::Cmd(p.call("apps.msg", || srv.msg(&n[u], &n[to], "psst")))
            }
            ChatOp::Join { u, g } => {
                ChatObs::Cmd(p.call("apps.join", || srv.join(&n[u], &gr[g])))
            }
            ChatOp::Leave { u, g } => {
                ChatObs::Cmd(p.call("apps.leave", || srv.leave(&n[u], &gr[g])))
            }
            ChatOp::Theme { g } => {
                ChatObs::Theme(p.call("apps.theme", || srv.theme(&gr[g])))
            }
            ChatOp::SetTheme { u, g, t } => {
                ChatObs::Cmd(p.call("apps.set_theme", || {
                    srv.set_theme(&n[u], &gr[g], &self.themes[t])
                }))
            }
            ChatOp::Ban { u, g, v } => {
                ChatObs::Cmd(p.call("apps.ban", || srv.ban(&n[u], &gr[g], &n[v])))
            }
            ChatOp::Unban { u, g, v } => {
                ChatObs::Cmd(p.call("apps.unban", || srv.unban(&n[u], &gr[g], &n[v])))
            }
            ChatOp::Kick { u, g, v } => {
                ChatObs::Cmd(p.call("apps.kick", || srv.kick(&n[u], &gr[g], &n[v])))
            }
        }
    }

    fn check(&mut self, op: &ChatOp, obs: &ChatObs) -> Check {
        self.model.check(op, obs)
    }

    fn maintain(&mut self) -> Result<Duration, String> {
        if self.epoch_ops < EPOCH_OPS {
            return Ok(Duration::ZERO);
        }
        let t = Instant::now();
        self.past = self.totals();
        self.server = boot_server(&self.users, &self.groups)?;
        self.server.srv.reset_stats();
        self.hooks_at_start = self.server.system.kernel().hook_calls();
        self.model = ChatModel::new();
        self.epoch_ops = 0;
        Ok(t.elapsed())
    }
}

/// Sets up the server and warms it up.
///
/// # Errors
/// A set-up failure, or a warm-up mismatch.
pub fn setup(seed: u64) -> Result<(Chat, LoopStats), String> {
    let users: Vec<String> = (0..USERS).map(|u| format!("u{u:03}")).collect();
    let groups: Vec<String> = (0..GROUPS).map(|g| format!("g{g}")).collect();
    let chat = Chat {
        rng: SplitMix64::new(seed ^ 0xC2B2_AE3D_27D4_EB4F),
        server: boot_server(&users, &groups)?,
        users,
        groups,
        themes: (0..THEMES).map(|t| theme_name(Some(t))).collect(),
        model: ChatModel::new(),
        epoch_ops: 0,
        hooks_at_start: 0,
        past: Past::default(),
    };
    let ran = run_one(chat, Limit::ops(WARMUP_OPS), None);
    if ran.stats.failed > 0 {
        return Err(format!("chat_server warm-up mismatches: {:?}", ran.stats.failures));
    }
    Ok((ran.worker, ran.stats))
}

/// The label shapes FreeCS uses, rebuilt from fresh tags: region labels
/// and the cells they read and write (members `{I(m)}`, ban list
/// `{I(vip, su)}`, theme `{I(su)}`, inbox `{S(u)}`, public log).
fn app_label_pairs() -> (Vec<SecPair>, Vec<(SecPair, SecPair)>) {
    let tags = TagAllocator::new();
    let (m, vip, su, u) = (tags.fresh(), tags.fresh(), tags.fresh(), tags.fresh());
    let i = |ts: &[_]| SecPair::integrity_only(Label::from_tags(ts.iter().copied()));
    let (none, mem, ban, theme, kick) =
        (SecPair::unlabeled(), i(&[m]), i(&[vip, su]), i(&[su]), i(&[m, su]));
    let inbox = SecPair::secrecy_only(Label::singleton(u));
    let labels = vec![
        none.clone(),
        mem.clone(),
        ban.clone(),
        theme.clone(),
        kick.clone(),
        inbox.clone(),
    ];
    let flows = vec![
        (mem.clone(), none.clone()),  // say, join: read membership
        (none.clone(), none.clone()), // say: append to the public log
        (ban.clone(), none.clone()),  // join: read the ban list
        (mem.clone(), mem.clone()),   // join, leave: write membership
        (none.clone(), inbox),        // msg: write up into an inbox
        (theme.clone(), none),        // theme: read
        (theme.clone(), theme),       // set_theme: write
        (ban.clone(), ban),           // ban, unban: write the ban list
        (kick, mem),                  // kick: write membership
    ];
    (labels, flows)
}

/// Runs the workload.
///
/// # Errors
/// Set-up failures.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let ((mut chat, warmup), setup_s) = timed_setups(cfg.setup_reps, || setup(cfg.seed))?;
    chat.reset_counters();
    let before = Counters::read();
    laminar_obs::reset();
    let c = collect(vec![run_one(chat, Limit::secs(cfg.seconds), cfg.trace)]);
    let mut out = Outcome::new(setup_s, &warmup, &c);
    if cfg.trace.is_none() {
        return Ok(out);
    }
    let ops = c.stats.attempted;
    let chat = &c.workers[0];
    let t = chat.totals();
    let v = &mut out.layer;
    layers::obs_metrics(|| chat.server.system.kernel().audit_snapshot(), ops, v);
    before.deltas(ops, Some(t.hooks), None, v);
    let spans = stats_by_name(&c.tracers.iter().collect::<Vec<_>>());
    for cmd in APP_CMDS {
        if let Some(s) = spans.get(format!("apps.{cmd}").as_str()) {
            v.insert(format!("apps.{cmd}.p50_us"), s.p50_ns / 1e3);
            v.insert(format!("apps.{cmd}.p99_us"), s.p99_ns / 1e3);
        }
    }
    let per_cmd = |x: u64| x as f64 / ops.max(1) as f64;
    v.insert("apps.denied_ratio".into(), per_cmd(c.stats.denied));
    let cmd_ns: f64 = spans
        .iter()
        .filter(|(k, _)| k.starts_with("apps."))
        .map(|(_, s)| s.total_ns)
        .sum();
    v.insert("core.regions_per_cmd".into(), per_cmd(t.regions));
    v.insert("core.region_share".into(), t.region_ns as f64 / cmd_ns.max(1.0));
    v.insert("core.labeled_accesses_per_cmd".into(), per_cmd(t.accesses));
    v.insert("core.dynamic_dispatches_per_cmd".into(), per_cmd(t.dispatches));
    v.insert("core.os_syncs".into(), t.syncs as f64);
    v.insert("core.os_syncs_elided".into(), t.elided as f64);
    v.insert("core.exceptions_suppressed".into(), t.suppressed as f64);
    let (labels, flows) = app_label_pairs();
    layers::difc_probe_metrics(&labels, &flows, v);
    out.tracers = c.tracers;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<ChatOp> {
        let mut rng = SplitMix64::new(seed);
        (0..2000).map(|_| gen_op(&mut rng)).collect()
    }

    #[test]
    fn the_seed_fixes_the_op_stream() {
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
    }

    #[test]
    fn the_model_flags_wrong_outcomes() {
        let mut m = ChatModel::new();
        let cmd = |o| ChatObs::Cmd(Ok(o));
        // User 9 starts in group 1, not group 2.
        assert_eq!(m.check(&ChatOp::Say { u: 9, g: 1 }, &cmd(CmdOutcome::Ok)), Check::OK);
        let stray = ChatOp::Say { u: 9, g: 2 };
        assert_eq!(m.check(&stray, &cmd(CmdOutcome::Ok)), Check::FAILED);
        assert_eq!(m.check(&stray, &cmd(CmdOutcome::Denied)), Check::DENIED);
        // Only group 2's owner (user 2, a VIP) may ban there.
        let usurper = ChatOp::Ban { u: 40, g: 2, v: 130 };
        assert_eq!(m.check(&usurper, &cmd(CmdOutcome::Ok)), Check::FAILED);
        let ban = ChatOp::Ban { u: 2, g: 2, v: 130 };
        assert_eq!(m.check(&ban, &cmd(CmdOutcome::Ok)), Check::OK);
        // The ban holds: joining must now be refused.
        let join = ChatOp::Join { u: 130, g: 2 };
        assert_eq!(m.check(&join, &cmd(CmdOutcome::Ok)), Check::FAILED);
        assert_eq!(m.check(&join, &cmd(CmdOutcome::Denied)), Check::DENIED);
        // A theme read must return the theme last set.
        let set = ChatOp::SetTheme { u: 2, g: 2, t: 4 };
        assert_eq!(m.check(&set, &cmd(CmdOutcome::Ok)), Check::OK);
        let read = ChatOp::Theme { g: 2 };
        assert_eq!(m.check(&read, &ChatObs::Theme(Ok("default".into()))), Check::FAILED);
        assert_eq!(m.check(&read, &ChatObs::Theme(Ok(theme_name(Some(4))))), Check::OK);
    }
}
