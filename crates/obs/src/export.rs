//! Exporters: Chrome `trace_event` JSON and metrics JSON.
//!
//! Both are written with the [`json::Writer`] in the compact layout.
//! The chrome format targets `chrome://tracing` / Perfetto: operation
//! activations and switch SVCs become duration (`B`/`E`) pairs on one
//! track, everything else becomes instant (`i`) events. Timestamps are
//! the simulated DWT cycle counts, exported as integer `ts` values —
//! the viewer's time unit reads "µs" but means "cycles" here.

use crate::event::{Access, Dir, Event, Stamped};
use crate::json::{self, Layout, ToJson, Writer};
use crate::metrics::{Histogram, Metrics};

/// One trace record's arguments, in output order.
type Args<'a> = &'a [(&'a str, &'a dyn ToJson)];

fn push_trace_record(w: &mut Writer, ts: u64, ph: &str, name: &str, cat: &str, args: Args<'_>) {
    w.obj().field("name", name).field("cat", cat).field("ph", ph).field("ts", &ts);
    w.field("pid", &1u8).field("tid", &1u8);
    if ph == "i" {
        w.field("s", "t");
    }
    if !args.is_empty() {
        w.key("args").obj();
        for (key, value) in args {
            w.field(key, *value);
        }
        w.end();
    }
    w.end();
}

fn hex(address: u32) -> String {
    format!("{address:#010x}")
}

/// Renders a stamped event stream as Chrome `trace_event` JSON.
///
/// `label` names the process in the viewer (e.g. `"PinLock/opec"`).
/// Spans open and close strictly stacked; a [`Event::Quarantine`] or
/// [`Event::RunEnd`] closes whatever the unwind skipped, so the output
/// always balances and loads cleanly in Perfetto even for aborted runs.
pub fn chrome_trace(events: &[Stamped], label: &str) -> String {
    let mut w = Writer::new(Layout::Compact);
    w.obj().field("displayTimeUnit", "ms").key("traceEvents").rows();
    push_trace_record(&mut w, 0, "M", "process_name", "__metadata", &[("name", &label)]);
    // Stack of open duration-span names, innermost last.
    let mut open: Vec<String> = Vec::new();
    let begin = |w: &mut Writer, open: &mut Vec<String>, name: String, cat, ts, args: Args<'_>| {
        push_trace_record(w, ts, "B", &name, cat, args);
        open.push(name);
    };
    // Closes spans down to and including `name`; no-op if not open.
    let close_to = |w: &mut Writer, open: &mut Vec<String>, name: &str, ts: u64| {
        if !open.iter().any(|n| n == name) {
            return;
        }
        while let Some(top) = open.pop() {
            push_trace_record(w, ts, "E", &top, "", &[]);
            if top == name {
                break;
            }
        }
    };
    for ev in events {
        let ts = ev.t;
        match ev.ev {
            Event::SwitchBegin { dir, from, to, entry, .. } => {
                let name = match dir {
                    Dir::Enter => format!("switch enter op{to}"),
                    Dir::Exit => format!("switch exit op{from}"),
                };
                // The exit SVC runs as the operation's last act: close
                // the op span after the SVC span, so close nothing yet.
                let args: Args<'_> = &[("from", &from), ("to", &to), ("entry", &entry)];
                begin(&mut w, &mut open, name, "switch", ts, args);
            }
            Event::SwitchEnd { dir, from, to, ok, .. } => {
                let name = match dir {
                    Dir::Enter => format!("switch enter op{to}"),
                    Dir::Exit => format!("switch exit op{from}"),
                };
                close_to(&mut w, &mut open, &name, ts);
                match dir {
                    Dir::Enter if ok => begin(&mut w, &mut open, format!("op{to}"), "op", ts, &[]),
                    Dir::Exit if ok => close_to(&mut w, &mut open, &format!("op{from}"), ts),
                    _ => {}
                }
            }
            Event::FuncEnter { func } => {
                begin(&mut w, &mut open, format!("f{func}"), "func", ts, &[]);
            }
            Event::FuncExit { func } => {
                close_to(&mut w, &mut open, &format!("f{func}"), ts);
            }
            Event::VirtHit { op, address, window, slot } => push_trace_record(
                &mut w,
                ts,
                "i",
                "virt hit",
                "virt",
                &[("op", &op), ("address", &hex(address)), ("window", &window), ("slot", &slot)],
            ),
            Event::VirtEvict { op, slot, old_window, new_window } => push_trace_record(
                &mut w,
                ts,
                "i",
                "virt evict",
                "virt",
                &[("op", &op), ("slot", &slot), ("old", &old_window), ("new", &new_window)],
            ),
            Event::VirtMiss { op, address, write } => push_trace_record(
                &mut w,
                ts,
                "i",
                "virt miss",
                "virt",
                &[("op", &op), ("address", &hex(address)), ("write", &write)],
            ),
            Event::Emulated { op, address, access, size, rt, rn } => {
                let dir = match access {
                    Access::Load => "load",
                    Access::Store => "store",
                };
                push_trace_record(
                    &mut w,
                    ts,
                    "i",
                    "emulated",
                    "emul",
                    &[
                        ("op", &op),
                        ("address", &hex(address)),
                        ("dir", &dir),
                        ("size", &size),
                        ("rt", &rt),
                        ("rn", &rn),
                    ],
                );
            }
            Event::MpuRegionWrite { slot, base, size, srd } => push_trace_record(
                &mut w,
                ts,
                "i",
                "mpu region",
                "mpu",
                &[("slot", &slot), ("base", &hex(base)), ("size", &size), ("srd", &srd)],
            ),
            Event::MpuLoad { regions } => {
                push_trace_record(&mut w, ts, "i", "mpu load", "mpu", &[("regions", &regions)])
            }
            Event::PmpEntryWrite { entry, addr, cfg } => push_trace_record(
                &mut w,
                ts,
                "i",
                "pmp entry",
                "pmp",
                &[("entry", &entry), ("addr", &hex(addr)), ("cfg", &cfg)],
            ),
            Event::PmpLoad { entries } => {
                push_trace_record(&mut w, ts, "i", "pmp load", "pmp", &[("entries", &entries)])
            }
            Event::CompartmentMode { comp, privileged } => push_trace_record(
                &mut w,
                ts,
                "i",
                "compartment",
                "aces",
                &[("comp", &comp), ("privileged", &privileged)],
            ),
            Event::Inject { kind, verdict } => push_trace_record(
                &mut w,
                ts,
                "i",
                "inject",
                "inject",
                &[("kind", &format!("{kind:?}")), ("verdict", &format!("{verdict:?}"))],
            ),
            Event::Trap { op, kind, address } => push_trace_record(
                &mut w,
                ts,
                "i",
                "trap",
                "trap",
                &[("op", &op), ("kind", &format!("{kind:?}")), ("address", &hex(address))],
            ),
            Event::Quarantine { op } => {
                // The unwind killed every frame of the operation: close
                // any funcs still open inside it, then the op itself.
                close_to(&mut w, &mut open, &format!("op{op}"), ts);
                push_trace_record(&mut w, ts, "i", "quarantine", "trap", &[("op", &op)]);
            }
            Event::OracleDivergence { op, kind, layer, address } => push_trace_record(
                &mut w,
                ts,
                "i",
                "oracle divergence",
                "oracle",
                &[
                    ("op", &op),
                    ("kind", &format!("{kind:?}")),
                    ("layer", &format!("{layer:?}")),
                    ("address", &hex(address)),
                ],
            ),
            Event::OracleProbe { op, cell, allowed } => push_trace_record(
                &mut w,
                ts,
                "i",
                "oracle probe",
                "oracle",
                &[("op", &op), ("cell", &cell), ("allowed", &allowed)],
            ),
            Event::RunEnd { insts } => {
                while let Some(top) = open.pop() {
                    push_trace_record(&mut w, ts, "E", &top, "", &[]);
                }
                push_trace_record(&mut w, ts, "i", "run end", "run", &[("insts", &insts)]);
            }
            Event::Job { kind, attempt } => push_trace_record(
                &mut w,
                ts,
                "i",
                "job",
                "campaign",
                &[("kind", &format!("{kind:?}")), ("attempt", &attempt)],
            ),
        }
    }
    // Streams cut short by a full ring may still have open spans.
    let last_ts = events.last().map(|e| e.t).unwrap_or(0);
    while let Some(top) = open.pop() {
        push_trace_record(&mut w, last_ts, "E", &top, "", &[]);
    }
    w.end().end();
    let mut out = w.finish();
    out.push('\n');
    out
}

impl ToJson for Histogram {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("count", &self.count()).field("sum", &self.sum());
        w.field("min", &self.min()).field("max", &self.max());
        w.key("mean").fixed(self.mean(), 2);
        w.field("p50", &self.quantile(0.5)).field("p99", &self.quantile(0.99));
        w.key("buckets").arr();
        for (lo, count) in self.buckets() {
            w.arr().val(&lo).val(&count).end();
        }
        w.end().end();
    }
}

impl ToJson for Metrics {
    fn write_json(&self, w: &mut Writer) {
        w.obj().key("ops").arr();
        for (op, om) in self.ops() {
            w.obj().field("op", &op).field("enters", &om.enters).field("exits", &om.exits);
            w.field("switch_cycles", &om.switch_cycles());
            w.field("enter_cycles", &om.enter_cycles).field("exit_cycles", &om.exit_cycles);
            w.field("virt_hits", &om.virt_hits).field("virt_evictions", &om.virt_evictions);
            w.field("virt_misses", &om.virt_misses);
            w.field("emulated_loads", &om.emulated_loads);
            w.field("emulated_stores", &om.emulated_stores);
            w.field("insts_retired", &om.insts_retired).field("func_enters", &om.func_enters);
            w.field("traps", &om.traps).field("quarantines", &om.quarantines);
            w.field("priv_lifts", &om.priv_lifts).end();
        }
        w.end().key("totals").obj();
        w.field("switches", &self.total_switches());
        w.field("switch_cycles", &self.total_switch_cycles());
        w.field("insts", &self.total_insts).field("cycles", &self.run_cycles);
        w.field("events", &self.events_seen).field("mpu_loads", &self.mpu_loads);
        w.field("mpu_region_writes", &self.mpu_region_writes);
        w.field("pmp_loads", &self.pmp_loads).field("pmp_entry_writes", &self.pmp_entry_writes);
        w.field("injections", &self.injections);
        w.field("jobs_completed", &self.jobs_completed);
        w.field("jobs_fuel_exhausted", &self.jobs_fuel_exhausted);
        w.field("jobs_timed_out", &self.jobs_timed_out);
        w.field("jobs_panicked", &self.jobs_panicked);
        w.field("jobs_retried", &self.jobs_retried).field("jobs_resumed", &self.jobs_resumed);
        w.end().end();
    }
}

/// Renders a [`Metrics`] aggregate as a JSON object (one run's worth;
/// `opec-eval report` wraps one of these per app/system pair).
pub fn metrics_json(m: &Metrics) -> String {
    json::to_string(m, Layout::Compact)
}

/// Renders a stream as canonical text, one event per line — the
/// golden-file format.
pub fn event_log(events: &[Stamped]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dir, Event};

    fn st(t: u64, ev: Event) -> Stamped {
        Stamped { t, ev }
    }

    fn sample() -> Vec<Stamped> {
        vec![
            st(10, Event::SwitchBegin { dir: Dir::Enter, from: 0, to: 1, entry: 7, insts: 3 }),
            st(40, Event::SwitchEnd { dir: Dir::Enter, from: 0, to: 1, entry: 7, ok: true }),
            st(50, Event::FuncEnter { func: 7 }),
            st(60, Event::VirtHit { op: 1, address: 0x4000_0000, window: 0, slot: 4 }),
            st(80, Event::FuncExit { func: 7 }),
            st(90, Event::SwitchBegin { dir: Dir::Exit, from: 1, to: 0, entry: 7, insts: 9 }),
            st(95, Event::SwitchEnd { dir: Dir::Exit, from: 1, to: 0, entry: 7, ok: true }),
            st(100, Event::RunEnd { insts: 12 }),
        ]
    }

    /// A minimal structural check that the output is one JSON object
    /// with balanced brackets outside strings.
    fn assert_balanced_json(s: &str) {
        let mut depth_obj = 0i64;
        let mut depth_arr = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth_obj += 1,
                '}' => depth_obj -= 1,
                '[' => depth_arr += 1,
                ']' => depth_arr -= 1,
                _ => {}
            }
            assert!(depth_obj >= 0 && depth_arr >= 0);
        }
        assert_eq!(depth_obj, 0);
        assert_eq!(depth_arr, 0);
        assert!(!in_str);
    }

    #[test]
    fn chrome_trace_is_balanced_and_paired() {
        let json = chrome_trace(&sample(), "Sample/opec");
        assert_balanced_json(&json);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("Sample/opec"));
        // Every B has a matching E.
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e);
    }

    #[test]
    fn chrome_trace_closes_spans_at_run_end() {
        // Func span left open by a quarantine-style cut.
        let events = vec![
            st(10, Event::SwitchBegin { dir: Dir::Enter, from: 0, to: 1, entry: 7, insts: 0 }),
            st(20, Event::SwitchEnd { dir: Dir::Enter, from: 0, to: 1, entry: 7, ok: true }),
            st(30, Event::FuncEnter { func: 7 }),
            st(50, Event::Quarantine { op: 1 }),
            st(60, Event::RunEnd { insts: 5 }),
        ];
        let json = chrome_trace(&events, "x");
        assert_balanced_json(&json);
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e);
    }

    #[test]
    fn metrics_json_is_balanced() {
        let mut m = Metrics::new();
        for ev in sample() {
            m.observe(ev);
        }
        let json = metrics_json(&m);
        assert_balanced_json(&json);
        assert!(json.contains("\"virt_hits\":1"));
        assert!(json.contains("\"insts\":12"));
    }

    #[test]
    fn event_log_is_line_per_event() {
        let log = event_log(&sample());
        assert_eq!(log.lines().count(), 8);
        assert!(log.ends_with('\n'));
    }
}
