//! Per-instruction execution traces (gem5's `--debug-flags=Exec`
//! analogue), for debugging attack programs and inspecting speculation.

use std::fmt;

use unxpec_cache::Cycle;

use crate::isa::{Inst, PcIndex};

/// One executed (possibly wrong-path) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static PC.
    pub pc: PcIndex,
    /// The instruction.
    pub inst: Inst,
    /// Dispatch cycle.
    pub dispatch_cycle: Cycle,
    /// Completion cycle.
    pub complete_cycle: Cycle,
    /// Whether the instruction executed on a wrong (to-be-squashed)
    /// path.
    pub wrong_path: bool,
}

/// A full run trace.
/// # Examples
///
/// ```
/// use unxpec_cpu::{Core, ProgramBuilder, Reg};
///
/// let mut core = Core::table_i();
/// core.set_tracing(true);
/// let mut b = ProgramBuilder::new();
/// b.mov(Reg(1), 7);
/// b.halt();
/// let trace = core.run(&b.build()).trace.unwrap();
/// assert_eq!(trace.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecTrace {
    /// Events in dispatch order.
    pub events: Vec<TraceEvent>,
}

impl ExecTrace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that executed on the wrong path.
    pub fn wrong_path_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.wrong_path)
    }

    /// Events touching memory (loads/stores/flushes).
    pub fn memory_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.inst.is_memory())
    }

    /// Hand-rolled JSON dump:
    /// `{"events": [{"seq": .., "pc": .., "inst": "..", "dispatch_cycle":
    /// .., "complete_cycle": .., "wrong_path": bool}, ...]}`.
    ///
    /// The instruction is its `Display` rendering with `"` and `\`
    /// escaped; every other field is a bare integer or boolean, so the
    /// output is valid JSON by construction.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let inst = e
                .inst
                .to_string()
                .replace('\\', "\\\\")
                .replace('"', "\\\"");
            out.push_str(&format!(
                "\n  {{\"seq\": {}, \"pc\": {}, \"inst\": \"{}\", \"dispatch_cycle\": {}, \"complete_cycle\": {}, \"wrong_path\": {}}}",
                e.seq, e.pc, inst, e.dispatch_cycle, e.complete_cycle, e.wrong_path
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

impl fmt::Display for ExecTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  seq      cycle..done  path  pc    instruction")?;
        for e in &self.events {
            writeln!(
                f,
                "  {:>5}  {:>6}..{:<6}  {}  @{:<4} {}",
                e.seq,
                e.dispatch_cycle,
                e.complete_cycle,
                if e.wrong_path { "WP " } else { "   " },
                e.pc,
                e.inst
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::isa::Reg;

    fn event(seq: u64, wrong: bool, inst: Inst) -> TraceEvent {
        TraceEvent {
            seq,
            pc: seq as usize,
            inst,
            dispatch_cycle: seq,
            complete_cycle: seq + 1,
            wrong_path: wrong,
        }
    }

    #[test]
    fn filters_work() {
        let trace = ExecTrace {
            events: vec![
                event(0, false, Inst::Nop),
                event(
                    1,
                    true,
                    Inst::Load {
                        dst: Reg(1),
                        base: Reg(2),
                        offset: 0,
                    },
                ),
                event(2, false, Inst::Fence),
            ],
        };
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.wrong_path_events().count(), 1);
        assert_eq!(trace.memory_events().count(), 1);
    }

    fn mixed_trace() -> ExecTrace {
        ExecTrace {
            events: vec![
                event(0, false, Inst::Nop),
                event(
                    1,
                    true,
                    Inst::Load {
                        dst: Reg(1),
                        base: Reg(2),
                        offset: 0,
                    },
                ),
                event(2, true, Inst::Nop),
                event(
                    3,
                    false,
                    Inst::Store {
                        src: Reg(1),
                        base: Reg(2),
                        offset: 0,
                    },
                ),
            ],
        }
    }

    #[test]
    fn filters_on_mixed_trace_partition_correctly() {
        let trace = mixed_trace();
        let wrong: Vec<u64> = trace.wrong_path_events().map(|e| e.seq).collect();
        assert_eq!(wrong, vec![1, 2]);
        let mem: Vec<u64> = trace.memory_events().map(|e| e.seq).collect();
        assert_eq!(mem, vec![1, 3]);
        // The two filters overlap only on the wrong-path load.
        let wrong_mem: Vec<u64> = trace
            .memory_events()
            .filter(|e| e.wrong_path)
            .map(|e| e.seq)
            .collect();
        assert_eq!(wrong_mem, vec![1]);
    }

    #[test]
    fn json_export_is_well_formed() {
        let trace = mixed_trace();
        let json = trace.to_json();
        assert!(json.starts_with("{\"events\": ["));
        assert!(json.contains("\"wrong_path\": true"));
        assert!(json.contains("\"wrong_path\": false"));
        assert_eq!(json.matches("\"seq\"").count(), trace.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No raw quotes can leak from the instruction rendering.
        let inst_text = Inst::Load {
            dst: Reg(1),
            base: Reg(2),
            offset: 0,
        }
        .to_string();
        assert!(json.contains(&inst_text.replace('"', "\\\"")));
    }

    #[test]
    fn empty_trace_exports_empty_array() {
        let json = ExecTrace::default().to_json();
        assert_eq!(json, "{\"events\": [\n]}\n");
    }

    #[test]
    fn display_marks_wrong_path() {
        let trace = ExecTrace {
            events: vec![event(0, true, Inst::Nop)],
        };
        assert!(trace.to_string().contains("WP"));
    }
}
