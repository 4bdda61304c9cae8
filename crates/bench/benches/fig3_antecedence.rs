//! Figure 3: the antecedence-graph worked example.
//!
//! A four-process execution builds ten events a–j; P3 then sends the
//! dotted message to P2. The paper: *"In Vcausal protocol, as P3 has
//! never received, neither sent anything to P2, it will send all events
//! to P2. In Manetho and LogOn, using the antecedence graph, P3 can
//! compute the events P2 already knows. So events from a to e are not
//! piggybacked while events from f to j are."*
//!
//! This harness replays that execution on the real reduction structures
//! and prints what each technique piggybacks, plus the byte cost under
//! each wire format.

use vlog_bench::{banner, Table};
use vlog_core::{make_reduction, Determinant, Reduction, Technique};
use vlog_vmpi::{RClock, Rank};

struct World {
    reds: Vec<Box<dyn Reduction>>,
    clocks: Vec<RClock>,
    names: Vec<(Rank, RClock, char)>,
}

impl World {
    fn new(t: Technique) -> World {
        World {
            reds: (0..4).map(|_| make_reduction(t, 4)).collect(),
            clocks: vec![0; 4],
            names: Vec::new(),
        }
    }

    fn msg(&mut self, from: Rank, to: Rank, name: char) {
        let (pb, _) = self.reds[from].build(to, self.clocks[from]);
        let sender_clock = self.clocks[from];
        self.reds[to].integrate(from, sender_clock, &pb);
        self.clocks[to] += 1;
        let det = Determinant {
            receiver: to,
            clock: self.clocks[to],
            sender: from,
            ssn: 0,
            cause: sender_clock,
        };
        self.reds[to].add_local(det);
        self.names.push((to, self.clocks[to], name));
    }

    fn name_of(&self, d: &Determinant) -> char {
        self.names
            .iter()
            .find(|(r, c, _)| *r == d.receiver && *c == d.clock)
            .map(|(_, _, n)| *n)
            .unwrap_or('?')
    }
}

fn run(t: Technique) -> (String, usize, u64) {
    let mut w = World::new(t);
    // The Figure 3 execution (see DESIGN.md F3): events a..j.
    w.msg(1, 0, 'a');
    w.msg(0, 1, 'b');
    w.msg(1, 2, 'c');
    w.msg(1, 2, 'd');
    w.msg(1, 2, 'e');
    w.msg(2, 1, 'f');
    w.msg(1, 3, 'g');
    w.msg(0, 3, 'h');
    w.msg(1, 3, 'i');
    w.msg(0, 3, 'j');
    // The dotted message: P3 -> P2.
    let (pb, _) = w.reds[3].build(2, w.clocks[3]);
    let mut labels: Vec<char> = pb.iter().map(|d| w.name_of(d)).collect();
    labels.sort_unstable();
    let bytes = t.default_format().wire_len(&pb);
    (labels.iter().collect(), pb.len(), bytes)
}

fn main() {
    banner(
        "Figure 3 — piggyback of the dotted P3 -> P2 message",
        "paper: Vcausal sends all of a..j; Manetho and LogOn only f..j",
    );
    let mut table = Table::new(&["technique", "events piggybacked", "count", "wire bytes"]);
    for t in [Technique::Vcausal, Technique::Manetho, Technique::LogOn] {
        let (labels, count, bytes) = run(t);
        table.row(vec![
            t.label().to_string(),
            labels,
            count.to_string(),
            bytes.to_string(),
        ]);
    }
    table.print();
    // Sanity: the harness doubles as a test.
    assert_eq!(run(Technique::Vcausal).1, 10);
    assert_eq!(run(Technique::Manetho).1, 5);
    assert_eq!(run(Technique::LogOn).1, 5);
    println!("\nOK: matches the paper's Figure 3 prediction.");
}
