//! Correctness checks computed apart from the program.
//!
//! Each check takes plain data read out of a run (a membership ledger
//! the benchmark keeps itself, the delivery log entries of a round,
//! granted prefixes, figure-2 samples) and returns what is wrong with
//! it. The tests below plant an error in each and assert that the
//! check reports it.

use std::collections::{BTreeMap, BTreeSet};

use masc_bgmp_core::HostId;
use mcast_addr::{McastAddr, Prefix};

/// The benchmark's own record of group membership: group → member hosts.
pub type Ledger = BTreeMap<McastAddr, BTreeSet<HostId>>;

/// One data packet the benchmark sent.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub id: u64,
    pub sender: HostId,
    pub group: McastAddr,
}

/// Packets of `sent` whose receivers differ from the ledger's members
/// of their group, less the sender. `received` holds the `(packet id,
/// host)` log entries the round produced; an entry for a packet not in
/// `sent` is reported under that packet's id.
pub fn misdelivered(ledger: &Ledger, sent: &[Sent], received: &[(u64, HostId)]) -> Vec<u64> {
    let mut got: BTreeMap<u64, Vec<HostId>> = BTreeMap::new();
    for (id, h) in received {
        got.entry(*id).or_default().push(*h);
    }
    let mut bad = Vec::new();
    for s in sent {
        let mut want: Vec<HostId> = ledger
            .get(&s.group)
            .map(|m| m.iter().copied().filter(|h| *h != s.sender).collect())
            .unwrap_or_default();
        want.sort();
        let mut have = got.remove(&s.id).unwrap_or_default();
        have.sort();
        if have != want {
            bad.push(s.id);
        }
    }
    bad.extend(got.keys());
    bad
}

/// Pairs of overlapping prefixes in `ranges` (which must be pairwise
/// disjoint).
pub fn overlapping_pairs(ranges: &[Prefix]) -> Vec<(Prefix, Prefix)> {
    let mut sorted = ranges.to_vec();
    sorted.sort_by_key(|p| (p.base_u32(), p.len()));
    let mut out = Vec::new();
    // Sorted by base, a prefix can only overlap a later one that
    // starts inside it.
    for (i, a) in sorted.iter().enumerate() {
        for b in &sorted[i + 1..] {
            if b.base_u32() > a.last().0 {
                break;
            }
            out.push((*a, *b));
        }
    }
    out
}

/// Child prefixes not covered by any of the parent's prefixes.
pub fn uncovered(children: &[Prefix], parent: &[Prefix]) -> Vec<Prefix> {
    children
        .iter()
        .filter(|c| !parent.iter().any(|p| p.covers(c)))
        .copied()
        .collect()
}

/// What an original run and its checkpoint→resume copy show after
/// both were advanced by the same span: a rendering of the samples or
/// delivery sets taken, and the engine's event count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Continuation {
    pub observed: String,
    pub events: u64,
}

/// Describes how the resumed continuation differs from the original's,
/// or `None` when they agree.
pub fn continuation_differs(original: &Continuation, resumed: &Continuation) -> Option<String> {
    if original == resumed {
        return None;
    }
    Some(format!(
        "original {} events / resumed {} events; samples {}",
        original.events,
        resumed.events,
        if original.observed == resumed.observed {
            "equal"
        } else {
            "differ"
        }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use masc::{HierarchySim, HierarchySimParams};

    fn host(domain: u32, host: u32) -> HostId {
        HostId { domain, host }
    }

    fn prefix(a: u8, b: u8, len: u8) -> Prefix {
        Prefix::new_multicast(u32::from_be_bytes([a, b, 0, 0]), len).unwrap()
    }

    #[test]
    fn ledger_check_accepts_exact_delivery_and_reports_a_removed_member() {
        let g = McastAddr::from_octets(224, 0, 0, 1);
        let mut ledger = Ledger::new();
        ledger.insert(g, [host(1, 0), host(2, 1), host(3, 2)].into());
        let sent = [Sent {
            id: 7,
            sender: host(1, 0),
            group: g,
        }];
        // The sender is a member and gets no copy of its own packet.
        let received = [(7, host(3, 2)), (7, host(2, 1))];
        assert!(misdelivered(&ledger, &sent, &received).is_empty());

        // Planted error: a member missing from the ledger.
        ledger.get_mut(&g).unwrap().remove(&host(2, 1));
        assert_eq!(misdelivered(&ledger, &sent, &received), vec![7]);
    }

    #[test]
    fn ledger_check_reports_sender_loopback_and_unknown_packets() {
        let g = McastAddr::from_octets(224, 0, 0, 1);
        let ledger: Ledger = [(g, [host(1, 0), host(2, 0)].into())].into();
        let sent = [Sent {
            id: 1,
            sender: host(1, 0),
            group: g,
        }];
        assert_eq!(
            misdelivered(&ledger, &sent, &[(1, host(2, 0)), (1, host(1, 0))]),
            vec![1]
        );
        assert_eq!(
            misdelivered(&ledger, &sent, &[(1, host(2, 0)), (9, host(2, 0))]),
            vec![9]
        );
    }

    #[test]
    fn disjointness_check_reports_two_overlapping_prefixes() {
        let ok = [prefix(224, 0, 16), prefix(224, 1, 16), prefix(225, 0, 8)];
        assert!(overlapping_pairs(&ok).is_empty());
        // Planted error: a /15 over one of the /16s.
        let bad = [prefix(224, 0, 16), prefix(225, 0, 8), prefix(224, 0, 15)];
        assert_eq!(
            overlapping_pairs(&bad),
            vec![(prefix(224, 0, 15), prefix(224, 0, 16))]
        );
    }

    #[test]
    fn nesting_check_reports_a_child_outside_its_parent() {
        let parent = [prefix(224, 0, 12)];
        assert!(uncovered(&[prefix(224, 1, 16)], &parent).is_empty());
        assert_eq!(
            uncovered(&[prefix(224, 1, 16), prefix(225, 0, 16)], &parent),
            vec![prefix(225, 0, 16)]
        );
    }

    fn probe(sim: &mut HierarchySim, day: u64) -> Continuation {
        sim.run_to_day(day);
        Continuation {
            observed: format!("{:?}", sim.sample()),
            events: sim.engine.stats().events,
        }
    }

    #[test]
    fn transparency_check_reports_a_resumed_run_advanced_one_extra_step() {
        let mut params = HierarchySimParams::paper_fig2(3);
        params.top_level = 4;
        params.children_per = 4;
        let mut original = HierarchySim::new(params);
        original.run_to_day(3);
        let blob = original.checkpoint().unwrap();
        let mut resumed = HierarchySim::resume(&blob).unwrap();
        let a = probe(&mut original, 5);
        let b = probe(&mut resumed, 5);
        assert_eq!(continuation_differs(&a, &b), None);

        // Planted error: the resumed run advanced one step further.
        let c = probe(&mut resumed, 6);
        assert!(continuation_differs(&a, &c).is_some());
    }
}
