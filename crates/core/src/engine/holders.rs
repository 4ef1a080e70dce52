//! Per-repair hub → holder lists: which receivers carry which agenda hub's
//! label row, built once per deletion repair so the removal pass of
//! [`super::UpdateEngine::dec_pass`] walks only the receivers that can
//! actually lose an entry.
//!
//! The unconditional removal pass (see the [`super`] module docs) must
//! delete every stale `(h, ·, ·)` entry at the receivers the sweep for `h`
//! never updated. Probing every receiver for every hub costs
//! `|hubs| × |receivers|` binary searches although almost no receiver holds
//! a given row. Inverting the receivers' rows costs two scans of each
//! receiver's row prefix (entries ranked at or above the lowest-ranked
//! agenda hub) plus one step per holder.
//!
//! One list covers one label family, over only the hubs that repair that
//! family — a directed repair builds one for `L_in` and one for `L_out`.
//! The lists are exact for the removal of every hub, not only the first:
//! a sweep for `h` writes and removes row `h` of its family only, and each
//! `(hub, family)` pair sweeps at most once per repair. So when `h`'s
//! removal runs, the receivers holding row `h` are the ones that held it
//! before the repair started, plus the ones `h`'s own sweep just wrote —
//! and those are marked updated, which the removal skips anyway.

use super::MaintenanceCounters;
use crate::label::{HubEntry, Rank};
use dspc_graph::VertexId;

/// Hub → holder lists of one label family for one repair, in one flat
/// CSR: bucket `slot` lists the receivers whose row holds the agenda hub
/// in `slot`, in receiver order. Owned by the caller for the duration of
/// one repair and dropped after it; nothing persists in the index.
#[derive(Debug)]
pub struct HubHolders {
    /// Rank position → agenda slot (`u32::MAX` off the agenda), covering
    /// ranks up to the lowest-ranked agenda hub.
    slot: Vec<u32>,
    /// Bucket boundaries into `holders` (`slots + 1` entries).
    offsets: Vec<u32>,
    holders: Vec<VertexId>,
}

impl HubHolders {
    /// Inverts the receivers' label rows over the agenda `hubs` (duplicate
    /// ranks share one slot; slots follow first occurrence). `row(v)`
    /// returns `v`'s rank-sorted row of the family. Rows are scanned twice
    /// (count, then fill), each scan stopping past the lowest-ranked agenda
    /// hub; every scanned entry counts as one `removal_probes` step.
    pub fn build<'a, E: HubEntry>(
        hubs: impl IntoIterator<Item = Rank>,
        receivers: &[VertexId],
        mut row: impl FnMut(VertexId) -> &'a [E],
        stats: &mut MaintenanceCounters,
    ) -> HubHolders {
        let hubs: Vec<Rank> = hubs.into_iter().collect();
        let bound = hubs.iter().map(|r| r.index() + 1).max().unwrap_or(0);
        let mut slot = vec![u32::MAX; bound];
        let mut slots = 0u32;
        for r in hubs {
            if slot[r.index()] == u32::MAX {
                slot[r.index()] = slots;
                slots += 1;
            }
        }
        // Two scans of the same row prefixes: the first counts each
        // bucket, the second fills the CSR sized from those counts (in
        // receiver order within each bucket) — no intermediate buffer, so
        // the transient memory is the holder list itself.
        let buckets = slots as usize;
        let mut offsets = vec![0u32; buckets + 1];
        let mut scan = |visit: &mut dyn FnMut(usize, VertexId)| {
            if buckets == 0 {
                return;
            }
            for &v in receivers {
                for e in row(v) {
                    let Some(&s) = slot.get(e.hub().index()) else {
                        break; // rows are rank-sorted: no agenda hub follows
                    };
                    stats.removal_probes += 1;
                    if s != u32::MAX {
                        visit(s as usize, v);
                    }
                }
            }
        };
        scan(&mut |b, _| offsets[b + 1] += 1);
        for i in 0..buckets {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..buckets].to_vec();
        let mut holders = vec![VertexId(0); offsets[buckets] as usize];
        scan(&mut |b, v| {
            holders[next[b] as usize] = v;
            next[b] += 1;
        });
        HubHolders {
            slot,
            offsets,
            holders,
        }
    }

    /// Receivers whose row held `hub` when the lists were built (empty for
    /// a hub not on the agenda).
    pub fn of(&self, hub: Rank) -> &[VertexId] {
        match self.slot.get(hub.index()) {
            Some(&s) if s != u32::MAX => {
                let s = s as usize;
                &self.holders[self.offsets[s] as usize..self.offsets[s + 1] as usize]
            }
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelEntry;

    fn row(hubs: &[u32]) -> Vec<LabelEntry> {
        hubs.iter()
            .map(|&h| LabelEntry::new(Rank(h), 1, 1))
            .collect()
    }

    #[test]
    fn buckets_receivers_by_hub_and_family() {
        // Receivers 0..3 with two families each, one list per family:
        // family 0 repairs hubs of ranks 1 and 3 (rank 3 listed twice —
        // one slot), family 1 only the hub of rank 1.
        let rows: Vec<[Vec<LabelEntry>; 2]> = vec![
            [row(&[0, 1, 3, 7]), row(&[3])],
            [row(&[2, 5]), row(&[])],
            [row(&[1, 4]), row(&[1, 3])],
        ];
        let receivers = [VertexId(0), VertexId(1), VertexId(2)];
        let mut stats = MaintenanceCounters::default();
        let family = |f: usize, hubs: &[u32], stats: &mut MaintenanceCounters| {
            HubHolders::build(
                hubs.iter().map(|&h| Rank(h)),
                &receivers,
                |v| &rows[v.index()][f][..],
                stats,
            )
        };
        let l0 = family(0, &[3, 1, 3], &mut stats);
        assert_eq!(l0.of(Rank(1)), &[VertexId(0), VertexId(2)]);
        assert_eq!(l0.of(Rank(3)), &[VertexId(0)]);
        // Off-agenda ranks, inside and beyond the slot table, hold nothing.
        assert!(l0.of(Rank(2)).is_empty());
        assert!(l0.of(Rank(9)).is_empty());
        // Each of the two family-0 scans stops past rank 3: 0,1,3 | 2 | 1
        // = 5 entries (rank 7 at receiver 0, rank 5 at receiver 1 and rank
        // 4 at receiver 2 are never read).
        assert_eq!(stats.removal_probes, 10);

        let l1 = family(1, &[1], &mut stats);
        assert_eq!(l1.of(Rank(1)), &[VertexId(2)]);
        // Rank 3 is not on family 1's agenda, although receivers hold it.
        assert!(l1.of(Rank(3)).is_empty());
        // Family 1's scans stop past rank 1: - | - | 1 = 1 entry each.
        assert_eq!(stats.removal_probes, 12);
    }

    #[test]
    fn empty_agenda_scans_nothing() {
        let rows = [row(&[0, 1])];
        let mut stats = MaintenanceCounters::default();
        let h = HubHolders::build(
            std::iter::empty(),
            &[VertexId(0)],
            |v| &rows[v.index()][..],
            &mut stats,
        );
        assert!(h.of(Rank(0)).is_empty());
        assert_eq!(stats.removal_probes, 0);
    }
}
