//! The independent reference every benchmark answer is checked against: a
//! per-tick component sweep over raw contact records.
//!
//! It shares no code with the indexes. At each tick of the window the
//! contacts active at that tick are unioned (union-find); every component
//! holding the item at that tick passes it to all of its members. The item
//! starts at the source at `t1`, so an object's earliest hold tick is the
//! first tick at which it shares a component with a holder. That is the
//! `Reach` contract of `QUERIES.md`: the DN is a compression of exactly
//! these per-tick components.
//!
//! Records carry their position in the feed, so a query asked while only a
//! prefix of the feed has been appended sees exactly that prefix.

/// One contact observation: objects `a` and `b` in contact at `tick`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    pub a: u32,
    pub b: u32,
    pub tick: u32,
}

/// Contact records bucketed by tick, each tagged with its feed position.
pub struct Sweep {
    num_objects: usize,
    per_tick: Vec<Vec<(u32, u32, u32)>>,
}

impl Sweep {
    /// Buckets `records` (feed order: position `i` is the `i`-th record
    /// appended) by tick.
    pub fn new(num_objects: usize, horizon: u32, records: &[Record]) -> Self {
        let mut per_tick = vec![Vec::new(); horizon as usize];
        for (pos, r) in records.iter().enumerate() {
            per_tick[r.tick as usize].push((r.a, r.b, pos as u32));
        }
        Self {
            num_objects,
            per_tick,
        }
    }

    /// Earliest hold tick of every object when `source` holds the item
    /// from `t1`, over ticks `t1..=t2`, counting only records whose feed
    /// position is below `prefix`. `None` marks objects never reached.
    pub fn holders(&self, source: u32, t1: u32, t2: u32, prefix: usize) -> Vec<Option<u32>> {
        let n = self.num_objects;
        let mut held: Vec<Option<u32>> = vec![None; n];
        held[source as usize] = Some(t1);
        let mut parent: Vec<u32> = (0..n as u32).collect();
        // `hot[root] == t + 1` marks a component holding the item at `t`.
        let mut hot: Vec<u32> = vec![0; n];
        let mut touched: Vec<u32> = Vec::new();
        let last = t2.min(self.per_tick.len() as u32 - 1);
        for t in t1..=last {
            for &(a, b, pos) in &self.per_tick[t as usize] {
                if pos as usize >= prefix {
                    continue;
                }
                touched.push(a);
                touched.push(b);
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra.max(rb) as usize] = ra.min(rb);
                }
            }
            // A component holds the item at `t` if any member held it
            // before; then every member holds it from `t`.
            for &o in &touched {
                if held[o as usize].is_some() {
                    let root = find(&mut parent, o);
                    hot[root as usize] = t + 1;
                }
            }
            for &o in &touched {
                let root = find(&mut parent, o);
                if held[o as usize].is_none() && hot[root as usize] == t + 1 {
                    held[o as usize] = Some(t);
                }
            }
            for &o in &touched {
                parent[o as usize] = o;
            }
            touched.clear();
        }
        held
    }

    /// Earliest tick at which `dest` holds the item (see
    /// [`Sweep::holders`]).
    pub fn arrival(&self, source: u32, dest: u32, t1: u32, t2: u32, prefix: usize) -> Option<u32> {
        self.holders(source, t1, t2, prefix)[dest as usize]
    }
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Expands maximal contacts `(a, b, start, end)` into one record per tick,
/// in contact order.
pub fn per_tick_records(contacts: &[reach_core::Contact]) -> Vec<Record> {
    let mut out = Vec::new();
    for c in contacts {
        for t in c.interval.start..=c.interval.end {
            out.push(Record {
                a: c.a.0,
                b: c.b.0,
                tick: t,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(a: u32, b: u32, tick: u32) -> Record {
        Record { a, b, tick }
    }

    /// The Figure-1 network of QUERIES.md / DATAFORMATS.md: 0 and 1 meet
    /// at tick 0, {1, 2, 3} form one component at tick 1, 2-3 stay in
    /// contact through tick 2, and 0-1 meet again over ticks 2-3.
    fn figure_1() -> Sweep {
        let records = [
            rec(0, 1, 0),
            rec(1, 3, 1),
            rec(2, 3, 1),
            rec(2, 3, 2),
            rec(0, 1, 2),
            rec(0, 1, 3),
        ];
        Sweep::new(4, 4, &records)
    }

    #[test]
    fn figure_1_answers_match_the_worked_example() {
        let s = figure_1();
        let all = usize::MAX;
        // o4 reachable from o1 during [0,1], arriving at tick 1.
        assert_eq!(s.arrival(0, 3, 0, 1, all), Some(1));
        assert_eq!(s.arrival(0, 1, 0, 1, all), Some(0));
        assert_eq!(s.arrival(0, 2, 0, 1, all), Some(1));
        // Chronology: nothing flows back from 3 to 0 inside [0, 1].
        assert_eq!(s.arrival(3, 0, 0, 1, all), None);
        // Over [1, 3]: 3 → 1 at tick 1, 1 → 0 at tick 2.
        assert_eq!(s.arrival(3, 0, 1, 3, all), Some(2));
        // The source holds from t1 even with no contact at t1.
        assert_eq!(s.arrival(2, 2, 3, 3, all), Some(3));
    }

    #[test]
    fn prefixes_hide_records_not_yet_appended() {
        let s = figure_1();
        // Only the first record (0-1 at tick 0) has arrived.
        assert_eq!(s.arrival(0, 3, 0, 3, 1), None);
        assert_eq!(s.arrival(0, 1, 0, 3, 1), Some(0));
        // Records 0..3 carry 0 → 1 → {2, 3}.
        assert_eq!(s.arrival(0, 3, 0, 3, 3), Some(1));
    }

    /// A hand-made chain that needs same-tick transitivity and waiting.
    #[test]
    fn hand_made_chain_respects_time_order() {
        // 0-1 at 5; 1-2 and 2-3 at 7 (same tick: 1 passes to 3 through 2);
        // 3-4 at 4 (too early to help); 4-5 at 9 (4 never holds).
        let records = [
            rec(3, 4, 4),
            rec(0, 1, 5),
            rec(1, 2, 7),
            rec(2, 3, 7),
            rec(4, 5, 9),
        ];
        let s = Sweep::new(6, 10, &records);
        let h = s.holders(0, 2, 9, usize::MAX);
        assert_eq!(h, vec![Some(2), Some(5), Some(7), Some(7), None, None]);
        // A window that closes before tick 7 stops at object 1.
        let h = s.holders(0, 0, 6, usize::MAX);
        assert_eq!(h, vec![Some(0), Some(5), None, None, None, None]);
        // A window opening after the 0-1 meeting isolates the source.
        assert_eq!(s.arrival(0, 1, 6, 9, usize::MAX), None);
    }

    #[test]
    fn per_tick_records_expand_inclusive_intervals() {
        use reach_core::{Contact, ObjectId, TimeInterval};
        let c = Contact::new(ObjectId(1), ObjectId(4), TimeInterval::new(3, 5));
        assert_eq!(
            per_tick_records(&[c]),
            vec![rec(1, 4, 3), rec(1, 4, 4), rec(1, 4, 5)]
        );
    }
}
