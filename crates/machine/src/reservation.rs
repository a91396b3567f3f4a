//! Cycle-by-cycle functional-unit booking for list scheduling.

use crate::{MachineDesc, OpClass};

/// Tracks, per machine cycle, how many instances of each unit kind are in
/// use and how many instructions have issued, so the scheduler can ask
/// "can an instruction of class `c` issue at cycle `t`?".
///
/// Units are booked for the issue cycle only (fully pipelined units);
/// latency is modelled on dependence edges, not unit occupancy, matching
/// the machines the paper considers.
///
/// Bookings live in one flat array with a row of counters per *booked*
/// cycle, ascending, so nothing hashes, a clone is one allocation, and the
/// table's size follows the number of issues rather than the cycle numbers
/// (a machine spec's latency may be any `u32`). The schedulers book in
/// non-decreasing cycle order, so a probe lands on the last row or beyond
/// it — a probe beyond the booked horizon is free — and only out-of-order
/// probes binary-search. Every method takes the machine the table was
/// created for, and reads unit capacities from it.
#[derive(Debug)]
pub struct ReservationTable {
    issue_width: usize,
    /// Counters per row: the cycle, instructions issued, then used
    /// instances of each unit.
    stride: usize,
    rows: Vec<u32>,
}

impl Clone for ReservationTable {
    fn clone(&self) -> Self {
        ReservationTable {
            issue_width: self.issue_width,
            stride: self.stride,
            rows: self.rows.clone(),
        }
    }

    /// Reuses `self`'s buffer, so resetting a table to a fresh one of the
    /// same machine performs no allocation.
    fn clone_from(&mut self, source: &Self) {
        self.issue_width = source.issue_width;
        self.stride = source.stride;
        self.rows.clone_from(&source.rows);
    }
}

impl ReservationTable {
    /// Creates an empty table for `machine`.
    pub fn new(machine: &MachineDesc) -> ReservationTable {
        ReservationTable {
            issue_width: machine.issue_width(),
            stride: 2 + machine.units().len(),
            rows: Vec::new(),
        }
    }

    fn booked(&self) -> usize {
        self.rows.len() / self.stride
    }

    fn cycle_of(&self, row: usize) -> u32 {
        self.rows[row * self.stride]
    }

    /// The row of `cycle`, or where its row would go.
    fn find(&self, cycle: u32) -> Result<usize, usize> {
        let booked = self.booked();
        if booked == 0 || cycle > self.cycle_of(booked - 1) {
            return Err(booked);
        }
        if cycle == self.cycle_of(booked - 1) {
            return Ok(booked - 1);
        }
        let (mut lo, mut hi) = (0, booked - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.cycle_of(mid).cmp(&cycle) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Ok(mid),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// Whether an instruction of `class` (routed by `machine`) can issue at
    /// `cycle` given current bookings.
    pub fn can_issue(&self, machine: &MachineDesc, class: OpClass, cycle: u32) -> bool {
        let row = match self.find(cycle) {
            Ok(row) => &self.rows[row * self.stride..(row + 1) * self.stride],
            Err(_) => &[] as &[u32],
        };
        let used = |slot: usize| row.get(slot).map_or(0, |&c| c as usize);
        if used(1) >= self.issue_width {
            return false;
        }
        if class == OpClass::Nop {
            return true;
        }
        let unit = machine.route(class).unit;
        used(2 + unit) < machine.units()[unit].count
    }

    /// Books an instruction of `class` at `cycle`.
    ///
    /// # Panics
    /// Panics if [`can_issue`](Self::can_issue) would return false — the
    /// scheduler must check first.
    pub fn issue(&mut self, machine: &MachineDesc, class: OpClass, cycle: u32) {
        assert!(
            self.can_issue(machine, class, cycle),
            "cannot issue {class} at cycle {cycle}"
        );
        let at = match self.find(cycle) {
            Ok(row) => row * self.stride,
            Err(row) => {
                let at = row * self.stride;
                let fresh = std::iter::once(cycle).chain(std::iter::repeat_n(0, self.stride - 1));
                if at == self.rows.len() {
                    self.rows.extend(fresh);
                } else {
                    self.rows.splice(at..at, fresh);
                }
                at
            }
        };
        self.rows[at + 1] += 1;
        if class != OpClass::Nop {
            self.rows[at + 2 + machine.route(class).unit] += 1;
        }
    }

    /// The first cycle `>= from` at which `class` can issue.
    pub fn next_free_cycle(&self, machine: &MachineDesc, class: OpClass, from: u32) -> u32 {
        let mut c = from;
        // Every cycle at or beyond the booked horizon is free, so this
        // terminates quickly.
        while !self.can_issue(machine, class, c) {
            c += 1;
        }
        c
    }

    /// Number of instructions issued at `cycle`.
    pub fn issued_at(&self, cycle: u32) -> usize {
        match self.find(cycle) {
            Ok(row) => self.rows[row * self.stride + 1] as usize,
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn books_single_units() {
        let m = presets::paper_machine(16);
        let mut rt = m.reservation_table();
        assert!(rt.can_issue(&m, OpClass::MemLoad, 0));
        rt.issue(&m, OpClass::MemLoad, 0);
        // Fetch unit taken; another load must wait.
        assert!(!rt.can_issue(&m, OpClass::MemLoad, 0));
        assert_eq!(rt.next_free_cycle(&m, OpClass::MemLoad, 0), 1);
        // Fixed-point op still fine this cycle.
        assert!(rt.can_issue(&m, OpClass::IntAlu, 0));
        rt.issue(&m, OpClass::IntAlu, 0);
        assert_eq!(rt.issued_at(0), 2);
    }

    #[test]
    fn issue_width_caps_total() {
        let m = presets::wide(2, 8);
        let mut rt = m.reservation_table();
        rt.issue(&m, OpClass::IntAlu, 3);
        rt.issue(&m, OpClass::MemLoad, 3);
        assert!(!rt.can_issue(&m, OpClass::IntAlu, 3), "issue width 2");
        assert!(rt.can_issue(&m, OpClass::IntAlu, 4));
    }

    #[test]
    fn nop_needs_no_unit_but_counts_against_width() {
        let m = presets::single_issue(8);
        let mut rt = m.reservation_table();
        rt.issue(&m, OpClass::Nop, 0);
        assert!(!rt.can_issue(&m, OpClass::IntAlu, 0));
    }

    #[test]
    #[should_panic(expected = "cannot issue")]
    fn double_booking_panics() {
        let m = presets::single_issue(8);
        let mut rt = m.reservation_table();
        rt.issue(&m, OpClass::IntAlu, 0);
        rt.issue(&m, OpClass::IntAlu, 0);
    }
}
