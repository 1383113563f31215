//! Flat per-node storage behind [`DynamicGraph`](crate::DynamicGraph).
//!
//! Every slab cell is one fixed-width record of `stride` `u32` words inside a
//! single flat arena:
//!
//! ```text
//! | id lo | id hi | member pos | lengths | out-slots (out_cap) | in-refs (in_cap) |
//! ```
//!
//! The stride is fixed by the out-degree of the first node a graph receives
//! (the `d` every churn model passes to `add_node_indexed`): `out_cap = d`
//! (at most [`MAX_INLINE_OUT`]) and room for at least `d + IN_SLACK`
//! in-references — the mean in-degree is at most `d` in every model — with
//! the record rounded up to 32 bytes. At `d = 8` a record is 128 bytes with
//! 20 inline in-references; at `n = 2^16` in-degree exceeds that for 0.6% of
//! SDGR and 1.8% of PDGR nodes. At `d = 20` it is 224 bytes with 32,
//! exceeded by 0.03% of SDG and 0.17% of PDG nodes (13–19% under
//! regeneration, which the scenarios run at that degree only at small `n`).
//! A churn step loads every record it will mutate up front, one independent
//! load per cache line ([`touch`]), so the misses overlap.
//!
//! A list longer than its inline capacity — an in-degree past the record's
//! room, or out-degrees above the first node's (`push_out_slot`, the
//! Erdős–Rényi generator, overlays) — keeps its first `cap` entries inline
//! and the rest in a side store. The lengths word then names the store's
//! entry instead of holding the lengths. An entry is released as soon as
//! both lists fit inline again; its in-reference buffer (created with room
//! for another `in_cap` entries) is kept for the next spill unless the spare
//! buffers already outnumber the attached entries by [`SPARE_SLACK`], so
//! steady-state churn allocates nothing and a transient burst (the first `n`
//! rounds of a streaming model give early nodes huge in-degrees) does not
//! pin memory.
//!
//! [`touch`]: NodeArena::touch

use crate::NodeId;

/// Sentinel for an unconnected out-slot (the dense-index equivalent of
/// `None`); slab indices never reach `u32::MAX`.
pub(crate) const NO_TARGET: u32 = u32::MAX;

const ID_LO: usize = 0;
const ID_HI: usize = 1;
const MEMBER: usize = 2;
const LENS: usize = 3;
const HEADER: usize = 4;
/// Member-position word of a vacant cell.
const VACANT: u32 = u32::MAX;
/// Lengths-word flag: the lists overflowed; the low bits index the side store.
const SPILLED: u32 = 1 << 31;
/// Words per 64-byte cache line.
const LINE_WORDS: usize = 16;
/// Record sizes are multiples of this many words (32 bytes).
const ROUND_WORDS: usize = 8;
/// Inline in-reference room beyond the out-degree.
const IN_SLACK: usize = 12;
/// Upper bound on the inline out-slot capacity, so a first node with a huge
/// out-degree (a star or complete-graph generator) cannot blow up the stride.
const MAX_INLINE_OUT: usize = 32;
/// Spare in-reference buffers kept beyond the number of attached entries,
/// so the side store's ordinary ups and downs never reach the allocator.
const SPARE_SLACK: usize = 64;

/// Overflow of one cell: the full lengths plus the entries past the inline
/// capacities, in logical order.
#[derive(Debug, Clone)]
struct Spill {
    /// The cell this entry belongs to (re-pointed when entries move).
    cell: u32,
    out_len: u32,
    in_len: u32,
    out: Vec<u32>,
    ins: Vec<u32>,
}

/// The adjacency lists of one cell as inline and overflow slices (all empty
/// for a vacant or out-of-range cell).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lists<'a> {
    out: &'a [u32],
    out_spill: &'a [u32],
    ins: &'a [u32],
    in_spill: &'a [u32],
}

impl<'a> Lists<'a> {
    const EMPTY: Lists<'static> = Lists {
        out: &[],
        out_spill: &[],
        ins: &[],
        in_spill: &[],
    };

    /// Out-slot targets in slot order ([`NO_TARGET`] for unconnected slots).
    #[inline]
    pub(crate) fn outs(self) -> impl Iterator<Item = u32> + 'a {
        self.out.iter().chain(self.out_spill).copied()
    }

    /// Connected out-slot targets in slot order.
    #[inline]
    pub(crate) fn targets(self) -> impl Iterator<Item = u32> + 'a {
        self.outs().filter(|&t| t != NO_TARGET)
    }

    /// In-reference owners in multiset order.
    #[inline]
    pub(crate) fn ins(self) -> impl Iterator<Item = u32> + 'a {
        self.ins.iter().chain(self.in_spill).copied()
    }

    pub(crate) fn out_len(self) -> usize {
        self.out.len() + self.out_spill.len()
    }

    pub(crate) fn in_len(self) -> usize {
        self.ins.len() + self.in_spill.len()
    }

    /// Connected out-slots plus in-references, with multiplicity.
    pub(crate) fn incident_links(self) -> usize {
        self.targets().count() + self.in_len()
    }
}

/// The flat record arena of a [`DynamicGraph`](crate::DynamicGraph).
#[derive(Debug, Clone)]
pub(crate) struct NodeArena {
    words: Vec<u32>,
    cells: usize,
    /// Record width in words; 0 until the first cell fixes the layout.
    stride: usize,
    out_cap: usize,
    in_cap: usize,
    /// Cells to reserve once the first insertion fixes the stride.
    reserve_cells: usize,
    /// The side store: exactly the entries attached to spilled cells.
    spills: Vec<Spill>,
    /// Cleared in-reference buffers of released entries, kept (with their
    /// capacity) for the next spill; at most [`SPARE_SLACK`] more than there
    /// are entries, so the memory of a transient overflow burst goes back to
    /// the allocator.
    spare: Vec<Vec<u32>>,
}

impl NodeArena {
    pub(crate) fn with_capacity(cells: usize) -> Self {
        NodeArena {
            words: Vec::new(),
            cells: 0,
            stride: 0,
            out_cap: 0,
            in_cap: 0,
            reserve_cells: cells,
            spills: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Number of cells (occupied or vacant).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.cells
    }

    /// Number of cells the current allocation holds without growing.
    pub(crate) fn cell_capacity(&self) -> usize {
        self.words.capacity() / self.stride.max(1)
    }

    #[inline]
    fn at(&self, idx: u32) -> usize {
        idx as usize * self.stride
    }

    /// Appends a vacant cell sized for nodes of `out_degree` and returns its
    /// index. The first call fixes the record layout.
    pub(crate) fn push_vacant(&mut self, out_degree: usize) -> u32 {
        if self.stride == 0 {
            self.out_cap = out_degree.min(MAX_INLINE_OUT);
            self.stride = (HEADER + 2 * self.out_cap + IN_SLACK).next_multiple_of(ROUND_WORDS);
            self.in_cap = self.stride - HEADER - self.out_cap;
            let cells = std::mem::take(&mut self.reserve_cells);
            self.words.reserve_exact(cells * self.stride);
        }
        let idx = self.cells as u32;
        self.words.resize(self.words.len() + self.stride, 0);
        self.cells += 1;
        let b = self.at(idx);
        self.words[b + MEMBER] = VACANT;
        idx
    }

    #[inline]
    pub(crate) fn occupied(&self, idx: u32) -> bool {
        (idx as usize) < self.cells && self.words[self.at(idx) + MEMBER] != VACANT
    }

    /// Fills the vacant cell `idx` (whose lengths word is packed zeros) with
    /// a node owning `out_degree` unconnected out-slots and no in-references.
    pub(crate) fn occupy(&mut self, idx: u32, id: NodeId, member_pos: u32, out_degree: usize) {
        let b = self.at(idx);
        let raw = id.raw();
        self.words[b + ID_LO] = raw as u32;
        self.words[b + ID_HI] = (raw >> 32) as u32;
        self.words[b + MEMBER] = member_pos;
        let inline = out_degree.min(self.out_cap);
        self.words[b + HEADER..b + HEADER + inline].fill(NO_TARGET);
        if out_degree > self.out_cap {
            let h = self.ensure_spill(b);
            self.spills[h]
                .out
                .resize(out_degree - self.out_cap, NO_TARGET);
        }
        self.set_lens(b, out_degree, 0);
    }

    /// Vacates the occupied cell `idx`, recycling its overflow entry.
    pub(crate) fn vacate(&mut self, idx: u32) {
        let b = self.at(idx);
        let lens = self.words[b + LENS];
        if lens & SPILLED != 0 {
            self.release_spill(lens & !SPILLED);
        }
        self.words[b + LENS] = pack(0, 0);
        self.words[b + MEMBER] = VACANT;
    }

    /// The identifier of the occupied cell `idx`.
    #[inline]
    pub(crate) fn id(&self, idx: u32) -> NodeId {
        let b = self.at(idx);
        NodeId::new(u64::from(self.words[b + ID_LO]) | (u64::from(self.words[b + ID_HI]) << 32))
    }

    #[inline]
    pub(crate) fn id_at(&self, idx: u32) -> Option<NodeId> {
        self.occupied(idx).then(|| self.id(idx))
    }

    #[inline]
    pub(crate) fn member_pos(&self, idx: u32) -> u32 {
        self.words[self.at(idx) + MEMBER]
    }

    #[inline]
    pub(crate) fn set_member_pos(&mut self, idx: u32, pos: u32) {
        let b = self.at(idx);
        self.words[b + MEMBER] = pos;
    }

    #[inline]
    fn lens_at(&self, b: usize) -> (usize, usize) {
        let w = self.words[b + LENS];
        if w & SPILLED == 0 {
            ((w & 0xFFFF) as usize, (w >> 16) as usize)
        } else {
            let s = &self.spills[(w & !SPILLED) as usize];
            (s.out_len as usize, s.in_len as usize)
        }
    }

    /// The adjacency of cell `idx`; empty for vacant or out-of-range cells.
    #[inline]
    pub(crate) fn lists(&self, idx: u32) -> Lists<'_> {
        if !self.occupied(idx) {
            return Lists::EMPTY;
        }
        let b = self.at(idx);
        let w = self.words[b + LENS];
        let out = b + HEADER;
        let ins = out + self.out_cap;
        if w & SPILLED == 0 {
            let (out_len, in_len) = ((w & 0xFFFF) as usize, (w >> 16) as usize);
            Lists {
                out: &self.words[out..out + out_len],
                out_spill: &[],
                ins: &self.words[ins..ins + in_len],
                in_spill: &[],
            }
        } else {
            let s = &self.spills[(w & !SPILLED) as usize];
            Lists {
                out: &self.words[out..out + (s.out_len as usize).min(self.out_cap)],
                out_spill: &s.out,
                ins: &self.words[ins..ins + (s.in_len as usize).min(self.in_cap)],
                in_spill: &s.ins,
            }
        }
    }

    /// Records new lengths for the cell at word offset `b`, moving between
    /// the packed and the spilled representation as needed. Any entries past
    /// the inline capacities must already sit in the side store.
    fn set_lens(&mut self, b: usize, out_len: usize, in_len: usize) {
        let w = self.words[b + LENS];
        if out_len <= self.out_cap && in_len <= self.in_cap {
            if w & SPILLED != 0 {
                self.release_spill(w & !SPILLED);
            }
            self.words[b + LENS] = pack(out_len, in_len);
        } else {
            let h = self.ensure_spill(b);
            let s = &mut self.spills[h];
            s.out_len = out_len as u32;
            s.in_len = in_len as u32;
        }
    }

    /// The side-store entry of the cell at word offset `b`, attaching one
    /// (carrying the packed lengths over) if it has none.
    fn ensure_spill(&mut self, b: usize) -> usize {
        let w = self.words[b + LENS];
        if w & SPILLED != 0 {
            return (w & !SPILLED) as usize;
        }
        let h = self.spills.len();
        let ins = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.in_cap));
        self.spills.push(Spill {
            cell: (b / self.stride) as u32,
            out_len: w & 0xFFFF,
            in_len: w >> 16,
            out: Vec::new(),
            ins,
        });
        self.words[b + LENS] = SPILLED | h as u32;
        h
    }

    /// Detaches entry `h` (its cell must be re-packed by the caller); the
    /// last entry moves into its place.
    fn release_spill(&mut self, h: u32) {
        let mut spill = self.spills.swap_remove(h as usize);
        if let Some(moved) = self.spills.get(h as usize) {
            let b = self.at(moved.cell);
            self.words[b + LENS] = SPILLED | h;
        }
        let keep = self.spills.len() + SPARE_SLACK;
        if self.spare.len() < keep {
            spill.ins.clear();
            self.spare.push(spill.ins);
        }
        self.spare.truncate(keep);
        if self.spills.capacity() > 4 * keep {
            self.spills.shrink_to(2 * keep);
            self.spare.shrink_to(2 * keep);
        }
    }

    #[inline]
    fn spill_mut(&mut self, b: usize) -> &mut Spill {
        let h = self.words[b + LENS] & !SPILLED;
        &mut self.spills[h as usize]
    }

    /// Out-slot `slot` of the occupied cell `idx` (`slot` < its out-degree).
    #[inline]
    pub(crate) fn out_get(&self, idx: u32, slot: usize) -> u32 {
        let b = self.at(idx);
        if slot < self.out_cap {
            self.words[b + HEADER + slot]
        } else {
            let h = self.words[b + LENS] & !SPILLED;
            self.spills[h as usize].out[slot - self.out_cap]
        }
    }

    #[inline]
    pub(crate) fn out_set(&mut self, idx: u32, slot: usize, target: u32) {
        let b = self.at(idx);
        if slot < self.out_cap {
            self.words[b + HEADER + slot] = target;
        } else {
            let cap = self.out_cap;
            self.spill_mut(b).out[slot - cap] = target;
        }
    }

    /// Appends an unconnected out-slot to the occupied cell `idx` and
    /// returns its slot index.
    pub(crate) fn out_push(&mut self, idx: u32) -> usize {
        let b = self.at(idx);
        let (out_len, in_len) = self.lens_at(b);
        if out_len < self.out_cap {
            self.words[b + HEADER + out_len] = NO_TARGET;
        } else {
            let h = self.ensure_spill(b);
            self.spills[h].out.push(NO_TARGET);
        }
        self.set_lens(b, out_len + 1, in_len);
        out_len
    }

    /// The first out-slot of `idx` pointing at `target`.
    pub(crate) fn out_position(&self, idx: u32, target: u32) -> Option<usize> {
        self.lists(idx).outs().position(|t| t == target)
    }

    /// Appends `owner` to the in-reference multiset of the occupied cell `idx`.
    #[inline]
    pub(crate) fn in_push(&mut self, idx: u32, owner: u32) {
        let b = self.at(idx);
        let (out_len, in_len) = self.lens_at(b);
        if in_len < self.in_cap {
            self.words[b + HEADER + self.out_cap + in_len] = owner;
        } else {
            let h = self.ensure_spill(b);
            self.spills[h].ins.push(owner);
        }
        self.set_lens(b, out_len, in_len + 1);
    }

    /// Swap-removes the first in-reference of `idx` equal to `owner` (the
    /// last entry takes its position); a no-op when there is none.
    #[inline]
    pub(crate) fn in_remove(&mut self, idx: u32, owner: u32) {
        let Some(pos) = self.lists(idx).ins().position(|o| o == owner) else {
            return;
        };
        let b = self.at(idx);
        let (out_len, in_len) = self.lens_at(b);
        let last = in_len - 1;
        let start = b + HEADER + self.out_cap;
        let cap = self.in_cap;
        let moved = if last < cap {
            self.words[start + last]
        } else {
            self.spill_mut(b).ins.pop().expect("spilled length")
        };
        if pos < cap {
            self.words[start + pos] = moved;
        } else if pos < last {
            self.spill_mut(b).ins[pos - cap] = moved;
        }
        self.set_lens(b, out_len, last);
    }

    /// Removes and returns the first in-reference of `idx`, shifting the rest
    /// down (order-preserving).
    pub(crate) fn in_pop_front(&mut self, idx: u32) -> Option<u32> {
        let b = self.at(idx);
        let (out_len, in_len) = self.lens_at(b);
        if in_len == 0 {
            return None;
        }
        let start = b + HEADER + self.out_cap;
        let front = self.words[start];
        let cap = self.in_cap;
        self.words
            .copy_within(start + 1..start + in_len.min(cap), start);
        if in_len > cap {
            let next = self.spill_mut(b).ins.remove(0);
            self.words[start + cap - 1] = next;
        }
        self.set_lens(b, out_len, in_len - 1);
        Some(front)
    }

    /// Issues one plain load per cache line of every in-range record named in
    /// `indices`, with no dependency between them, so their misses overlap
    /// instead of serialising behind the mutations that follow. Out-of-range
    /// entries (sentinels) are skipped.
    #[inline]
    pub(crate) fn touch(&self, indices: impl IntoIterator<Item = u32>) {
        let mut acc = 0u32;
        for idx in indices {
            if (idx as usize) < self.cells {
                let b = self.at(idx);
                for line in (0..self.stride).step_by(LINE_WORDS) {
                    acc ^= self.words[b + line];
                }
            }
        }
        std::hint::black_box(acc);
    }
}

#[inline]
fn pack(out_len: usize, in_len: usize) -> u32 {
    (out_len | (in_len << 16)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random list operations on a narrow arena (`d = 0`: no inline
    /// out-slots, 12 inline in-references) against plain vectors, so every
    /// branch across the inline/overflow boundary — pushes, swap-removes at
    /// inline, overflow and last positions, front pops, entry release and
    /// reuse, cell recycling — is compared element by element.
    #[test]
    fn lists_match_plain_vectors_across_the_overflow_boundary() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut arena = NodeArena::with_capacity(0);
        let cells = 6u32;
        let mut model: Vec<Option<(Vec<u32>, Vec<u32>)>> = Vec::new();
        for idx in 0..cells {
            assert_eq!(arena.push_vacant(0), idx);
            arena.occupy(idx, NodeId::new(u64::from(idx)), idx, 0);
            model.push(Some((Vec::new(), Vec::new())));
        }
        assert_eq!((arena.out_cap, arena.in_cap), (0, 12));
        for step in 0..50_000u64 {
            let idx = rng.gen_range(0..cells);
            let Some((outs, ins)) = model[idx as usize].as_mut() else {
                let out_degree = rng.gen_range(0..3);
                arena.occupy(idx, NodeId::new(u64::from(cells) + step), idx, out_degree);
                model[idx as usize] = Some((vec![NO_TARGET; out_degree], Vec::new()));
                continue;
            };
            // Owners are drawn from a small range so duplicates are common;
            // pushes slightly outweigh removals, so lists wander across the
            // inline capacity and back.
            let value = rng.gen_range(0..8);
            match rng.gen_range(0..64) {
                0..=23 => {
                    arena.in_push(idx, value);
                    ins.push(value);
                }
                24..=39 => {
                    arena.in_remove(idx, value);
                    if let Some(pos) = ins.iter().position(|&o| o == value) {
                        ins.swap_remove(pos);
                    }
                }
                40..=45 => {
                    let front = (!ins.is_empty()).then(|| ins.remove(0));
                    assert_eq!(arena.in_pop_front(idx), front, "step {step}");
                }
                46..=50 => {
                    assert_eq!(arena.out_push(idx), outs.len());
                    outs.push(NO_TARGET);
                }
                51..=62 if !outs.is_empty() => {
                    let slot = rng.gen_range(0..outs.len());
                    assert_eq!(arena.out_get(idx, slot), outs[slot]);
                    arena.out_set(idx, slot, value);
                    outs[slot] = value;
                }
                63 => {
                    arena.vacate(idx);
                    model[idx as usize] = None;
                    assert!(!arena.occupied(idx));
                    continue;
                }
                _ => {}
            }
            let lists = arena.lists(idx);
            assert_eq!(lists.outs().collect::<Vec<_>>(), *outs, "step {step}");
            assert_eq!(lists.ins().collect::<Vec<_>>(), *ins, "step {step}");
            // Only overflowing cells hold side-store entries.
            let spilled = model
                .iter()
                .flatten()
                .filter(|(o, i)| o.len() > arena.out_cap || i.len() > arena.in_cap)
                .count();
            assert_eq!(arena.spills.len(), spilled, "step {step}");
        }
    }
}
