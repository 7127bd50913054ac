//! Island types: member lists and the local adjacency bitmap.

use serde::{Deserialize, Serialize};

use igcn_graph::{CsrGraph, NodeId};

/// One discovered island: a group of nodes with strong internal
/// connections whose only external connections are to hubs.
///
/// Members are stored in BFS discovery order (the order `v_local` filled
/// up in Algorithm 4); connected hubs in first-contact order. The
/// [`IslandBitmap`] orders columns hubs-first, exactly like the Figure 7
/// walk-through.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Island {
    /// Island member node IDs (BFS order).
    pub nodes: Vec<u32>,
    /// Hubs this island connects to (first-contact order, deduplicated).
    pub hubs: Vec<u32>,
    /// The locator round (0-based) in which the island was found.
    pub round: u32,
    /// The TP-BFS engine that found it (for utilization accounting).
    pub engine: u32,
}

impl Island {
    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the island has no members (never produced by the locator;
    /// exists for container-convention completeness).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Builds the island-local adjacency bitmap from the graph, without
    /// diagonal entries.
    ///
    /// Rows and columns are ordered `[hubs..., nodes...]`. The bitmap holds
    /// island↔island and island↔hub adjacency in both orientations but
    /// *no* hub↔hub entries (those are covered by inter-hub tasks).
    pub fn bitmap(&self, graph: &CsrGraph) -> IslandBitmap {
        IslandBitmap::build(graph, &self.hubs, &self.nodes, false)
    }

    /// Builds the bitmap with the `Ã = A + I` diagonal set on island-node
    /// rows — the layout the Island Consumer scans, so self-contributions
    /// ride the same pre-aggregated windows as neighbor contributions.
    /// Hub rows carry no diagonal (a hub appears in many islands; its
    /// self-contribution is added exactly once when its partial-result row
    /// is initialised).
    pub fn bitmap_with_self(&self, graph: &CsrGraph) -> IslandBitmap {
        IslandBitmap::build(graph, &self.hubs, &self.nodes, true)
    }
}

/// The dense local adjacency of one island task — the structure the
/// Island Consumer's `1×k` scan window walks (Figure 7).
///
/// # Example
///
/// ```
/// use igcn_core::IslandBitmap;
/// use igcn_graph::CsrGraph;
///
/// // Hub 0 connected to island {1, 2}; 1-2 connected internally.
/// let g = CsrGraph::from_undirected_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
/// let bm = IslandBitmap::build(&g, &[0], &[1, 2], false);
/// assert_eq!(bm.dim(), 3);
/// assert!(bm.get(0, 1)); // hub row ↔ island col
/// assert!(!bm.get(0, 0)); // no diagonal
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IslandBitmap {
    dim: usize,
    num_hubs: usize,
    words_per_row: usize,
    bits: Vec<u64>,
    /// Global node IDs in bitmap order: `[hubs..., nodes...]`.
    members: Vec<u32>,
}

impl IslandBitmap {
    /// Builds the bitmap for `hubs` + `nodes` from graph adjacency;
    /// `include_diagonal` sets the `Ã = A + I` self bits on island-node
    /// rows (hub rows never carry a diagonal).
    ///
    /// # Panics
    ///
    /// Panics if a member ID is out of range for the graph.
    pub fn build(graph: &CsrGraph, hubs: &[u32], nodes: &[u32], include_diagonal: bool) -> Self {
        let num_hubs = hubs.len();
        let dim = num_hubs + nodes.len();
        let words_per_row = dim.div_ceil(64);
        let mut bits = vec![0u64; dim * words_per_row];
        let members: Vec<u32> = hubs.iter().chain(nodes.iter()).copied().collect();

        // Local index lookup. Islands are small (≤ c_max + a few hubs), so
        // a sorted probe vector beats a HashMap here.
        let mut index: Vec<(u32, usize)> =
            members.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        index.sort_unstable_by_key(|&(v, _)| v);
        let local_of = |v: u32| -> Option<usize> {
            index.binary_search_by_key(&v, |&(x, _)| x).ok().map(|pos| index[pos].1)
        };

        // Walk island-node adjacency only: island↔island entries are seen
        // from both endpoints; island↔hub entries are mirrored manually.
        // This mirrors the hardware, which fills the bitmap from the
        // adjacency lists streamed during TP-BFS (island rows only).
        for (local_row, &v) in nodes.iter().enumerate() {
            let row = num_hubs + local_row;
            if include_diagonal {
                set_bit(&mut bits, words_per_row, row, row);
            }
            for &nb in graph.neighbors(NodeId::new(v)) {
                if nb == v {
                    continue; // defensive: self-loops are excluded
                }
                if let Some(col) = local_of(nb) {
                    set_bit(&mut bits, words_per_row, row, col);
                    if col < num_hubs {
                        // Mirror the hub row (hub adjacency is never read).
                        set_bit(&mut bits, words_per_row, col, row);
                    }
                }
            }
        }
        IslandBitmap { dim, num_hubs, words_per_row, bits, members }
    }

    /// Reassembles a bitmap from externally stored parts (the
    /// deserialisation path of the snapshot store).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (member count vs
    /// hub count, bit-array length vs the row stride).
    pub fn from_raw_parts(
        num_hubs: usize,
        members: Vec<u32>,
        bits: Vec<u64>,
    ) -> Result<Self, String> {
        let dim = members.len();
        if num_hubs > dim {
            return Err(format!("bitmap claims {num_hubs} hubs but only {dim} members"));
        }
        let words_per_row = dim.div_ceil(64);
        if bits.len() != dim * words_per_row {
            return Err(format!(
                "bitmap bit array has {} words, expected {} ({dim} rows × {words_per_row})",
                bits.len(),
                dim * words_per_row
            ));
        }
        Ok(IslandBitmap { dim, num_hubs, words_per_row, bits, members })
    }

    /// Side length of the (square) bitmap: hubs + island nodes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `u64` words per bitmap row (`ceil(dim / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The raw packed bit rows (`dim × words_per_row` words, row-major)
    /// — the serialisation twin of [`IslandBitmap::from_raw_parts`].
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Number of leading rows/columns that are hubs.
    pub fn num_hubs(&self) -> usize {
        self.num_hubs
    }

    /// Number of island-node rows/columns.
    pub fn num_nodes(&self) -> usize {
        self.dim - self.num_hubs
    }

    /// Global node ID of local index `i` (hubs first).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()`.
    pub fn member(&self, i: usize) -> u32 {
        self.members[i]
    }

    /// All members in bitmap order (`[hubs..., nodes...]`).
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Whether local `(row, col)` is connected.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.dim && col < self.dim, "bitmap index out of range");
        let w = self.bits[row * self.words_per_row + col / 64];
        (w >> (col % 64)) & 1 == 1
    }

    /// Total set bits (directed adjacency entries covered by this task).
    pub fn nnz(&self) -> u64 {
        self.bits.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Set bits in row `row` within the half-open column window
    /// `[start, start + width)` (clamped to `dim`), returned as a packed
    /// little-endian mask — exactly what the `1×k` scan window sees.
    ///
    /// # Panics
    ///
    /// Panics if `row >= dim()` or `width > 64`.
    pub fn window(&self, row: usize, start: usize, width: usize) -> u64 {
        assert!(row < self.dim, "row out of range");
        assert!(width <= 64, "window wider than 64 is not supported");
        let end = (start + width).min(self.dim);
        if start >= end {
            return 0;
        }
        // One shift of the row word holding `start`, plus the next
        // word's low bits when the window crosses a word boundary.
        let words = self.row_words(row);
        let (w, shift) = (start / 64, start % 64);
        let mut mask = words[w] >> shift;
        if shift != 0 && w + 1 < words.len() {
            mask |= words[w + 1] << (64 - shift);
        }
        let len = end - start;
        if len < 64 {
            mask &= (1u64 << len) - 1;
        }
        mask
    }

    /// Iterates over the set columns of one row, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `row >= dim()`.
    pub fn row_cols(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(row < self.dim, "row out of range");
        self.row_words(row).iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    fn row_words(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words_per_row..][..self.words_per_row]
    }
}

fn set_bit(bits: &mut [u64], words_per_row: usize, row: usize, col: usize) {
    bits[row * words_per_row + col / 64] |= 1 << (col % 64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hub 0; island {1,2,3} as a triangle, all touching the hub.
    fn example() -> (CsrGraph, IslandBitmap) {
        let g =
            CsrGraph::from_undirected_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)])
                .unwrap();
        let bm = IslandBitmap::build(&g, &[0], &[1, 2, 3], false);
        (g, bm)
    }

    #[test]
    fn dims_and_membership() {
        let (_, bm) = example();
        assert_eq!(bm.dim(), 4);
        assert_eq!(bm.num_hubs(), 1);
        assert_eq!(bm.num_nodes(), 3);
        assert_eq!(bm.member(0), 0);
        assert_eq!(bm.members(), &[0, 1, 2, 3]);
    }

    #[test]
    fn symmetry_and_no_diagonal() {
        let (_, bm) = example();
        for r in 0..4 {
            assert!(!bm.get(r, r), "diagonal must be empty");
            for c in 0..4 {
                assert_eq!(bm.get(r, c), bm.get(c, r), "bitmap must be symmetric");
            }
        }
    }

    #[test]
    fn nnz_counts_directed_entries() {
        let (_, bm) = example();
        // 6 undirected edges → 12 directed, all inside the task.
        assert_eq!(bm.nnz(), 12);
    }

    #[test]
    fn no_hub_hub_entries() {
        // Hubs 0, 1 connected to each other and both to island {2, 3}.
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let bm = IslandBitmap::build(&g, &[0, 1], &[2, 3], false);
        assert!(!bm.get(0, 1), "hub-hub edge must not be in the island task");
        assert!(bm.get(0, 2)); // hub0 - node2
        assert!(bm.get(3, 1)); // node3 - hub1
    }

    #[test]
    fn window_masks() {
        let (_, bm) = example();
        // Row 1 (island node 1): connected to hub 0 (col 0), nodes 2,3 (cols 2,3).
        assert_eq!(bm.window(1, 0, 2), 0b01);
        assert_eq!(bm.window(1, 2, 2), 0b11);
        // Clamped window at the edge.
        assert_eq!(bm.window(1, 3, 2), 0b1);
        // Empty window beyond the edge.
        assert_eq!(bm.window(1, 4, 2), 0);
    }

    #[test]
    fn row_cols_iterates_set_columns() {
        let (_, bm) = example();
        let cols: Vec<usize> = bm.row_cols(0).collect();
        assert_eq!(cols, vec![1, 2, 3]);
    }

    #[test]
    fn wide_islands_use_multiple_words() {
        // A star with 70 leaves forced into one bitmap exercises >1 word/row.
        let edges: Vec<(u32, u32)> = (1..=70).map(|v| (0u32, v)).collect();
        let g = CsrGraph::from_undirected_edges(71, &edges).unwrap();
        let nodes: Vec<u32> = (1..=70).collect();
        let bm = IslandBitmap::build(&g, &[0], &nodes, false);
        assert_eq!(bm.dim(), 71);
        assert_eq!(bm.nnz(), 140);
        assert!(bm.get(0, 70));
        assert!(bm.get(70, 0));
    }

    #[test]
    fn word_windows_match_per_bit_reads() {
        // 150 columns span three words per row; a pseudo-random graph
        // sets bits on both sides of every word boundary.
        let n = 150u32;
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s.is_multiple_of(3) {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_undirected_edges(n as usize, &edges).unwrap();
        let nodes: Vec<u32> = (3..n).collect();
        for diagonal in [false, true] {
            let bm = IslandBitmap::build(&g, &[0, 1, 2], &nodes, diagonal);
            assert!(bm.dim() > 128);
            for row in 0..bm.dim() {
                let cols: Vec<usize> = (0..bm.dim()).filter(|&c| bm.get(row, c)).collect();
                assert_eq!(bm.row_cols(row).collect::<Vec<_>>(), cols, "row {row}");
                for start in 0..bm.dim() + 2 {
                    // The per-bit mask of width w extends width w - 1's.
                    let mut expect = 0u64;
                    for width in 0..=64 {
                        if width > 0 && start + width <= bm.dim() {
                            expect |= u64::from(bm.get(row, start + width - 1)) << (width - 1);
                        }
                        assert_eq!(
                            bm.window(row, start, width),
                            expect,
                            "({row}, {start}, {width})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn island_struct_helpers() {
        let (g, _) = example();
        let isl = Island { nodes: vec![1, 2, 3], hubs: vec![0], round: 0, engine: 0 };
        assert_eq!(isl.len(), 3);
        assert!(!isl.is_empty());
        let bm = isl.bitmap(&g);
        assert_eq!(bm.dim(), 4);
    }
}
