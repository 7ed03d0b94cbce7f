package graph

import (
	"slices"
	"unsafe"

	"vdbms/internal/vec"
)

// Slab is frozen adjacency: every neighbor list packed into one flat
// []int32 with a prefix-sum offset table. A 10M-node graph stored as
// Adjacency carries 10M slice headers (240 MB of pointers the GC must
// scan every cycle, plus per-list allocator slack); the slab is two
// pointerless allocations the GC skips entirely. Offsets are uint32 —
// enough for 4B edges — with a guard in Freeze for the absurd case.
type Slab struct {
	flat []int32
	off  []uint32 // len n+1; neighbors of id are flat[off[id]:off[id+1]]
}

// Freeze packs adj into a Slab. If the edge count overflows uint32
// offsets it returns the original Adjacency unchanged (still a valid
// Neighborhoods) — correctness never depends on the packing.
func Freeze(adj Adjacency) Neighborhoods {
	total := 0
	for _, nbrs := range adj {
		total += len(nbrs)
	}
	if uint64(total) > uint64(^uint32(0)) {
		return adj
	}
	s := &Slab{
		flat: make([]int32, 0, total),
		off:  make([]uint32, len(adj)+1),
	}
	for i, nbrs := range adj {
		s.flat = append(s.flat, nbrs...)
		s.off[i+1] = uint32(len(s.flat))
	}
	return s
}

// sparseSlab is frozen adjacency for a layer where few nodes have a
// list, as in HNSW's layers above the base: the sorted ids of the nodes
// with a list, each beside the end offset of its list in flat, so the
// layer costs 8 bytes per such node plus 4 per edge instead of a dense
// offset per node of the graph.
type sparseSlab struct {
	ids  []int32  // ascending ids of the nodes with a non-empty list
	end  []uint32 // ids[i]'s neighbors are flat[end[i-1]:end[i]] (0 for i = 0)
	flat []int32
	n    int
}

// freezeSparse packs adj into a sparseSlab, returning adj unchanged when
// its edge count overflows uint32 offsets, as Freeze does.
func freezeSparse(adj Adjacency) Neighborhoods {
	total, lists := 0, 0
	for _, nbrs := range adj {
		total += len(nbrs)
		if len(nbrs) > 0 {
			lists++
		}
	}
	if uint64(total) > uint64(^uint32(0)) {
		return adj
	}
	s := &sparseSlab{
		ids:  make([]int32, 0, lists),
		end:  make([]uint32, 0, lists),
		flat: make([]int32, 0, total),
		n:    len(adj),
	}
	for i, nbrs := range adj {
		if len(nbrs) > 0 {
			s.flat = append(s.flat, nbrs...)
			s.ids = append(s.ids, int32(i))
			s.end = append(s.end, uint32(len(s.flat)))
		}
	}
	return s
}

// Neighbors implements Neighborhoods with a binary search over the ids
// that have a list.
func (s *sparseSlab) Neighbors(id int32) []int32 {
	i, ok := slices.BinarySearch(s.ids, id)
	if !ok {
		return nil
	}
	start := uint32(0)
	if i > 0 {
		start = s.end[i-1]
	}
	return s.flat[start:s.end[i]]
}

// Len implements Neighborhoods.
func (s *sparseSlab) Len() int { return s.n }

// Bytes is the resident size of the slab (memory accounting).
func (s *sparseSlab) Bytes() int { return (len(s.ids) + len(s.end) + len(s.flat)) * 4 }

// Neighbors implements Neighborhoods.
func (s *Slab) Neighbors(id int32) []int32 {
	return s.flat[s.off[id]:s.off[id+1]]
}

// prefetch starts loading id's neighbour list: the line it starts on
// and the one 64 bytes on, which together hold a list of up to 16 ids
// from any offset and the 32 of an HNSW base layer when it starts on a
// line.
func (s *Slab) prefetch(id int32) {
	lo, hi := s.off[id], s.off[id+1]
	if lo == hi {
		return
	}
	vec.Prefetch(unsafe.Pointer(&s.flat[lo]))
	vec.Prefetch(unsafe.Pointer(&s.flat[min(lo+16, hi-1)]))
}

// Len implements Neighborhoods.
func (s *Slab) Len() int { return len(s.off) - 1 }

// Edges returns the total edge count.
func (s *Slab) Edges() int { return len(s.flat) }

// Bytes is the resident size of the slab (memory accounting).
func (s *Slab) Bytes() int { return len(s.flat)*4 + len(s.off)*4 }

// NeighborhoodBytes estimates the resident bytes of any Neighborhoods
// implementation: exact for slabs, header+payload for slice-of-slice.
func NeighborhoodBytes(nh Neighborhoods) int {
	switch g := nh.(type) {
	case *Slab:
		return g.Bytes()
	case *sparseSlab:
		return g.Bytes()
	case Adjacency:
		total := len(g) * 24 // slice headers
		for _, nbrs := range g {
			total += cap(nbrs) * 4
		}
		return total
	case nil:
		return 0
	default:
		total := 0
		for i := 0; i < nh.Len(); i++ {
			total += 24 + len(nh.Neighbors(int32(i)))*4
		}
		return total
	}
}
