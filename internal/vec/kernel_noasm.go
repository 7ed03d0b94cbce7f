//go:build !amd64 || purego

package vec

import "unsafe"

// Prefetch is a hint with nothing behind it on this tier: see the amd64
// version.
func Prefetch(unsafe.Pointer) {}

// l2Rows scores the len(out) contiguous rows of len(q) floats in rows,
// out[i] = SquaredL2(q, row i) unless the row is cut above bound, and
// returns how many rows it cut.
func l2Rows(q, rows, out []float32, bound float32) int { return l2RowsGeneric(q, rows, out, bound) }

// dotRows is l2Rows for the dot product.
func dotRows(q, rows, out []float32) { dotRowsGeneric(q, rows, out) }

// l2Gather scores the rows ids name in the row-major data,
// out[i] = SquaredL2(q, row ids[i]) unless the row is cut above bound,
// and returns how many rows it cut.
func l2Gather(q, data []float32, ids []int32, out []float32, bound float32) int {
	return l2GatherGeneric(q, data, ids, out, bound)
}

// dotGather is l2Gather for the dot product.
func dotGather(q, data []float32, ids []int32, out []float32) { dotGatherGeneric(q, data, ids, out) }
