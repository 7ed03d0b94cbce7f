//go:build !amd64 || purego

package vec

import "unsafe"

// Prefetch is a hint with nothing behind it on this tier: see the amd64
// version.
func Prefetch(unsafe.Pointer) {}

// l2Rows scores the len(out) contiguous rows of len(q) floats in rows:
// out[i] = SquaredL2(q, row i).
func l2Rows(q, rows, out []float32) { l2RowsGeneric(q, rows, out) }

// dotRows is l2Rows for the dot product.
func dotRows(q, rows, out []float32) { dotRowsGeneric(q, rows, out) }

// l2Gather scores the rows ids name in the row-major data:
// out[i] = SquaredL2(q, row ids[i]).
func l2Gather(q, data []float32, ids []int32, out []float32) { l2GatherGeneric(q, data, ids, out) }

// dotGather is l2Gather for the dot product.
func dotGather(q, data []float32, ids []int32, out []float32) { dotGatherGeneric(q, data, ids, out) }
