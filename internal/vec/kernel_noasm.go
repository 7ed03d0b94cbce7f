//go:build !amd64 || purego

package vec

// l2Rows scores the len(out) contiguous rows of len(q) floats in rows:
// out[i] = SquaredL2(q, row i).
func l2Rows(q, rows, out []float32) { l2RowsGeneric(q, rows, out) }

// dotRows is l2Rows for the dot product.
func dotRows(q, rows, out []float32) { dotRowsGeneric(q, rows, out) }
