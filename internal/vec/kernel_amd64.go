//go:build amd64 && !purego

package vec

import (
	"math"
	"unsafe"
)

// Prefetch asks the core to start loading the cache line holding p into
// every cache level (PREFETCHT0) and returns at once. It is a hint: it
// never faults and changes no result; a caller uses it to overlap a
// load it will make soon with work it does first.
//
//go:noescape
func Prefetch(p unsafe.Pointer)

// useAVX is decided once at start-up; nothing else selects a kernel.
var useAVX = hasAVX()

// hasAVX reports whether the CPU implements AVX and the operating
// system saves the YMM state across context switches.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS preserves the XMM and YMM registers.
	lo, _ := xgetbv()
	return lo&6 == 6
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// l2RowsAVX and dotRowsAVX score the n contiguous rows of d floats at
// rows against the d floats at q into the n floats at out. They read
// exactly d floats of q and n*d of rows and write n of out; the
// wrappers below are what makes those extents hold. l2RowsCutAVX is
// l2RowsAVX with a bound: it cuts a row whose partial sum passes bound
// (kernel.go) and returns how many rows it cut.
//
//go:noescape
func l2RowsAVX(q, rows *float32, d, n int, out *float32)

//go:noescape
func l2RowsCutAVX(q, rows *float32, d, n int, out *float32, bound float32) int

//go:noescape
func dotRowsAVX(q, rows *float32, d, n int, out *float32)

// l2Rows scores the len(out) contiguous rows of len(q) floats in rows,
// out[i] = SquaredL2(q, row i) unless the row is cut above bound, and
// returns how many rows it cut.
func l2Rows(q, rows, out []float32, bound float32) int {
	if !useAVX {
		return l2RowsGeneric(q, rows, out, bound)
	}
	rows = head(rows, len(out)*len(q))
	if len(rows) == 0 {
		clear(out)
		return 0
	}
	if math.IsInf(float64(bound), 1) {
		l2RowsAVX(&q[0], &rows[0], len(q), len(out), &out[0])
		return 0
	}
	return l2RowsCutAVX(&q[0], &rows[0], len(q), len(out), &out[0], bound)
}

// dotRows is l2Rows for the dot product.
func dotRows(q, rows, out []float32) {
	if !useAVX {
		dotRowsGeneric(q, rows, out)
		return
	}
	rows = head(rows, len(out)*len(q))
	if len(rows) == 0 {
		clear(out)
		return
	}
	dotRowsAVX(&q[0], &rows[0], len(q), len(out), &out[0])
}

// l2GatherAVX and dotGatherAVX score the n rows of d floats that the n
// ids name in data, row ids[i] starting d*ids[i] floats in. They read
// d floats of q, n ids and d floats of each named row, and write n of
// out; gatherRows is what makes every named row lie inside data.
// l2GatherCutAVX is l2GatherAVX with a bound, as l2RowsCutAVX is
// l2RowsAVX with one.
//
//go:noescape
func l2GatherAVX(q, data *float32, ids *int32, d, n int, out *float32)

//go:noescape
func l2GatherCutAVX(q, data *float32, ids *int32, d, n int, out *float32, bound float32) int

//go:noescape
func dotGatherAVX(q, data *float32, ids *int32, d, n int, out *float32)

// gatherRows panics unless every id names a whole row of d floats
// inside data, and reports whether there is anything to score.
func gatherRows(data []float32, ids []int32, d int, out []float32) bool {
	if d == 0 {
		clear(out)
		return false
	}
	rows := len(data) / d
	for _, id := range ids {
		if int(id) < 0 || int(id) >= rows {
			panic("vec: gathered row id outside the data")
		}
	}
	return len(ids) > 0
}

// l2Gather scores the rows ids name in the row-major data,
// out[i] = SquaredL2(q, row ids[i]) unless the row is cut above bound,
// and returns how many rows it cut.
func l2Gather(q, data []float32, ids []int32, out []float32, bound float32) int {
	if !useAVX {
		return l2GatherGeneric(q, data, ids, out, bound)
	}
	out = out[:len(ids)]
	if !gatherRows(data, ids, len(q), out) {
		return 0
	}
	if math.IsInf(float64(bound), 1) {
		l2GatherAVX(&q[0], &data[0], &ids[0], len(q), len(ids), &out[0])
		return 0
	}
	return l2GatherCutAVX(&q[0], &data[0], &ids[0], len(q), len(ids), &out[0], bound)
}

// dotGather is l2Gather for the dot product.
func dotGather(q, data []float32, ids []int32, out []float32) {
	if !useAVX {
		dotGatherGeneric(q, data, ids, out)
		return
	}
	out = out[:len(ids)]
	if gatherRows(data, ids, len(q), out) {
		dotGatherAVX(&q[0], &data[0], &ids[0], len(q), len(ids), &out[0])
	}
}
