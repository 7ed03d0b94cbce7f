//go:build linux

package vec

import (
	"math"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n floats that end flush against a PROT_NONE page:
// reading one float past them faults.
func guarded(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	if n*4 > page {
		t.Fatalf("guarded: %d floats do not fit a page", n)
	}
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[page-n*4])), n)
}

// guardedIDs returns a copy of ids that ends flush against a PROT_NONE
// page: reading one id past them faults.
func guardedIDs(t *testing.T, ids ...int32) []int32 {
	t.Helper()
	if len(ids) == 0 {
		return nil
	}
	g := unsafe.Slice((*int32)(unsafe.Pointer(&guarded(t, len(ids))[0])), len(ids))
	copy(g, ids)
	return g
}

// TestKernelStaysInBounds places each operand so that it ends flush
// against an unreadable page, for every length 0..257 (so every tail
// shape, at every 4-byte alignment of the start) and every 4-byte start
// offset of the other operand in a 32-byte window. A kernel that loads
// past len floats — a full-width load over a short tail, as the odd-row
// pair kernel of PR 4 did — faults here, which SetPanicOnFault turns
// into a test failure instead of a crash.
//
// The L2 kernels run under bounds that cut rows at every cut point, at
// some and at none: a cut row reads less of itself, never more.
//
// The gather kernels get the same operands plus an id list that is
// itself flush against an unreadable page, of every length up to twice
// the longer prefetch distance (the bounded kernel's) and naming the
// first and the last row of the block in every position: the row
// prefetched while another is scored is named by an id further on, and
// near the end of the list — in all of a list shorter than the distance
// — there is none: a kernel that read it anyway faults on the ids, and
// one that loaded what it should only prefetch faults on the rows.
func TestKernelStaysInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const rowsPerBlock = 3
	const ahead = 6 // kernel_amd64.s's gatherCutAhead
	var idLists [][]int32
	for n := 0; n <= 2*ahead+1; n++ {
		for first := int32(0); first < rowsPerBlock; first++ {
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = (first + int32(i)*(rowsPerBlock-1)) % rowsPerBlock
			}
			idLists = append(idLists, guardedIDs(t, ids...))
		}
	}
	for d := 0; d <= 257; d++ {
		vecG := guarded(t, d)
		blockG := guarded(t, rowsPerBlock*d)
		for i := range vecG {
			vecG[i] = float32(i%7) - 3
		}
		for i := range blockG {
			blockG[i] = float32(i%5) - 2
		}
		heap := make([]float32, rowsPerBlock*d+8)
		for i := range heap {
			heap[i] = float32(i%3) - 1
		}
		out := make([]float32, rowsPerBlock)
		// The L2 kernels run unbounded, cutting every row they can, with
		// a bound some rows pass and some do not, and under NaN.
		bounds := []float32{inf, 0, float32(d), float32(math.NaN())}
		for off := 0; off < 8; off++ {
			free := heap[off : off+d]
			freeBlock := heap[off : off+rowsPerBlock*d]
			// Guarded second operand, guarded first operand, both.
			_ = SquaredL2(free, vecG) + SquaredL2(vecG, free) + SquaredL2(vecG, vecG)
			_ = Dot(free, vecG) + Dot(vecG, free) + Dot(vecG, vecG)
			// Block form: guarded rows, then a guarded query.
			dotRows(free, blockG, out)
			dotRows(vecG, freeBlock, out)
			for _, bound := range bounds {
				l2Rows(free, blockG, out, bound)
				l2Rows(vecG, freeBlock, out, bound)
			}
		}
		gout := make([]float32, 2*ahead+1)
		for _, ids := range idLists {
			dotGather(heap[:d], blockG, ids, gout)
			dotGather(vecG, heap[:rowsPerBlock*d], ids, gout)
			for _, bound := range bounds {
				l2Gather(heap[:d], blockG, ids, gout, bound)
				l2Gather(vecG, heap[:rowsPerBlock*d], ids, gout, bound)
			}
		}
	}
}
