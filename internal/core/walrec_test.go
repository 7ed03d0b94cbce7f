package core

import (
	"math"
	"reflect"
	"testing"

	"vdbms/internal/filter"
)

// TestWALEncodeOneAllocation pins the insert and update encoders, which
// run on every logged write, to one allocation per record: the buffer,
// sized before it is written. The records must still decode to what was
// encoded, an attribute the schema does not declare included.
func TestWALEncodeOneAllocation(t *testing.T) {
	v := make([]float32, 128)
	for i := range v {
		v[i] = float32(i) / 7
	}
	v[3] = float32(math.Inf(-1))
	kinds := durableSchema().Attributes
	attrs := durableRowAttrs(5)
	attrs["undeclared"] = filter.StringV("x")

	var ins, upd []byte
	if n := testing.AllocsPerRun(100, func() { ins = encodeInsert(v, attrs, kinds) }); n != 1 {
		t.Errorf("encodeInsert: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { upd = encodeUpdate(42, v) }); n != 1 {
		t.Errorf("encodeUpdate: %v allocations, want 1", n)
	}
	if len(ins) != cap(ins) || len(upd) != cap(upd) {
		t.Errorf("buffers sized %d/%d and %d/%d (len/cap)", len(ins), cap(ins), len(upd), cap(upd))
	}

	rec, err := decodeWALRecord(ins)
	if err != nil {
		t.Fatal(err)
	}
	if rec.op != opInsert || !reflect.DeepEqual(rec.vec, v) || len(rec.attrs) != len(attrs) {
		t.Fatalf("insert decoded to op %d, %d floats, %d attributes", rec.op, len(rec.vec), len(rec.attrs))
	}
	rec, err = decodeWALRecord(upd)
	if err != nil {
		t.Fatal(err)
	}
	if rec.op != opUpdate || rec.id != 42 || !reflect.DeepEqual(rec.vec, v) {
		t.Fatalf("update decoded to op %d, id %d, %d floats", rec.op, rec.id, len(rec.vec))
	}
}
