package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"vdbms/internal/filter"
	"vdbms/internal/vec"
)

// WAL record payloads. The wal package frames and checksums opaque
// bytes; this file defines what goes inside them — one compact,
// hand-rolled binary record per logical mutation. gob is deliberately
// avoided here: a fresh gob encoder retransmits type metadata per
// record, which would dominate the log for small vectors, and the
// write path pays this cost on every insert.
//
// Layout is little-endian throughout: op byte, then op-specific
// fields. Strings are u32 length + bytes; maps are written in sorted
// key order so identical mutations produce identical bytes.

const (
	opSchema      = byte(1) // collection born: name + schema
	opInsert      = byte(2) // vector + attribute row
	opUpdate      = byte(3) // id + replacement vector
	opDelete      = byte(4) // id
	opCreateIndex = byte(5) // index recipe installed
	opDropIndex   = byte(6) // index recipe cleared
)

// walRecord is the decoded form of any WAL payload; op selects which
// fields are meaningful.
type walRecord struct {
	op        byte
	name      string // opSchema
	schema    Schema // opSchema
	vec       []float32
	attrs     map[string]filter.Value
	id        int64
	indexKind string
	indexOpts map[string]int
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendF32s(b []byte, vs []float32) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, math.Float32bits(v))
	}
	return b
}

func encodeSchema(name string, s Schema) []byte {
	b := []byte{opSchema}
	b = appendStr(b, name)
	b = appendU32(b, uint32(s.Dim))
	b = appendU32(b, uint32(s.Metric))
	b = appendU64(b, math.Float64bits(s.RebuildFraction))
	b = appendStr(b, s.Quantization)
	b = appendU32(b, uint32(s.RerankK))
	cols := make([]string, 0, len(s.Attributes))
	for c := range s.Attributes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	b = appendU32(b, uint32(len(cols)))
	for _, c := range cols {
		b = appendStr(b, c)
		b = append(b, byte(s.Attributes[c]))
	}
	return b
}

// encodeInsert and encodeUpdate size their buffer before writing it:
// they run on every logged write, and growing from one byte would
// reallocate it several times per record.
func encodeInsert(v []float32, attrs map[string]filter.Value, kinds map[string]filter.Kind) []byte {
	var colsBuf [8]string
	cols := colsBuf[:0]
	size := 1 + 4 + 4*len(v) + 4
	for c, val := range attrs {
		cols = append(cols, c)
		size += 4 + len(c) + 1
		switch kinds[c] {
		case filter.Int64, filter.Float64:
			size += 8
		default:
			size += 4 + len(val.S)
		}
	}
	slices.Sort(cols)
	b := make([]byte, 1, size)
	b[0] = opInsert
	b = appendF32s(b, v)
	b = appendU32(b, uint32(len(cols)))
	for _, c := range cols {
		b = appendStr(b, c)
		kind := kinds[c]
		b = append(b, byte(kind))
		val := attrs[c]
		switch kind {
		case filter.Int64:
			b = appendU64(b, uint64(val.I))
		case filter.Float64:
			b = appendU64(b, math.Float64bits(val.F))
		default:
			b = appendStr(b, val.S)
		}
	}
	return b
}

func encodeUpdate(id int64, v []float32) []byte {
	b := make([]byte, 1, 1+8+4+4*len(v))
	b[0] = opUpdate
	b = appendU64(b, uint64(id))
	return appendF32s(b, v)
}

func encodeDelete(id int64) []byte {
	b := []byte{opDelete}
	return appendU64(b, uint64(id))
}

func encodeCreateIndex(kind string, opts map[string]int) []byte {
	b := []byte{opCreateIndex}
	b = appendStr(b, kind)
	keys := make([]string, 0, len(opts))
	for k := range opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = appendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = appendStr(b, k)
		b = appendU64(b, uint64(int64(opts[k])))
	}
	return b
}

func encodeDropIndex() []byte { return []byte{opDropIndex} }

// walDecoder is a bounds-checked cursor over one record payload. Any
// overrun flips err and every later read returns zero values, so
// decode paths can read linearly and check once at the end.
type walDecoder struct {
	b   []byte
	off int
	err error
}

func (d *walDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("core: truncated WAL record at byte %d", d.off)
	}
}

func (d *walDecoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *walDecoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *walDecoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *walDecoder) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *walDecoder) f32s() []float32 {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+4*n > len(d.b) {
		d.fail()
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(d.u32())
	}
	return out
}

// decodeWALRecord parses one payload back into a walRecord.
func decodeWALRecord(payload []byte) (walRecord, error) {
	if len(payload) == 0 {
		return walRecord{}, fmt.Errorf("core: empty WAL record")
	}
	d := &walDecoder{b: payload}
	rec := walRecord{op: d.u8()}
	switch rec.op {
	case opSchema:
		rec.name = d.str()
		rec.schema.Dim = int(d.u32())
		rec.schema.Metric = vec.Metric(d.u32())
		rec.schema.RebuildFraction = math.Float64frombits(d.u64())
		rec.schema.Quantization = d.str()
		rec.schema.RerankK = int(d.u32())
		n := int(d.u32())
		rec.schema.Attributes = map[string]filter.Kind{} // no hint: n is unchecked
		for i := 0; i < n && d.err == nil; i++ {
			col := d.str()
			rec.schema.Attributes[col] = filter.Kind(d.u8())
		}
	case opInsert:
		rec.vec = d.f32s()
		n := int(d.u32())
		rec.attrs = map[string]filter.Value{}
		for i := 0; i < n && d.err == nil; i++ {
			col := d.str()
			switch filter.Kind(d.u8()) {
			case filter.Int64:
				rec.attrs[col] = filter.IntV(int64(d.u64()))
			case filter.Float64:
				rec.attrs[col] = filter.FloatV(math.Float64frombits(d.u64()))
			default:
				rec.attrs[col] = filter.StringV(d.str())
			}
		}
	case opUpdate:
		rec.id = int64(d.u64())
		rec.vec = d.f32s()
	case opDelete:
		rec.id = int64(d.u64())
	case opCreateIndex:
		rec.indexKind = d.str()
		n := int(d.u32())
		rec.indexOpts = map[string]int{}
		for i := 0; i < n && d.err == nil; i++ {
			k := d.str()
			rec.indexOpts[k] = int(int64(d.u64()))
		}
	case opDropIndex:
	default:
		return walRecord{}, fmt.Errorf("core: unknown WAL op %d", rec.op)
	}
	if d.err != nil {
		return walRecord{}, d.err
	}
	if d.off != len(payload) {
		return walRecord{}, fmt.Errorf("core: %d trailing bytes in WAL record (op %d)", len(payload)-d.off, rec.op)
	}
	return rec, nil
}
