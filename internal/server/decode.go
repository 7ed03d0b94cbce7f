package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"vdbms"
)

// The search, batch and insert routes decode their bodies in one
// hand-written pass instead of encoding/json's reflective walk, which
// cost more than the HNSW probe the body carries. The pass accepts a
// subset of JSON it can decode exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode would — the same
// struct, field for field, nil and empty slices told apart — and hands
// every other body, same bytes, to that call, so the accepted language
// and every error text stay encoding/json's. It gives up on:
//
//   - a known field given twice (encoding/json merges a repeated array
//     or object into the first one in place);
//   - a key that is not plain ASCII once unescaped (encoding/json
//     matches keys under Unicode case folding, so "ſ" can name a field
//     spelled with "s");
//   - a \u escape of a UTF-16 surrogate and invalid UTF-8 (both of which
//     encoding/json rewrites), a number a field's type cannot hold,
//     null inside a float array, an array or object where it expects a
//     scalar, nesting deeper than maxSkipDepth;
//   - anything that is not an object at the top;
//   - a "radius" or "after" key: a range or paged query is rare
//     enough that encoding/json decodes it.
//
// Keys match their fields case-insensitively, as encoding/json's do,
// unknown keys are skipped (their values syntax-checked), and, as with
// json.Decoder, bytes after the closing brace are never read. Floats are
// parsed with strconv.ParseFloat at the field's bit size — the
// conversion encoding/json itself makes — so every value is
// bit-identical. FuzzDecodeSearchBody and FuzzDecodeInsertBody hold the
// pass to encoding/json on arbitrary input.

// maxPooled bounds what a request hands back to the pool: a body, float
// or response buffer grown past it by an outsized request is dropped,
// so one such request cannot pin its peak size for the process's life.
const maxPooled = 64 << 10

// maxSkipDepth bounds the nesting of a skipped unknown value.
const maxSkipDepth = 64

// reqBuf is the scratch of one request: its body, the struct it
// decodes into, the floats of every vector in it, back to back, and
// its encoded response. A handler takes one with getReqBuf and returns
// it with release once the response is written, so decoded vectors
// must not outlive the handler: the engine copies what it keeps
// (Insert copies the row, the audit reservoir copies a sampled query
// vector).
type reqBuf struct {
	body   []byte
	search SearchBody
	insert InsertRequest
	floats []float32
	spans  []span // vectors of a batch body, while it is decoded
	out    []byte
}

var reqBufs = sync.Pool{New: func() any { return new(reqBuf) }}

// poisonReleased, set by tests, overwrites every pooled float with NaN
// on release: a vector the engine kept past its handler then shows up
// as NaN in a hit or a stored row.
var poisonReleased bool

func getReqBuf() *reqBuf { return reqBufs.Get().(*reqBuf) }

// release returns rb to the pool, minus any buffer grown past maxPooled.
func (rb *reqBuf) release() {
	if poisonReleased {
		f := rb.floats[:cap(rb.floats)]
		for i := range f {
			f[i] = float32(math.NaN())
		}
	}
	if cap(rb.body) > maxPooled {
		rb.body = nil
	}
	if cap(rb.floats)*4 > maxPooled {
		rb.floats = nil
	}
	if cap(rb.out) > maxPooled {
		rb.out = nil
	}
	rb.search, rb.insert = SearchBody{}, InsertRequest{} // drop their references
	reqBufs.Put(rb)
}

// read replaces rb.body with everything r yields.
func (rb *reqBuf) read(r io.Reader) error {
	b := rb.body[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 4096)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			rb.body = b
			return nil
		}
		if err != nil {
			rb.body = b
			return err
		}
	}
}

// decodeSearch reads a search or batch body from r into req (the
// handlers pass &rb.search). Trace is not in the body (its JSON tag is
// "-"): it stays false.
func (rb *reqBuf) decodeSearch(r io.Reader, req *SearchBody) error {
	if err := rb.read(r); err != nil {
		return err
	}
	*req = SearchBody{}
	if rb.searchBody(req) {
		return nil
	}
	*req = SearchBody{}
	return json.NewDecoder(bytes.NewReader(rb.body)).Decode(req)
}

// decodeInsert reads an insert body from r into req (the handler passes
// &rb.insert).
func (rb *reqBuf) decodeInsert(r io.Reader, req *InsertRequest) error {
	if err := rb.read(r); err != nil {
		return err
	}
	*req = InsertRequest{}
	if rb.insertBody(req) {
		return nil
	}
	*req = InsertRequest{}
	return json.NewDecoder(bytes.NewReader(rb.body)).Decode(req)
}

// span locates one decoded float array in reqBuf.floats. Vectors are
// sliced out only once decoding is over, because the buffer may move
// while it grows.
type span struct {
	off, n int
	set    bool // false: JSON null or absent, a nil slice
}

func (rb *reqBuf) slice(s span) []float32 {
	switch {
	case !s.set:
		return nil
	case s.n == 0:
		return []float32{}
	}
	return rb.floats[s.off : s.off+s.n : s.off+s.n]
}

// searchFields are SearchBody's JSON names, in the order of the
// field constants below.
var searchFields = [...]string{
	"vector", "vectors", "k", "filters", "policy", "ef", "nprobe",
	"target_recall", "alpha", "rerank_k", "entity_column", "aggregator", "weights",
	"radius", "after",
}

const (
	fVector = iota
	fVectors
	fK
	fFilters
	fPolicy
	fEf
	fNProbe
	fTargetRecall
	fAlpha
	fRerankK
	fEntityColumn
	fAggregator
	fWeights
	fRadius
	fAfter
)

// searchBody is the single pass over a SearchBody.
func (rb *reqBuf) searchBody(req *SearchBody) bool {
	d := decoder{b: rb.body}
	rb.floats, rb.spans = rb.floats[:0], rb.spans[:0]
	var vector, vectors, weights span
	var seen [len(searchFields)]bool
	ok := d.object(func(key []byte) bool {
		f, ok := field(key, searchFields[:], seen[:])
		if !ok {
			return false
		}
		switch f {
		case fVector:
			vector, ok = d.floats(&rb.floats)
			return ok
		case fVectors:
			return rb.vectors(&d, &vectors)
		case fK:
			return d.int(&req.K)
		case fFilters:
			return d.filters(&req.Filters)
		case fPolicy:
			return d.string(&req.Policy)
		case fEf:
			return d.int(&req.Ef)
		case fNProbe:
			return d.int(&req.NProbe)
		case fTargetRecall:
			return d.float64(&req.TargetRecall)
		case fAlpha:
			return d.int(&req.Alpha)
		case fRerankK:
			return d.int(&req.RerankK)
		case fEntityColumn:
			return d.string(&req.EntityColumn)
		case fAggregator:
			return d.string(&req.Aggregator)
		case fWeights:
			weights, ok = d.floats(&rb.floats)
			return ok
		case fRadius, fAfter:
			return false
		}
		return d.skip(0)
	})
	if !ok {
		return false
	}
	req.Vector, req.Weights = rb.slice(vector), rb.slice(weights)
	if vectors.set {
		req.Vectors = make([][]float32, len(rb.spans))
		for i, s := range rb.spans {
			req.Vectors[i] = rb.slice(s)
		}
	}
	return true
}

// vectors decodes the "vectors" array of a batch: null, or an array of
// float arrays (each possibly null). s.set records whether the outer
// slice is non-nil; the inner spans accumulate in rb.spans.
func (rb *reqBuf) vectors(d *decoder, s *span) bool {
	if d.null() {
		return true
	}
	s.set = true
	return d.array(func() bool {
		inner, ok := d.floats(&rb.floats)
		rb.spans = append(rb.spans, inner)
		return ok
	})
}

var insertFields = [...]string{"vector", "attrs"}

// insertBody is the single pass over an InsertRequest.
func (rb *reqBuf) insertBody(req *InsertRequest) bool {
	d := decoder{b: rb.body}
	rb.floats = rb.floats[:0]
	var vector span
	var seen [len(insertFields)]bool
	ok := d.object(func(key []byte) bool {
		f, ok := field(key, insertFields[:], seen[:])
		switch {
		case !ok:
			return false
		case f == 0:
			vector, ok = d.floats(&rb.floats)
			return ok
		case f == 1:
			return d.attrs(&req.Attrs)
		}
		return d.skip(0)
	})
	if !ok {
		return false
	}
	req.Vector = rb.slice(vector)
	return true
}

// field returns the index of the name key matches under encoding/json's
// case folding, or -1 for an unknown key, and marks it in seen. It
// reports false for a key outside ASCII, which only encoding/json's
// Unicode folding can match, and for a field seen before, which
// encoding/json would merge into the first.
func field(key []byte, names []string, seen []bool) (int, bool) {
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return -1, false
		}
	}
	for i, name := range names {
		if asciiFold(key, name) {
			if seen[i] {
				return i, false
			}
			seen[i] = true
			return i, true
		}
	}
	return -1, true
}

// decoder walks one JSON text. Every method consumes one value (and
// the whitespace before it) or reports false, after which the decoder
// is not used again: the caller falls back to encoding/json.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next skips whitespace and reports whether the next byte is c,
// consuming it if so.
func (d *decoder) next(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes lit (true, false, null) when it comes next.
func (d *decoder) literal(lit string) bool {
	d.space()
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.literal("null") }

// object walks an object, calling member with each key positioned at
// its value; member decodes or skips the value.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.next(':') || !member(key) {
			return false
		}
		if d.next(',') {
			continue
		}
		return d.next('}')
	}
}

// array walks an array, calling elem at each element.
func (d *decoder) array(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.next(',') {
			continue
		}
		return d.next(']')
	}
}

// str consumes a string and returns its contents: the body's own bytes
// when it has no escape, a decoded copy when it has. It refuses what
// it cannot decode exactly as encoding/json does — a \u escape of a
// UTF-16 surrogate (which encoding/json pairs or replaces), invalid
// UTF-8 (which it replaces with U+FFFD) — and what is not JSON: a
// control character, an unknown escape.
func (d *decoder) str() ([]byte, bool) {
	d.space()
	b := d.b
	if d.i >= len(b) || b[d.i] != '"' {
		return nil, false
	}
	seg, ascii := d.i+1, true // seg: first byte not yet copied to out
	var out []byte            // nil until the first escape
	for j := seg; j < len(b); {
		switch c := b[j]; {
		case c == '"':
			d.i = j + 1
			if out == nil {
				out = b[seg:j]
			} else {
				out = append(out, b[seg:j]...)
			}
			return out, ascii || utf8.Valid(out)
		case c < 0x20:
			return nil, false
		case c != '\\':
			ascii = ascii && c < utf8.RuneSelf
			j++
			continue
		}
		if j+1 >= len(b) {
			return nil, false
		}
		out = append(out, b[seg:j]...)
		switch e := b[j+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := hex4(b[j+2:])
			if !ok || utf16.IsSurrogate(r) {
				return nil, false
			}
			out = utf8.AppendRune(out, r)
			j += 4
		default:
			return nil, false
		}
		j += 2
		seg = j
	}
	return nil, false
}

// hex4 decodes the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// number consumes a number in JSON's grammar and returns its text;
// integral reports that it has neither fraction nor exponent.
func (d *decoder) number() (text []byte, integral, ok bool) {
	d.space()
	b, i := d.b, d.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	default:
		return nil, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	d.i = i
	return b[start:i], integral, true
}

// unsafeString views b as a string for strconv, which copies whatever
// it keeps (its errors clone their input).
func unsafeString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// floats appends a float array's values to *dst and returns their
// span; null is a nil span.
func (d *decoder) floats(dst *[]float32) (span, bool) {
	if d.null() {
		return span{}, true
	}
	s := span{off: len(*dst), set: true}
	ok := d.array(func() bool {
		text, _, ok := d.number()
		if !ok {
			return false
		}
		f, err := strconv.ParseFloat(unsafeString(text), 32)
		if err != nil {
			return false
		}
		*dst = append(*dst, float32(f))
		return true
	})
	s.n = len(*dst) - s.off
	return s, ok
}

// int decodes an integer or null (which leaves dst as it is).
func (d *decoder) int(dst *int) bool {
	if d.null() {
		return true
	}
	text, integral, ok := d.number()
	if !ok || !integral {
		return false
	}
	n, err := strconv.ParseInt(unsafeString(text), 10, 64)
	if err != nil {
		return false
	}
	*dst = int(n)
	return true
}

// float64 decodes a number or null (which leaves dst as it is).
func (d *decoder) float64(dst *float64) bool {
	if d.null() {
		return true
	}
	text, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(unsafeString(text), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// string decodes a string or null (which leaves dst as it is).
func (d *decoder) string(dst *string) bool {
	if d.null() {
		return true
	}
	s, ok := d.str()
	if ok {
		*dst = string(s)
	}
	return ok
}

// scalar decodes a value into an any the way encoding/json does for a
// scalar: float64, string, bool or nil. Arrays and objects are refused.
func (d *decoder) scalar(dst *any) bool {
	d.space()
	if d.i >= len(d.b) {
		return false
	}
	switch c := d.b[d.i]; {
	case c == '"':
		s, ok := d.str()
		if ok {
			*dst = string(s)
		}
		return ok
	case c == 'n':
		*dst = nil
		return d.null()
	case c == 't':
		*dst = true
		return d.literal("true")
	case c == 'f':
		*dst = false
		return d.literal("false")
	}
	var f float64
	if !d.float64(&f) {
		return false
	}
	*dst = f
	return true
}

var filterFields = [...]string{"Column", "Op", "Value", "Set"}

// filters decodes the "filters" array: null, or vdbms.Filter objects
// (a null element is a zero Filter, as encoding/json leaves it).
func (d *decoder) filters(dst *[]vdbms.Filter) bool {
	if d.null() {
		*dst = nil
		return true
	}
	fs := []vdbms.Filter{}
	ok := d.array(func() bool {
		fs = append(fs, vdbms.Filter{})
		if d.null() {
			return true
		}
		f := &fs[len(fs)-1]
		var seen [len(filterFields)]bool
		return d.object(func(key []byte) bool {
			i, ok := field(key, filterFields[:], seen[:])
			switch {
			case !ok:
				return false
			case i == 0:
				return d.string(&f.Column)
			case i == 1:
				return d.string(&f.Op)
			case i == 2:
				return d.scalar(&f.Value)
			case i == 3:
				return d.set(&f.Set)
			}
			return d.skip(0)
		})
	})
	*dst = fs
	return ok
}

// set decodes a Filter's "Set": null, or an array of scalars.
func (d *decoder) set(dst *[]any) bool {
	if d.null() {
		*dst = nil
		return true
	}
	set := []any{}
	ok := d.array(func() bool {
		set = append(set, nil)
		return d.scalar(&set[len(set)-1])
	})
	*dst = set
	return ok
}

// attrs decodes the "attrs" object: null, or scalar values by key (a
// repeated key keeps its last value, as a map assignment does).
func (d *decoder) attrs(dst *map[string]any) bool {
	if d.null() {
		*dst = nil
		return true
	}
	m := map[string]any{}
	*dst = m
	return d.object(func(key []byte) bool {
		var v any
		if !d.scalar(&v) {
			return false
		}
		m[string(key)] = v
		return true
	})
}

// skip consumes one value of any shape, checking its syntax.
func (d *decoder) skip(depth int) bool {
	if depth > maxSkipDepth {
		return false
	}
	d.space()
	if d.i >= len(d.b) {
		return false
	}
	switch d.b[d.i] {
	case '{':
		return d.object(func([]byte) bool { return d.skip(depth + 1) })
	case '[':
		return d.array(func() bool { return d.skip(depth + 1) })
	case '"':
		_, ok := d.str()
		return ok
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.null()
	}
	_, _, ok := d.number()
	return ok
}

// asciiFold reports whether the ASCII key equals name under case
// folding.
func asciiFold(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := 0; i < len(key); i++ {
		a, b := key[i], name[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}
