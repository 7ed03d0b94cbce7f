package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"vdbms"
	"vdbms/internal/obs"
)

// jsonContentType is the Content-Type of every JSON response, shared:
// net/http only reads header values.
var jsonContentType = []string{"application/json"}

// send writes an encoded response: headers, status, then the body in
// one Write.
func send(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body) // a client gone mid-write is not the server's error
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	rb := getReqBuf()
	rb.writeJSON(w, status, v)
	rb.release()
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeJSON encodes v with encoding/json into rb's response buffer and
// sends it. Encoding happens before anything is written, so a value
// that cannot be encoded is answered with a 500 naming the failure
// instead of a truncated body.
func (rb *reqBuf) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bytes.NewBuffer(rb.out[:0])
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		obs.HTTPEncodeErrors.Inc()
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("encoding the response: %w", err))
		return
	}
	rb.out = buf.Bytes()
	send(w, status, rb.out)
}

// writeSearch sends a search result, appended by hand when it can be
// and through encoding/json otherwise — the same bytes either way.
func (rb *reqBuf) writeSearch(w http.ResponseWriter, res *vdbms.SearchResult) {
	out, ok := appendSearchResult(rb.out[:0], res)
	if !ok {
		rb.writeJSON(w, http.StatusOK, *res) // a copy, so res stays on the caller's stack
		return
	}
	rb.out = out
	send(w, http.StatusOK, rb.out)
}

// writeInsert sends an insert's acknowledgement, {"id":N}.
func (rb *reqBuf) writeInsert(w http.ResponseWriter, id int64) {
	b := append(rb.out[:0], `{"id":`...)
	b = strconv.AppendInt(b, id, 10)
	rb.out = append(b, "}\n"...)
	send(w, http.StatusCreated, rb.out)
}

// appendSearchResult appends res exactly as json.Encoder encodes it,
// newline included. It reports false for what only encoding/json
// renders: a trace, a string that needs escaping, a distance that is
// not finite (which encoding/json refuses).
func appendSearchResult(b []byte, res *vdbms.SearchResult) ([]byte, bool) {
	if res.Trace != nil {
		return b, false
	}
	b = append(b, `{"Hits":`...)
	if res.Hits == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, h := range res.Hits {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"ID":`...)
			b = strconv.AppendInt(b, h.ID, 10)
			b = append(b, `,"Dist":`...)
			var ok bool
			if b, ok = appendFloat32(b, h.Dist); !ok {
				return b, false
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"Plan":`...)
	b, ok := appendPlain(b, res.Plan)
	b = append(b, `,"Ef":`...)
	b = strconv.AppendInt(b, int64(res.Ef), 10)
	b = append(b, `,"NProbe":`...)
	b = strconv.AppendInt(b, int64(res.NProbe), 10)
	b = append(b, `,"ParamSource":`...)
	b, ok2 := appendPlain(b, res.ParamSource)
	return append(b, "}\n"...), ok && ok2
}

// appendPlain appends s quoted when no character of it needs escaping
// under encoding/json's rules (HTMLEscape on, as json.Encoder has it).
func appendPlain(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return b, false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), true
}

// appendFloat32 formats f as encoding/json formats a float32: the
// shortest decimal that round-trips, in ES6 number-to-string notation.
func appendFloat32(b []byte, f float32) ([]byte, bool) {
	f64 := float64(f)
	if math.IsInf(f64, 0) || math.IsNaN(f64) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f64); abs != 0 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f64, format, -1, 32)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// planHeader renders the X-Vdbms-Plan value:
// "<plan>;ef=<ef>;nprobe=<nprobe>;source=<source>".
func planHeader(res *vdbms.SearchResult) string {
	var a [96]byte
	b := append(a[:0], res.Plan...)
	b = append(b, ";ef="...)
	b = strconv.AppendInt(b, int64(res.Ef), 10)
	b = append(b, ";nprobe="...)
	b = strconv.AppendInt(b, int64(res.NProbe), 10)
	b = append(b, ";source="...)
	b = append(b, res.ParamSource...)
	return string(b)
}
