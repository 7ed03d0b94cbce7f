package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"vdbms/internal/server"
)

// opRecord is one completed operation inside the measured window.
type opRecord struct {
	done  time.Duration // completion, from the start of the window
	lat   time.Duration
	write bool
}

// ack is one acknowledged insert: the id the server assigned and the row
// of fixture.data that was sent.
type ack struct {
	id  int64
	row int
}

// parseAck reads the id out of an insert's response body.
func parseAck(body []byte) (int64, error) {
	var out struct {
		ID *int64 `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.ID == nil {
		return 0, fmt.Errorf("unreadable insert ack %q", body)
	}
	return *out.ID, nil
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	f       *fixture
	queries []query
	hc      *http.Client
	ops     []int32  // seeded sequence: a pool index, or -1 for an insert
	inserts [][]byte // pre-encoded insert bodies, this client's share of the reserve
	insRow  []int    // row of fixture.data behind each insert body

	buf       bytes.Buffer
	recs      []opRecord
	last      [][]byte // last response body per pool query, for the checks
	acked     []ack
	nInserts  int
	attempted int
	failed    int
	firstErr  error
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// newClients prepares every client's operation sequence and request
// bodies, so that nothing is encoded inside the window.
func newClients(cfg config, f *fixture, qs []query) ([]*client, error) {
	cs := make([]*client, cfg.clients)
	for ci := range cs {
		c := &client{f: f, queries: qs, hc: newHTTPClient(), last: make([][]byte, len(qs))}
		rng := rand.New(rand.NewSource(cfg.seed + 100 + int64(ci)))
		// Several passes over the pool, each its own permutation, with
		// inserts spread between at the workload's ratio.
		for pass := 0; pass < 8; pass++ {
			for _, qi := range rng.Perm(len(qs)) {
				for f.spec.writePct > 0 && rng.Intn(100) < f.spec.writePct {
					c.ops = append(c.ops, -1)
				}
				c.ops = append(c.ops, int32(qi))
			}
		}
		if f.spec.writePct > 0 {
			first := f.rows + ci*cfg.reserve
			for row := first; row < first+cfg.reserve; row++ {
				body, err := insertBody(f, row)
				if err != nil {
					return nil, err
				}
				c.inserts = append(c.inserts, body)
				c.insRow = append(c.insRow, row)
			}
		}
		// ~25k operations per second and client is well above what any
		// workload reaches; append grows the slice if one ever does.
		c.recs = make([]opRecord, 0, int(cfg.seconds*25000)+1024)
		cs[ci] = c
	}
	return cs, nil
}

// post sends one request and reads the whole response into c.buf.
func (c *client) post(path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.f.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, err
}

// run issues operations back to back until end. Latency is stamped when
// the response body has been read, before anything is decoded.
func (c *client) run(windowStart, end time.Time) {
	for i := 0; ; i++ {
		op := c.ops[i%len(c.ops)]
		path, body := c.f.searchPath(), []byte(nil)
		slot := c.nInserts % max(len(c.inserts), 1) // the insert body an insert would send
		if op < 0 {
			path, body = c.f.insertPath(), c.inserts[slot]
		} else {
			body = c.queries[op].body
		}
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		resp, err := c.post(path, body)
		t1 := time.Now()

		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		}
		if err == nil && op >= 0 && resp.Header.Get(server.PlanHeader) == "" {
			err = fmt.Errorf("%s: response without %s", path, server.PlanHeader)
		}
		if err == nil && op < 0 {
			var id int64
			if id, err = parseAck(c.buf.Bytes()); err == nil {
				c.acked = append(c.acked, ack{id: id, row: c.insRow[slot]})
			}
			c.nInserts++
		}
		if err == nil && op >= 0 {
			c.last[op] = append(c.last[op][:0], c.buf.Bytes()...)
		}
		if err != nil && c.firstErr == nil {
			c.firstErr = err
		}
		if t0.Before(windowStart) || t1.After(end) {
			continue
		}
		c.attempted++
		if err != nil {
			c.failed++
			continue
		}
		c.recs = append(c.recs, opRecord{done: t1.Sub(windowStart), lat: t1.Sub(t0), write: op < 0})
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// loadResult is what one measured window yields.
type loadResult struct {
	attempted, failed int
	firstErr          error
	search, write     latencySummary
	allocsPerOp       float64
	cpuMsPerOp        []float64 // per sub-window
}

// latencySummary describes one kind of operation over the window, per
// sub-window: operations per second, and p50 and p99 latency in ms.
type latencySummary struct {
	samples          int
	perSec, p50, p99 []float64
}

// percentile is the nearest-rank percentile of sorted latencies, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

func summarize(cs []*client, write bool, window time.Duration) latencySummary {
	per := make([][]time.Duration, subWindows)
	for _, c := range cs {
		for _, r := range c.recs {
			if r.write != write {
				continue
			}
			w := min(int(int64(r.done)*subWindows/int64(window)), subWindows-1)
			per[w] = append(per[w], r.lat)
		}
	}
	var sum latencySummary
	for _, s := range per {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		sum.samples += len(s)
		sum.perSec = append(sum.perSec, float64(len(s))*subWindows/window.Seconds())
		sum.p50 = append(sum.p50, percentile(s, 0.50))
		sum.p99 = append(sum.p99, percentile(s, 0.99))
	}
	return sum
}

// drive runs every client through the warm-up and the measured window and
// reads the process counters at the window's edges.
func drive(cfg config, cs []*client) loadResult {
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	windowStart := start.Add(cfg.warmup)
	end := windowStart.Add(window)

	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(windowStart, end)
			c.hc.CloseIdleConnections()
		}(c)
	}
	// Process CPU time is read at every sub-window's edge, so that the CPU
	// per operation is a median of sub-windows like the latencies are.
	var m0, m1 runtime.MemStats
	cpu := make([]float64, subWindows+1)
	time.Sleep(time.Until(windowStart))
	runtime.ReadMemStats(&m0)
	for w := range cpu {
		time.Sleep(time.Until(windowStart.Add(window * time.Duration(w) / subWindows)))
		cpu[w] = cpuSeconds()
	}
	runtime.ReadMemStats(&m1)
	wg.Wait()

	var res loadResult
	for _, c := range cs {
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	res.search = summarize(cs, false, window)
	res.write = summarize(cs, true, window)
	if done := res.search.samples + res.write.samples; done > 0 {
		res.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(done)
	}
	for w := 0; w < subWindows; w++ {
		ops := (res.search.perSec[w] + res.write.perSec[w]) * window.Seconds() / subWindows
		res.cpuMsPerOp = append(res.cpuMsPerOp, (cpu[w+1]-cpu[w])*1000/max(ops, 1))
	}
	return res
}
