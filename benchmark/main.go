// Command benchmark is the repository's one load-driven benchmark. It
// hosts server.New(db) on a loopback listener inside its own process,
// drives it as a closed loop of keep-alive HTTP clients on one of four
// workloads, checks every answer against its own brute force, and prints
// the end-to-end metrics of BENCHMARK.json. With -trace 1 it instead
// crosses the request path seam by seam with a single client and prints
// where the time goes. README.md in this directory has the details.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricValue is one entry of the result line's "metrics".
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints: the contract with the driver.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// row is one metric as printed before the result line, with everything
// needed to compare it with a row from another machine or commit.
type row struct {
	meta
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Samples  int       `json:"samples"`
	Windows  []float64 `json:"windows,omitempty"` // the same metric per sub-window
}

// report is everything one run of one workload produced.
type report struct {
	outcome  outcome
	rows     []row
	findings []string
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// measure runs one workload end to end: timed set-ups, warm-up, the
// measured window, then the correctness checks.
func measure(cfg config, sp spec, m meta) (rep *report, err error) {
	f, setupS, setups, err := timedSetUps(cfg, sp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := f.close(); err == nil {
			err = cerr
		}
	}()
	qs, err := makeQueries(cfg, f)
	if err != nil {
		return nil, err
	}
	cs, err := newClients(cfg, f, qs)
	if err != nil {
		return nil, err
	}
	res := drive(cfg, cs)

	if res.firstErr != nil || res.failed > 0 {
		return nil, fmt.Errorf("error_rate %d/%d > 0, first failure: %v", res.failed, res.attempted, res.firstErr)
	}
	if res.search.samples < cfg.minSamples {
		return nil, fmt.Errorf("run too short: %d search latency samples, p99 needs %d", res.search.samples, cfg.minSamples)
	}
	if sp.writePct > 0 && res.write.samples < cfg.minSamples {
		return nil, fmt.Errorf("run too short: %d write latency samples, p99 needs %d", res.write.samples, cfg.minSamples)
	}

	var recall float64
	if sp.writePct > 0 {
		recall, err = verifyMixed(cfg, f, cs, qs)
	} else {
		recall, err = verifyStatic(f, cs, qs)
	}
	if err != nil {
		return nil, fmt.Errorf("correctness: %w", err)
	}

	rep = &report{outcome: outcome{
		Correct: true, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{},
	}}
	ops := res.search.samples + res.write.samples
	// Throughput, latency and CPU are medians of the sub-windows: a stall
	// or a background event then moves one sub-window, not the result.
	windowed := func(samples int, windows []float64) row {
		return row{Value: median(windows), Samples: samples, Windows: windows}
	}
	values := map[string]row{
		"setup_s":       {Value: setupS, Samples: setups},
		"search_qps":    windowed(res.search.samples, res.search.perSec),
		"search_p50_ms": windowed(res.search.samples, res.search.p50),
		"recall_at_10":  {Value: recall, Samples: res.search.samples},
		"allocs_per_op": {Value: res.allocsPerOp, Samples: ops},
		"cpu_ms_per_op": windowed(ops, res.cpuMsPerOp),
		"heap_mib":      {Value: f.heapMiB, Samples: 1},
	}
	for _, def := range endToEnd {
		r := values[def.name]
		r.meta, r.Workload, r.Metric, r.Unit = m, sp.name, def.name, def.unit
		rep.rows = append(rep.rows, r)
		rep.outcome.Metrics[def.name] = metricValue{Value: r.Value, Unit: def.unit}
	}
	// Rows the result line has no place for: it carries the same metrics
	// on every workload, none that is 0 by construction, and none that
	// spreads past the widest bound from run to run on a shared host, as
	// search_p99_ms does (README.md).
	extra := []row{{Metric: "error_rate", Value: float64(res.failed) / float64(res.attempted), Unit: "ratio", Samples: res.attempted}}
	p99 := windowed(res.search.samples, res.search.p99)
	p99.Metric, p99.Unit = "search_p99_ms", "ms"
	extra = append(extra, p99)
	if sp.writePct > 0 {
		for _, w := range []struct {
			name, unit string
			windows    []float64
		}{
			{"write_ops_s", "1/s", res.write.perSec},
			{"write_p50_ms", "ms", res.write.p50},
			{"write_p99_ms", "ms", res.write.p99},
		} {
			r := windowed(res.write.samples, w.windows)
			r.Metric, r.Unit = w.name, w.unit
			extra = append(extra, r)
		}
	}
	for _, r := range extra {
		r.meta, r.Workload = m, sp.name
		rep.rows = append(rep.rows, r)
	}
	return rep, nil
}

// trace runs one workload's traced pass and reports every per-layer
// metric, 0 for a seam the workload does not cross.
func trace(cfg config, sp spec, m meta) (*report, error) {
	t, err := runTraced(cfg, sp)
	if err != nil {
		return nil, err
	}
	rep := &report{
		outcome:  outcome{Correct: true, Attempted: t.calls, Metrics: map[string]metricValue{}},
		findings: t.findings,
	}
	for _, def := range perLayer {
		v := t.values[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s is %v", def.name, v)
		}
		rep.rows = append(rep.rows, row{meta: m, Workload: sp.name, Metric: def.name, Value: v, Unit: def.unit, Samples: cfg.pool(sp)})
		rep.outcome.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	return rep, nil
}

// runWorkload validates the configuration, runs one workload in one mode
// and prints its rows, findings and result line.
func runWorkload(cfg config, sp spec, traced bool, stdout, stderr io.Writer) error {
	if cfg.clients > runtime.NumCPU() {
		return fmt.Errorf("%d clients on %d CPUs: the clients would queue behind each other, not the server", cfg.clients, runtime.NumCPU())
	}
	run := measure
	if traced {
		run = trace
		// One client has one request in flight. With an idle second CPU the
		// scheduler hands each query's goroutine to it, and a filtered query
		// then takes 1.5 to 2.7 ms instead of 0.9 ms depending on where it
		// lands: a cost that belongs to no layer and makes the seams stop
		// adding up. On one CPU they are service times, additive and
		// repeatable; what more CPUs add shows in the loaded run.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	m := collectMeta(cfg)
	rep, err := run(cfg, sp, m)
	if err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	enc := json.NewEncoder(stdout)
	for _, r := range rep.rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	for _, finding := range rep.findings {
		fmt.Fprintf(stderr, "finding: %s: %s\n", sp.name, finding)
	}
	return enc.Encode(rep.outcome)
}

func realMain(args []string, stdout, stderr io.Writer) error {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: ann_search, filtered_search, exact_scan, mixed_rw_durable or all")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the measured window")
	traced := fs.Int("trace", 0, "1 = seam-by-seam traced run with one client, printing the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", "", "directory for durable data (default: a fresh one under .bench_build, removed on exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		return fmt.Errorf("usage: -seconds must be positive, -trace 0 or 1, and no other arguments")
	}
	run := specs
	if *workload != "all" {
		sp, ok := findSpec(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		run = []spec{sp}
	}
	if cfg.workdir == "" {
		// Inside the checkout, which is all the driver lets a run touch.
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(".bench_build", "work-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.workdir = dir
	}
	abs, err := filepath.Abs(cfg.workdir)
	if err != nil {
		return err
	}
	cfg.workdir = abs
	for _, sp := range run {
		if err := runWorkload(cfg, sp, *traced == 1, stdout, stderr); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
