package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeConfig is the real code path at a scale that finishes in a second
// or two per workload: 2 000 rows, 100 queries, half a second of load.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.seconds = 0.5
	cfg.warmup = 100 * time.Millisecond
	cfg.setups = 1
	cfg.setupBudget = 0
	cfg.maxRows = 2000
	cfg.maxPool = 100
	cfg.reserve = 1024
	cfg.minSamples = 10
	cfg.traceWrites = 30
	cfg.checkpointEvery = 200 * time.Millisecond
	cfg.workdir = t.TempDir()
	return cfg
}

// benchmarkJSON is the part of BENCHMARK.json the runner must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runSmoke runs one workload in one mode and returns the value of every
// row it printed, having checked that the rows and the result line carry
// exactly the metrics want lists, once each.
func runSmoke(t *testing.T, cfg config, sp spec, traced bool, want []struct{ Name, Unit string }) map[string]float64 {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := runWorkload(cfg, sp, traced, &stdout, &stderr); err != nil {
		t.Fatalf("%s: %v\n%s", sp.name, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	seen := map[string]int{}
	values := map[string]float64{}
	for _, line := range lines[:len(lines)-1] {
		var r row
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		if r.Workload != sp.name || r.Schema != schemaVersion || r.NProc == 0 || r.GOMAXPROCS == 0 || r.Clients == 0 || r.CPU == "" || r.Commit == "" || r.FS == "" {
			t.Errorf("row without its metadata: %s", line)
		}
		if !nameRE.MatchString(r.Metric) {
			t.Errorf("metric name %q", r.Metric)
		}
		seen[r.Metric]++
		values[r.Metric] = r.Value
	}
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s: result line says correct=%v attempted=%d failed=%d", sp.name, out.Correct, out.Attempted, out.Failed)
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("%s: result line has %d metrics, BENCHMARK.json lists %d", sp.name, len(out.Metrics), len(want))
	}
	for _, w := range want {
		if seen[w.Name] != 1 {
			t.Errorf("%s: %s printed %d times, want once", sp.name, w.Name, seen[w.Name])
		}
		got, ok := out.Metrics[w.Name]
		if !ok || got.Unit != w.Unit {
			t.Errorf("%s: result line has %s as %+v, want unit %q", sp.name, w.Name, got, w.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: %s = %v", sp.name, w.Name, got.Value)
		}
	}
	return values
}

func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the runner", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runner %d", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the runner", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestSmokeEndToEnd(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			values := runSmoke(t, smokeConfig(t), sp, false, b.EndToEnd)
			for _, m := range b.EndToEnd {
				if m.Name == "heap_mib" {
					continue // a heap delta, and the workloads share this test's heap
				}
				if values[m.Name] <= 0 {
					t.Errorf("%s = %v, want a positive value", m.Name, values[m.Name])
				}
			}
			if values["search_p99_ms"] < values["search_p50_ms"] {
				t.Errorf("search_p99_ms = %v, search_p50_ms = %v", values["search_p99_ms"], values["search_p50_ms"])
			}
			if _, ok := values["write_p99_ms"]; ok != (sp.writePct > 0) {
				t.Errorf("write rows present = %v on a workload with %d %% writes", ok, sp.writePct)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			v := runSmoke(t, smokeConfig(t), sp, true, b.PerLayer)
			// Self times are differences of neighbouring seams, so they add
			// back up to the round trip whatever their signs.
			sum := v["net.self_us"] + v["server.self_us"] + v["core.self_us"] + v["executor.search_us"]
			if math.Abs(sum-v["net.rtt_us"]) > 1e-6*v["net.rtt_us"] {
				t.Errorf("self times add up to %v us, net.rtt_us is %v", sum, v["net.rtt_us"])
			}
			if v["net.rtt_us"] <= 0 || v["index.comps_per_query"] <= 0 {
				t.Errorf("net.rtt_us = %v, index.comps_per_query = %v", v["net.rtt_us"], v["index.comps_per_query"])
			}
			if sp.writePct > 0 && v["core.recovered_fraction"] != 1 {
				t.Errorf("core.recovered_fraction = %v, want 1", v["core.recovered_fraction"])
			}
			if (sp.name == "ann_search") != (v["index.comps_ef64"] > 0) {
				t.Errorf("index.comps_ef64 = %v on %s", v["index.comps_ef64"], sp.name)
			}
		})
	}
}

// TestSameSeedSameInputs pins what makes two runs comparable: one seed
// gives the server byte-identical requests in the same order, and the
// counts of the traced run repeat exactly.
func TestSameSeedSameInputs(t *testing.T) {
	sp, _ := findSpec("ann_search")
	b := readBenchmarkJSON(t)
	var bodies [2][]byte
	var ops [2][]int32
	var counts [2]map[string]float64
	for i := range bodies {
		cfg := smokeConfig(t)
		f, err := setUp(cfg, sp, cfg.workdir)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := makeQueries(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := newClients(cfg, f, qs)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			bodies[i] = append(bodies[i], q.body...)
		}
		for _, c := range cs {
			ops[i] = append(ops[i], c.ops...)
		}
		if err := f.close(); err != nil {
			t.Fatal(err)
		}
		counts[i] = runSmoke(t, cfg, sp, true, b.PerLayer)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("the same seed encoded different request bodies")
	}
	if len(ops[0]) != len(ops[1]) {
		t.Fatal("the same seed gave operation sequences of different lengths")
	}
	for i := range ops[0] {
		if ops[0][i] != ops[1][i] {
			t.Fatalf("the same seed gave different operation sequences at %d", i)
		}
	}
	for _, name := range []string{
		"index.comps_ef16", "index.comps_ef64", "index.comps_ef256", "index.comps_per_query",
		"index.recall_ef16", "index.recall_ef64", "index.recall_ef256", "server.req_bytes", "server.resp_bytes",
	} {
		if counts[0][name] != counts[1][name] {
			t.Errorf("%s: %v then %v on the same seed", name, counts[0][name], counts[1][name])
		}
	}
}
