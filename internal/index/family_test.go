package index_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
	"vdbms/internal/tuner"
	"vdbms/internal/vec"
)

// TestDeclaredKnobMovesWork holds every family's declared knob to the
// work it buys: over the same queries, the bottom rung of the knob's
// ladder must do fewer distance computations than the top rung. A
// family declared on a knob its Search never reads does the same work
// at both, and the recall loop would tune a rung that changes nothing.
// An exhaustive family (flat) scores every row at both rungs and has
// no work to trade.
func TestDeclaredKnobMovesWork(t *testing.T) {
	const (
		n, dim = 2000, 16
		k, nq  = 10, 5
	)
	ds := dataset.Clustered(n, dim, 8, 0.3, 5)
	qs := ds.Queries(nq, 0.05, 9)
	for _, name := range index.Names() {
		fam, _ := index.Lookup(name)
		idx, err := index.Build(name, ds.Data, n, dim, vec.L2, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comps := func(param int) int64 {
			p := index.Params{Ef: param}
			if fam.Knob == tuner.KnobNProbe {
				p = index.Params{NProbe: param}
			}
			var st index.SearchStats
			p.Stats = &st
			for _, q := range qs {
				if _, err := idx.Search(q, k, p); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			return st.DistanceComps
		}
		ladder := tuner.Ladder(fam.Knob)
		lo, hi := comps(ladder[0]), comps(ladder[len(ladder)-1])
		t.Logf("%s: %v %d..%d: %d..%d distance comps", name, fam.Knob, ladder[0], ladder[len(ladder)-1], lo, hi)
		if lo == n*nq && hi == n*nq {
			continue
		}
		if lo >= hi {
			t.Errorf("%s: %v=%d does %d distance comps, %v=%d does %d: the declared knob does not move the work",
				name, fam.Knob, ladder[0], lo, fam.Knob, ladder[len(ladder)-1], hi)
		}
	}
}

// metricsCell renders a family's declared metrics as the README
// capability matrix prints them.
func metricsCell(ms []vec.Metric) string {
	if fmt.Sprint(ms) == fmt.Sprint(index.AnyMetric) {
		return "any"
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.String()
	}
	return strings.Join(names, ", ")
}

// quantCell renders what a family's declared options let the schema's
// quantization default fold in: the whole codec set, the re-rank width
// alone, or nothing.
func quantCell(f index.Family) string {
	cell := "none"
	for _, o := range f.Options {
		switch {
		case o.Name == "quant":
			return "sq8/pq/opq"
		case o.Name == "rerank_k":
			cell = "rerank"
		}
	}
	return cell
}

// optionsCell renders a family's declared options: each key with its
// upper bound (every lower bound is 0), a seed bare.
func optionsCell(f index.Family) string {
	cells := make([]string, len(f.Options))
	for i, o := range f.Options {
		switch {
		case o == index.SeedOption:
			cells[i] = "`seed`"
		case o.Min != 0:
			panic(fmt.Sprintf("%s option %q: the README renders lower bound 0 only", f.Name, o.Name))
		default:
			cells[i] = fmt.Sprintf("`%s` ≤ %d", o.Name, o.Max)
		}
	}
	return strings.Join(cells, ", ")
}

// TestReadmeCapabilityMatrix renders the knob, metrics, quant and
// options columns of the README "Index families" table from the
// registry and compares them with the table's rows: one row per
// registered family, and no row for a name the registry does not know.
func TestReadmeCapabilityMatrix(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	start := strings.Index(text, "### Index families")
	if start < 0 {
		t.Fatal(`README has no "### Index families" section`)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(text[start:], "\n")[1:] {
		if strings.HasPrefix(line, "#") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 8 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows[name] = strings.Join(cells[3:7], " | ")
	}
	for _, name := range index.Names() {
		fam, _ := index.Lookup(name)
		want := strings.Join([]string{fam.Knob.String(), metricsCell(fam.Metrics), quantCell(fam), optionsCell(fam)}, " | ")
		got, ok := rows[name]
		if !ok {
			t.Errorf("README index families table has no row for %q; want knob | metrics | quant | options = %s", name, want)
			continue
		}
		if got != want {
			t.Errorf("README row %q reads %q; the registry declares %q", name, got, want)
		}
		delete(rows, name)
	}
	for name := range rows {
		t.Errorf("README index families table lists %q, which is not registered", name)
	}
}

// TestSizeIsRowsCovered: every registered family reports as its Size
// the rows it was built over, before and after a Remap onto a longer
// column, and never returns an id past them; a family that extends
// (index.Extendable) onto the longer column reports and returns every
// row of it. The executor scans the rows from Size on as the unindexed
// tail, so a family that miscounted would drop rows from every answer
// or score some twice.
func TestSizeIsRowsCovered(t *testing.T) {
	const n, dim = 600, 8
	ds := dataset.Clustered(2*n, dim, 4, 0.3, 7)
	qs := ds.Queries(5, 0.05, 11)
	type covering struct {
		ix   index.Index
		rows int
	}
	for _, name := range index.Names() {
		idx, err := index.Build(name, ds.Data[:n*dim], n, dim, vec.L2, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		idxs := []covering{{idx, n}}
		if r, ok := idx.(index.Remappable); ok {
			if moved, ok := r.Remap(ds.Data); ok {
				idxs = append(idxs, covering{moved, n})
			}
		}
		if e, ok := idx.(index.Extendable); ok {
			if grown, ok := e.Extend(ds.Data, 2*n); ok {
				idxs = append(idxs, covering{grown, 2 * n})
			}
		}
		for _, c := range idxs {
			if c.ix.Size() != c.rows {
				t.Fatalf("%s: Size %d over %d rows", name, c.ix.Size(), c.rows)
			}
			for _, q := range qs {
				res, err := c.ix.Search(q, 2*c.rows, index.Params{Ef: 2 * c.rows, NProbe: 1 << 10})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, r := range res {
					if r.ID < 0 || r.ID >= int64(c.rows) {
						t.Fatalf("%s: id %d outside the %d rows it covers", name, r.ID, c.rows)
					}
				}
				if c.rows > n && len(res) != c.rows {
					t.Fatalf("%s: %d hits of the %d rows it was extended over", name, len(res), c.rows)
				}
			}
		}
	}
}
