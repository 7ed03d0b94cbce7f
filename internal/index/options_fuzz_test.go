package index_test

import (
	"errors"
	"testing"
	"time"

	"vdbms/internal/dataset"
	"vdbms/internal/index"
)

// buildDeadline bounds one build and search in FuzzIndexOptions. A
// build at an option's Max on the fuzz target's 200 × 8 rows takes
// under a second; under the race detector the slowest (knng k = 64 and
// nsg r = 64, whose NN-Descent costs K² per row) take about 11 s on a
// 2-vCPU Xeon. A recipe that runs a build out of memory or time is what
// the deadline is there to catch.
const buildDeadline = 30 * time.Second

// FuzzIndexOptions builds a registered family with one option: one of
// the family's declared keys (fam picks the family, key the option) or,
// when key is past the declared ones, the arbitrary name. Under any
// metric of index.AnyMetric the build must fail with ErrOption or
// ErrMetric, or build an index whose search returns at most k distinct
// ids — within buildDeadline; a key the family does not declare must
// fail. The seeds put every declared key of every family at its Max and
// one past it, one undeclared key on each family, and then each key
// that some family declares on every family that does not, at its Max.
func FuzzIndexOptions(f *testing.F) {
	names := index.Names()
	for fam, name := range names {
		family, _ := index.Lookup(name)
		for key, o := range family.Options {
			f.Add(uint8(fam), uint8(0), uint8(key), "", int64(o.Max))
			if o != index.SeedOption {
				f.Add(uint8(fam), uint8(0), uint8(key), "", int64(o.Max)+1)
			}
		}
		f.Add(uint8(fam), uint8(0), uint8(len(family.Options)), "zz", int64(1))
	}
	for fam, name := range names {
		family, _ := index.Lookup(name)
		offered := map[string]bool{}
		for _, o := range family.Options {
			offered[o.Name] = true
		}
		for _, other := range names {
			sibling, _ := index.Lookup(other)
			for _, o := range sibling.Options {
				if !offered[o.Name] {
					offered[o.Name] = true
					f.Add(uint8(fam), uint8(0), uint8(len(family.Options)), o.Name, int64(o.Max))
				}
			}
		}
	}
	const n, dim, k = 200, 8, 10
	ds := dataset.Clustered(n, dim, 4, 0.3, 7)
	f.Fuzz(func(t *testing.T, fam, metric, key uint8, name string, value int64) {
		family, _ := index.Lookup(names[int(fam)%len(names)])
		m := index.AnyMetric[int(metric)%len(index.AnyMetric)]
		declared := int(key) < len(family.Options)
		if declared {
			name = family.Options[key].Name
		}
		for _, o := range family.Options {
			declared = declared || o.Name == name
		}
		opts := map[string]int{name: int(value)}
		type built struct {
			ids []int64
			err error
		}
		done := make(chan built, 1)
		go func() {
			idx, err := index.Build(family.Name, ds.Data, n, dim, m, opts)
			if err != nil {
				done <- built{err: err}
				return
			}
			res, err := idx.Search(ds.Row(3), k, index.Params{})
			ids := make([]int64, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			done <- built{ids, err}
		}()
		var b built
		select {
		case b = <-done:
		case <-time.After(buildDeadline):
			t.Fatalf("%s %v %v: no build within %v", family.Name, m, opts, buildDeadline)
		}
		switch {
		case errors.Is(b.err, index.ErrOption) || errors.Is(b.err, index.ErrMetric):
			return
		case b.err != nil:
			t.Fatalf("%s %v %v: %v, want nil, ErrOption or ErrMetric", family.Name, m, opts, b.err)
		case !declared:
			t.Fatalf("%s %v %v: built with a key it does not declare", family.Name, m, opts)
		}
		if len(b.ids) > k {
			t.Fatalf("%s %v %v: %d hits for k=%d", family.Name, m, opts, len(b.ids), k)
		}
		seen := map[int64]bool{}
		for _, id := range b.ids {
			if id < 0 || id >= n || seen[id] {
				t.Fatalf("%s %v %v: hits %v hold an id out of range or twice", family.Name, m, opts, b.ids)
			}
			seen[id] = true
		}
	})
}
