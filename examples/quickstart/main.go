// Quickstart: create a collection, insert vectors with attributes,
// build an HNSW index, and run plain, hybrid, and range queries.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"vdbms"
)

func main() {
	db := vdbms.New()
	col, err := db.CreateCollection("docs", vdbms.Schema{
		Dim:    64,
		Metric: "l2",
		Attributes: map[string]string{
			"lang":  "string",
			"year":  "int",
			"score": "float",
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Insert 5000 synthetic "document embeddings": three language
	// clusters with per-document jitter.
	rng := rand.New(rand.NewSource(42))
	langs := []string{"en", "de", "fr"}
	centers := make([][]float32, len(langs))
	for i := range centers {
		centers[i] = make([]float32, 64)
		for j := range centers[i] {
			centers[i][j] = rng.Float32() * 10
		}
	}
	for i := 0; i < 5000; i++ {
		li := i % len(langs)
		v := make([]float32, 64)
		for j := range v {
			v[j] = centers[li][j] + float32(rng.NormFloat64())*0.5
		}
		if _, err := col.Insert(v, map[string]any{
			"lang":  langs[li],
			"year":  2015 + i%10,
			"score": rng.Float64(),
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("inserted %d vectors into %q\n", col.Len(), col.Name())

	if err := col.CreateIndex("hnsw", map[string]int{"m": 16}); err != nil {
		log.Fatal(err)
	}
	kind, covered, _ := col.IndexInfo()
	fmt.Printf("index: %s over %d rows (families available: %v)\n", kind, covered, vdbms.IndexKinds())

	// Plain k-NN: perturb a stored vector and look it up.
	q, _, err := col.Get(123)
	if err != nil {
		log.Fatal(err)
	}
	q[0] += 0.01
	res, err := col.Search(vdbms.SearchRequest{Vector: q, K: 5, Ef: 100})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplain 5-NN (plan=%s):\n", res.Plan)
	for _, h := range res.Hits {
		fmt.Printf("  id=%-5d dist=%.4f\n", h.ID, h.Dist)
	}

	// Hybrid query: same vector, but only German documents after 2020.
	// The optimizer picks the plan; the response reports which one.
	res, err = col.Search(vdbms.SearchRequest{
		Vector: q,
		K:      5,
		Filters: []vdbms.Filter{
			{Column: "lang", Op: "=", Value: "de"},
			{Column: "year", Op: ">=", Value: 2021},
		},
		Ef: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhybrid 5-NN, lang=de AND year>=2021 (plan=%s):\n", res.Plan)
	for _, h := range res.Hits {
		_, attrs, _ := col.Get(h.ID)
		fmt.Printf("  id=%-5d dist=%.4f lang=%v year=%v\n", h.ID, h.Dist, attrs["lang"], attrs["year"])
	}

	// Range query: the nearest rows within a squared-distance threshold,
	// K of them at most, nearest first.
	res, err = col.Search(vdbms.SearchRequest{Vector: q, K: col.Len(), Radius: 5.0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrange query (r^2=5.0, plan=%s): %d vectors in range\n", res.Plan, len(res.Hits))

	// Incremental paging (Section 2.6(5) of the paper): each page passes
	// the previous page's last hit back as its cursor.
	page1, err := col.Search(vdbms.SearchRequest{Vector: q, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	last := page1.Hits[len(page1.Hits)-1]
	page2, err := col.Search(vdbms.SearchRequest{Vector: q, K: 3, After: &last})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nincremental pages: %v then %v\n", ids(page1.Hits), ids(page2.Hits))
}

func ids(hits []vdbms.Hit) []int64 {
	out := make([]int64, len(hits))
	for i, h := range hits {
		out[i] = h.ID
	}
	return out
}
