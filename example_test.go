package vdbms_test

import (
	"fmt"

	"vdbms"
)

// The godoc examples double as executable documentation for the main
// workflows: plain search, hybrid search, the query planner, and the
// dynamic (LSM) collection.

func ExampleDB_CreateCollection() {
	db := vdbms.New()
	col, err := db.CreateCollection("docs", vdbms.Schema{Dim: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(col.Name(), col.Dim())
	// Output: docs 2
}

func ExampleCollection_Search() {
	db := vdbms.New()
	col, _ := db.CreateCollection("points", vdbms.Schema{Dim: 2})
	col.Insert([]float32{0, 0}, nil) // id 0
	col.Insert([]float32{1, 1}, nil) // id 1
	col.Insert([]float32{9, 9}, nil) // id 2

	res, _ := col.Search(vdbms.SearchRequest{Vector: []float32{0.9, 0.9}, K: 2})
	for _, h := range res.Hits {
		fmt.Println(h.ID)
	}
	// Output:
	// 1
	// 0
}

func ExampleCollection_Search_hybrid() {
	db := vdbms.New()
	col, _ := db.CreateCollection("products", vdbms.Schema{
		Dim:        2,
		Attributes: map[string]string{"price": "float"},
	})
	col.Insert([]float32{0, 0}, map[string]any{"price": 5.0})  // id 0
	col.Insert([]float32{0, 1}, map[string]any{"price": 50.0}) // id 1
	col.Insert([]float32{1, 0}, map[string]any{"price": 7.0})  // id 2

	res, _ := col.Search(vdbms.SearchRequest{
		Vector:  []float32{0, 0},
		K:       2,
		Filters: []vdbms.Filter{{Column: "price", Op: "<", Value: 10.0}},
	})
	for _, h := range res.Hits {
		fmt.Println(h.ID)
	}
	// Output:
	// 0
	// 2
}

func ExampleCollection_Search_rangePages() {
	db := vdbms.New()
	col, _ := db.CreateCollection("stream", vdbms.Schema{Dim: 1})
	for i := 0; i < 5; i++ {
		col.Insert([]float32{float32(i)}, nil)
	}
	// The rows within squared distance 9 of the query, two at a time:
	// each page passes the last hit of the page before as its cursor.
	req := vdbms.SearchRequest{Vector: []float32{0}, K: 2, Radius: 9}
	for {
		res, _ := col.Search(req)
		if len(res.Hits) == 0 {
			break
		}
		fmt.Println(res.Hits)
		req.After = &res.Hits[len(res.Hits)-1]
	}
	// Output:
	// [{0 0} {1 1}]
	// [{2 4} {3 9}]
}
