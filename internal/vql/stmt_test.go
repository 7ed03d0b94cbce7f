package vql

import (
	"strings"
	"testing"

	"vdbms"
)

func TestRunFullLifecycle(t *testing.T) {
	db := vdbms.New()

	res, err := Run(db, "CREATE COLLECTION docs DIM 4 METRIC 'l2' ATTR price float, brand string")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "create_collection" || !strings.Contains(res.Message, "docs") {
		t.Fatalf("create: %+v", res)
	}

	// Insert rows with and without SET.
	for i := 0; i < 20; i++ {
		res, err = Run(db, "INSERT INTO docs VECTOR [1, 2, 3, 4] SET price = 9.5, brand = 'acme'")
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != "insert" || res.ID != int64(i) {
			t.Fatalf("insert %d: %+v", i, res)
		}
	}

	res, err = Run(db, "CREATE INDEX hnsw ON docs WITH m = 4, efc = 16")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "create_index" {
		t.Fatalf("index: %+v", res)
	}
	col, _ := db.Collection("docs")
	if kind, _, _ := col.IndexInfo(); kind != "hnsw" {
		t.Fatalf("index kind %q", kind)
	}

	res, err = Run(db, "SELECT 3 FROM docs WHERE brand = 'acme' NEAR [1, 2, 3, 4] WITH ef = 32")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "select" || len(res.Search.Hits) != 3 {
		t.Fatalf("select: %+v", res)
	}

	res, err = Run(db, "DELETE FROM docs ID 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "delete" {
		t.Fatalf("delete: %+v", res)
	}
	if col.Len() != 19 {
		t.Fatalf("len after delete = %d", col.Len())
	}
}

func TestRunErrors(t *testing.T) {
	db := vdbms.New()
	Run(db, "CREATE COLLECTION c DIM 2") //nolint:errcheck
	cases := []string{
		"",
		"@",
		"DROP TABLE c",
		"CREATE TABLE c",
		"CREATE COLLECTION c DIM 2",                // duplicate
		"CREATE COLLECTION d DIM 'x'",              // non-integer dim
		"CREATE COLLECTION d DIM 2 METRIC 5",       // non-string metric
		"CREATE COLLECTION d DIM 2 BOGUS",          // unknown clause
		"CREATE INDEX hnsw ON missing",             // unknown collection
		"CREATE INDEX bogus ON c",                  // unknown index kind
		"CREATE INDEX hnsw ON c WITH m",            // missing =
		"CREATE INDEX hnsw ON c WITH m = 'x'",      // non-integer option
		"INSERT INTO missing VECTOR [1,2]",         // unknown collection
		"INSERT INTO c VECTOR [1]",                 // dim mismatch
		"INSERT INTO c VECTOR [1,2] SET a = 1",     // unknown column
		"INSERT INTO c VECTOR",                     // missing literal
		"DELETE FROM missing ID 0",                 // unknown collection
		"DELETE FROM c ID 99",                      // out of range
		"DELETE FROM c ID 'x'",                     // non-integer
		"SELECT 1 FROM missing NEAR [1,2]",         // unknown collection
		"INSERT INTO c VECTOR [1,2] SET a = [1,2]", // bad literal
	}
	for _, src := range cases {
		if _, err := Run(db, src); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}
