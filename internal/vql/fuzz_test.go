package vql

import "testing"

// FuzzVQL parses arbitrary text. Parse must return an error or a
// statement that names a collection and asks for a positive k near a
// vector — never panic.
func FuzzVQL(f *testing.F) {
	for _, seed := range []string{
		"SELECT 10 FROM products WHERE price < 20.5 AND brand = 'acme' AND cat IN (1, 2, 3) NEAR [0.1, -2, 3e1] WITH ef = 100, policy = 'plan:single_stage'",
		"SELECT 1 FROM c WHERE x != 5 NEAR [1]",
		"SELECT 3 FROM c NEAR [1e-3, +2, .5] WITH nprobe = 4, alpha = 1.5",
		"SELECT 2 FROM c WHERE s IN ('a', 'b') NEAR []",
		"SELECT",
		"'unterminated",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		name, req, err := Parse(q)
		if err != nil {
			return
		}
		if name == "" || req.K <= 0 || req.Vector == nil {
			t.Fatalf("Parse(%q) = %q, k %d, vector %v: accepted without a collection, k and vector", q, name, req.K, req.Vector)
		}
	})
}
