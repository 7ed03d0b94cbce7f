// Package vdbms is a vector database management system in pure Go,
// reproducing the architecture surveyed in "Vector Database Management
// Techniques and Systems" (Pan, Wang, Li — SIGMOD 2024): a query
// processor (similarity scores, k-NN / range / hybrid / batched /
// multi-vector queries, cost-based plan selection on measured inputs,
// hybrid scan operators) over a storage manager (the table, tree and
// graph ANN index families IndexKinds lists, quantization, an mmap
// tier, out-of-place updates, and distributed scatter-gather).
//
// The entry point is a DB holding named collections:
//
//	db := vdbms.New()
//	col, _ := db.CreateCollection("products", vdbms.Schema{
//		Dim:    128,
//		Metric: "l2",
//		Attributes: map[string]string{"price": "float", "brand": "string"},
//	})
//	id, _ := col.Insert(vec, map[string]any{"price": 9.99, "brand": "acme"})
//	_ = col.CreateIndex("hnsw", map[string]int{"m": 16})
//	hits, _ := col.Search(vdbms.SearchRequest{
//		Vector:  q,
//		K:       10,
//		Filters: []vdbms.Filter{{Column: "price", Op: "<", Value: 20.0}},
//	})
//
// Writes are out of place (Section 2.3(3) of the paper): Delete hides a
// row, and Collection.Compact drops the deleted rows while every id
// keeps naming its vector.
package vdbms

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"vdbms/internal/core"
	"vdbms/internal/memory"
)

// DB is a registry of named collections. The zero value is not usable;
// construct with New (in-memory) or Open (durable, backed by a data
// directory).
type DB struct {
	mu          sync.RWMutex
	collections map[string]*Collection
	// creating reserves names whose collection is still being built, so
	// two concurrent creators never both touch dir/<name> on disk.
	creating map[string]struct{}

	// dir is the data directory of a durable DB ("" for in-memory);
	// each collection owns the subdirectory dir/<name>.
	dir string
	dur core.DurabilityOptions

	// recall, when set by DB.EnableRecall, is applied to every
	// collection created or restored afterwards.
	recall *RecallOptions

	// mem/memSpill, when set by DB.EnableMemoryBudget, put every current
	// and future collection under the process memory budget.
	mem      *memory.Manager
	memSpill string
}

// New creates an empty in-memory database: fast, but nothing survives
// the process. Use Open for a durable one.
func New() *DB {
	return &DB{
		collections: map[string]*Collection{},
		creating:    map[string]struct{}{},
	}
}

// CreateCollection registers a new collection under name. On a durable
// DB the collection gets its own write-ahead log under the data
// directory, and the name must be usable as a directory name.
func (db *DB) CreateCollection(name string, schema Schema) (*Collection, error) {
	if db.dir != "" {
		if err := validCollectionDirName(name); err != nil {
			return nil, err
		}
	}
	// Reserve the name before any filesystem work: durable creation
	// writes WAL segments under dir/<name>, and two creators racing in
	// that directory could unlink each other's freshly-headered active
	// segment — the registry must arbitrate first, not after.
	db.mu.Lock()
	_, dup := db.collections[name]
	_, busy := db.creating[name]
	if dup || busy {
		db.mu.Unlock()
		return nil, fmt.Errorf("vdbms: collection %q already exists", name)
	}
	db.creating[name] = struct{}{}
	db.mu.Unlock()

	var col *Collection
	cs, err := parseSchema(schema)
	if err == nil {
		var inner *core.Collection
		if db.dir == "" {
			inner, err = core.NewCollection(name, cs)
		} else {
			inner, err = core.CreateDurable(filepath.Join(db.dir, name), name, cs, db.dur)
		}
		if err == nil {
			col = &Collection{inner: inner}
		}
	}

	db.mu.Lock()
	delete(db.creating, name)
	recall := db.recall
	mem, memSpill := db.mem, db.memSpill
	if err == nil {
		db.collections[name] = col
	}
	db.mu.Unlock()
	if err == nil && recall != nil {
		col.EnableRecall(*recall)
	}
	if err == nil && mem != nil {
		if aerr := col.inner.AttachMemory(mem, memSpill); aerr != nil {
			// The collection still works, just unmanaged; surface the
			// attach failure rather than dropping a usable collection.
			return col, fmt.Errorf("vdbms: attaching %q to memory budget: %w", name, aerr)
		}
	}
	return col, err
}

// Collection returns a collection by name.
func (db *DB) Collection(name string) (*Collection, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	col, ok := db.collections[name]
	if !ok {
		return nil, fmt.Errorf("vdbms: unknown collection %q", name)
	}
	return col, nil
}

// DropCollection removes a collection. On a durable DB its WAL and
// checkpoints are deleted too — a drop is permanent.
func (db *DB) DropCollection(name string) error {
	db.mu.Lock()
	col, ok := db.collections[name]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("vdbms: unknown collection %q", name)
	}
	delete(db.collections, name)
	db.mu.Unlock()
	if db.dir == "" {
		return nil
	}
	// Remove the directory even when Close fails (e.g. a final
	// checkpoint write error): the files are being deleted anyway, and
	// returning early would leave them behind to resurrect the
	// "permanently dropped" collection on the next Open.
	cerr := col.inner.Close()
	rerr := os.RemoveAll(filepath.Join(db.dir, name))
	return errors.Join(cerr, rerr)
}

// Collections lists collection names in sorted order.
func (db *DB) Collections() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.collections))
	for n := range db.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
