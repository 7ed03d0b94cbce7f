package vql

import (
	"fmt"
	"strings"

	"vdbms"
)

// Statements beyond SELECT make vql a complete data-definition and
// manipulation interface (the extended-system style of Section 2.4,
// where the query language grows vector operators):
//
//	CREATE COLLECTION docs DIM 64 METRIC 'cosine' ATTR price float, brand string
//	CREATE INDEX hnsw ON docs WITH m = 16
//	INSERT INTO docs VECTOR [0.1, ...] SET price = 9.5, brand = 'acme'
//	DELETE FROM docs ID 42
//	SELECT 10 FROM docs WHERE price < 20 NEAR [...] WITH ef = 100
//
// Run parses and executes any statement; Parse compiles a SELECT alone.

// Result is the outcome of Run: exactly one field is meaningful per
// statement kind.
type Result struct {
	// Kind is "select", "create_collection", "create_index",
	// "insert", or "delete".
	Kind string
	// Search holds SELECT results.
	Search vdbms.SearchResult
	// ID is the assigned id for INSERT.
	ID int64
	// Message summarizes DDL outcomes.
	Message string
}

// Run parses and executes one statement against the database.
func Run(db *vdbms.DB, input string) (Result, error) {
	toks, err := lex(input)
	if err != nil {
		return Result{}, err
	}
	if len(toks) == 0 {
		return Result{}, fmt.Errorf("vql: empty statement")
	}
	p := &parser{toks: toks}
	head, _ := p.peek()
	switch strings.ToUpper(head.text) {
	case "SELECT":
		name, req, err := p.query()
		if err != nil {
			return Result{}, fmt.Errorf("vql: %w", err)
		}
		col, err := db.Collection(name)
		if err != nil {
			return Result{}, err
		}
		res, err := col.Search(req)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: "select", Search: res}, nil
	case "CREATE":
		return p.create(db)
	case "INSERT":
		return p.insert(db)
	case "DELETE":
		return p.delete(db)
	default:
		return Result{}, fmt.Errorf("vql: unknown statement %q", head.text)
	}
}

func (p *parser) create(db *vdbms.DB) (Result, error) {
	if err := p.expectWord("CREATE"); err != nil {
		return Result{}, err
	}
	kind, err := p.next()
	if err != nil {
		return Result{}, err
	}
	switch strings.ToUpper(kind.text) {
	case "COLLECTION":
		return p.createCollection(db)
	case "INDEX":
		return p.createIndex(db)
	default:
		return Result{}, fmt.Errorf("vql: CREATE %s not supported", kind.text)
	}
}

func (p *parser) createCollection(db *vdbms.DB) (Result, error) {
	name, err := p.word("collection name")
	if err != nil {
		return Result{}, err
	}
	if err := p.expectWord("DIM"); err != nil {
		return Result{}, err
	}
	dim, err := p.intLit("dimension")
	if err != nil {
		return Result{}, err
	}
	schema := vdbms.Schema{Dim: dim, Attributes: map[string]string{}}
	for {
		t, ok := p.peek()
		if !ok {
			break
		}
		switch strings.ToUpper(t.text) {
		case "METRIC":
			p.pos++
			lit, err := p.literal()
			if err != nil {
				return Result{}, err
			}
			s, ok := lit.(string)
			if !ok {
				return Result{}, fmt.Errorf("vql: METRIC needs a string")
			}
			schema.Metric = s
		case "ATTR":
			p.pos++
			for {
				col, err := p.word("attribute name")
				if err != nil {
					return Result{}, err
				}
				typ, err := p.word("attribute type")
				if err != nil {
					return Result{}, err
				}
				schema.Attributes[col] = strings.ToLower(typ)
				nt, ok := p.peek()
				if !ok || nt.text != "," {
					break
				}
				p.pos++
			}
		default:
			return Result{}, fmt.Errorf("vql: unexpected %q in CREATE COLLECTION", t.text)
		}
	}
	if _, err := db.CreateCollection(name, schema); err != nil {
		return Result{}, err
	}
	return Result{Kind: "create_collection", Message: fmt.Sprintf("created collection %q (dim %d)", name, dim)}, nil
}

func (p *parser) createIndex(db *vdbms.DB) (Result, error) {
	kind, err := p.word("index kind")
	if err != nil {
		return Result{}, err
	}
	if err := p.expectWord("ON"); err != nil {
		return Result{}, err
	}
	name, err := p.word("collection name")
	if err != nil {
		return Result{}, err
	}
	opts := map[string]int{}
	if t, ok := p.peek(); ok && strings.EqualFold(t.text, "WITH") {
		p.pos++
		for {
			key, err := p.word("option name")
			if err != nil {
				return Result{}, err
			}
			if err := p.expectSymbol("="); err != nil {
				return Result{}, err
			}
			val, err := p.intLit("option value")
			if err != nil {
				return Result{}, err
			}
			opts[strings.ToLower(key)] = val
			nt, ok := p.peek()
			if !ok || nt.text != "," {
				break
			}
			p.pos++
		}
	}
	col, err := db.Collection(name)
	if err != nil {
		return Result{}, err
	}
	if err := col.CreateIndex(kind, opts); err != nil {
		return Result{}, err
	}
	return Result{Kind: "create_index", Message: fmt.Sprintf("built %s index on %q", kind, name)}, nil
}

func (p *parser) insert(db *vdbms.DB) (Result, error) {
	if err := p.expectWord("INSERT"); err != nil {
		return Result{}, err
	}
	if err := p.expectWord("INTO"); err != nil {
		return Result{}, err
	}
	name, err := p.word("collection name")
	if err != nil {
		return Result{}, err
	}
	if err := p.expectWord("VECTOR"); err != nil {
		return Result{}, err
	}
	v, err := p.vector()
	if err != nil {
		return Result{}, err
	}
	var attrs map[string]any
	if t, ok := p.peek(); ok && strings.EqualFold(t.text, "SET") {
		p.pos++
		attrs = map[string]any{}
		for {
			col, err := p.word("attribute name")
			if err != nil {
				return Result{}, err
			}
			if err := p.expectSymbol("="); err != nil {
				return Result{}, err
			}
			val, err := p.literal()
			if err != nil {
				return Result{}, err
			}
			attrs[col] = val
			nt, ok := p.peek()
			if !ok || nt.text != "," {
				break
			}
			p.pos++
		}
	}
	col, err := db.Collection(name)
	if err != nil {
		return Result{}, err
	}
	id, err := col.Insert(v, attrs)
	if err != nil {
		return Result{}, err
	}
	return Result{Kind: "insert", ID: id}, nil
}

func (p *parser) delete(db *vdbms.DB) (Result, error) {
	if err := p.expectWord("DELETE"); err != nil {
		return Result{}, err
	}
	if err := p.expectWord("FROM"); err != nil {
		return Result{}, err
	}
	name, err := p.word("collection name")
	if err != nil {
		return Result{}, err
	}
	if err := p.expectWord("ID"); err != nil {
		return Result{}, err
	}
	id, err := p.intLit("id")
	if err != nil {
		return Result{}, err
	}
	col, err := db.Collection(name)
	if err != nil {
		return Result{}, err
	}
	if err := col.Delete(int64(id)); err != nil {
		return Result{}, err
	}
	return Result{Kind: "delete", Message: fmt.Sprintf("deleted id %d from %q", id, name)}, nil
}

// word consumes an identifier token.
func (p *parser) word(what string) (string, error) {
	t, err := p.next()
	if err != nil {
		return "", err
	}
	if t.kind != tokWord {
		return "", fmt.Errorf("vql: expected %s, got %q", what, t.text)
	}
	return t.text, nil
}

// intLit consumes an integer literal.
func (p *parser) intLit(what string) (int, error) {
	lit, err := p.literal()
	if err != nil {
		return 0, err
	}
	i, ok := lit.(int)
	if !ok {
		return 0, fmt.Errorf("vql: %s must be an integer", what)
	}
	return i, nil
}
