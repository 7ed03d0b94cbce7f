// Package vql implements a small query language for the VDBMS — the
// "SQL extension" style of query interface of Section 2.1 that
// extended systems (pgvector, PASE) expose, scaled down to this
// engine's capabilities:
//
//	SELECT 10 FROM products
//	  WHERE price < 20 AND brand = 'acme'
//	  NEAR [0.12, 0.9, ...]
//	  WITH ef = 100, policy = 'plan:single_stage'
//
// Clauses: SELECT <k>, FROM <collection>, optional WHERE with AND-ed
// comparisons (=, !=, <, <=, >, >=, IN (...)), NEAR <vector literal>,
// optional WITH for knobs (ef, nprobe, alpha, policy). policy is
// SearchRequest.Policy: omit it for the cost-based optimizer, or force
// a plan with 'plan:<kind>'.
package vql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"vdbms"
)

// Parse compiles one SELECT statement into the collection it reads and
// the search request it runs there.
func Parse(input string) (string, vdbms.SearchRequest, error) {
	toks, err := lex(input)
	if err != nil {
		return "", vdbms.SearchRequest{}, err
	}
	p := &parser{toks: toks}
	name, req, err := p.query()
	if err != nil {
		return "", vdbms.SearchRequest{}, fmt.Errorf("vql: %w", err)
	}
	return name, req, nil
}

type tokKind int

const (
	tokWord tokKind = iota
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string
}

func lex(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			for j < len(s) && s[j] != '\'' {
				j++
			}
			if j == len(s) {
				return nil, fmt.Errorf("vql: unterminated string at %d", i)
			}
			toks = append(toks, token{tokString, s[i+1 : j]})
			i = j + 1
		case unicode.IsDigit(c) || c == '-' || c == '+' || c == '.':
			j := i
			if s[j] == '-' || s[j] == '+' {
				j++
			}
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.' || s[j] == 'e' || s[j] == 'E' ||
				((s[j] == '-' || s[j] == '+') && (s[j-1] == 'e' || s[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, token{tokNumber, s[i:j]})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(s) && (unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j])) || s[j] == '_') {
				j++
			}
			toks = append(toks, token{tokWord, s[i:j]})
			i = j
		default:
			// multi-char operators
			if i+1 < len(s) {
				two := s[i : i+2]
				if two == "<=" || two == ">=" || two == "!=" || two == "==" {
					toks = append(toks, token{tokSymbol, two})
					i += 2
					continue
				}
			}
			switch c {
			case '[', ']', '(', ')', ',', '=', '<', '>':
				toks = append(toks, token{tokSymbol, string(c)})
				i++
			default:
				return nil, fmt.Errorf("vql: unexpected character %q at %d", c, i)
			}
		}
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) next() (token, error) {
	t, ok := p.peek()
	if !ok {
		return token{}, fmt.Errorf("unexpected end of query")
	}
	p.pos++
	return t, nil
}

func (p *parser) expectWord(word string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.kind != tokWord || !strings.EqualFold(t.text, word) {
		return fmt.Errorf("expected %s, got %q", word, t.text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("expected %q, got %q", sym, t.text)
	}
	return nil
}

// query parses a SELECT statement: the collection it names and the
// request it asks for.
func (p *parser) query() (string, vdbms.SearchRequest, error) {
	var req vdbms.SearchRequest
	if err := p.expectWord("SELECT"); err != nil {
		return "", req, err
	}
	kt, err := p.next()
	if err != nil {
		return "", req, err
	}
	if kt.kind != tokNumber {
		return "", req, fmt.Errorf("SELECT needs a result count, got %q", kt.text)
	}
	k, err := strconv.Atoi(kt.text)
	if err != nil || k <= 0 {
		return "", req, fmt.Errorf("bad k %q", kt.text)
	}
	req.K = k
	if err := p.expectWord("FROM"); err != nil {
		return "", req, err
	}
	ct, err := p.next()
	if err != nil {
		return "", req, err
	}
	if ct.kind != tokWord {
		return "", req, fmt.Errorf("FROM needs a collection name, got %q", ct.text)
	}

	for {
		t, ok := p.peek()
		if !ok {
			break
		}
		if t.kind != tokWord {
			return "", req, fmt.Errorf("expected clause keyword, got %q", t.text)
		}
		switch strings.ToUpper(t.text) {
		case "WHERE":
			p.pos++
			if err := p.where(&req); err != nil {
				return "", req, err
			}
		case "NEAR":
			p.pos++
			v, err := p.vector()
			if err != nil {
				return "", req, err
			}
			req.Vector = v
		case "WITH":
			p.pos++
			if err := p.with(&req); err != nil {
				return "", req, err
			}
		default:
			return "", req, fmt.Errorf("unknown clause %q", t.text)
		}
	}
	if req.Vector == nil {
		return "", req, fmt.Errorf("missing NEAR clause")
	}
	return ct.text, req, nil
}

func (p *parser) where(req *vdbms.SearchRequest) error {
	for {
		f, err := p.condition()
		if err != nil {
			return err
		}
		req.Filters = append(req.Filters, f)
		t, ok := p.peek()
		if !ok || t.kind != tokWord || !strings.EqualFold(t.text, "AND") {
			return nil
		}
		p.pos++
	}
}

func (p *parser) condition() (vdbms.Filter, error) {
	col, err := p.next()
	if err != nil {
		return vdbms.Filter{}, err
	}
	if col.kind != tokWord {
		return vdbms.Filter{}, fmt.Errorf("expected column name, got %q", col.text)
	}
	opTok, err := p.next()
	if err != nil {
		return vdbms.Filter{}, err
	}
	if opTok.kind == tokWord && strings.EqualFold(opTok.text, "IN") {
		if err := p.expectSymbol("("); err != nil {
			return vdbms.Filter{}, err
		}
		var set []any
		for {
			lit, err := p.literal()
			if err != nil {
				return vdbms.Filter{}, err
			}
			set = append(set, lit)
			t, err := p.next()
			if err != nil {
				return vdbms.Filter{}, err
			}
			if t.text == ")" {
				break
			}
			if t.text != "," {
				return vdbms.Filter{}, fmt.Errorf("expected , or ) in IN list, got %q", t.text)
			}
		}
		return vdbms.Filter{Column: col.text, Op: "in", Set: set}, nil
	}
	if opTok.kind != tokSymbol {
		return vdbms.Filter{}, fmt.Errorf("expected operator after %q, got %q", col.text, opTok.text)
	}
	op := opTok.text
	if op == "==" {
		op = "="
	}
	val, err := p.literal()
	if err != nil {
		return vdbms.Filter{}, err
	}
	return vdbms.Filter{Column: col.text, Op: op, Value: val}, nil
}

// literal returns a string, int, or float64.
func (p *parser) literal() (any, error) {
	t, err := p.next()
	if err != nil {
		return nil, err
	}
	switch t.kind {
	case tokString:
		return t.text, nil
	case tokNumber:
		if !strings.ContainsAny(t.text, ".eE") {
			if i, err := strconv.Atoi(t.text); err == nil {
				return i, nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", t.text)
		}
		return f, nil
	default:
		return nil, fmt.Errorf("expected literal, got %q", t.text)
	}
}

func (p *parser) vector() ([]float32, error) {
	if err := p.expectSymbol("["); err != nil {
		return nil, err
	}
	var out []float32
	for {
		t, err := p.next()
		if err != nil {
			return nil, err
		}
		if t.text == "]" {
			break
		}
		if t.text == "," {
			continue
		}
		if t.kind != tokNumber {
			return nil, fmt.Errorf("expected number in vector, got %q", t.text)
		}
		f, err := strconv.ParseFloat(t.text, 32)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", t.text)
		}
		out = append(out, float32(f))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty vector literal")
	}
	return out, nil
}

func (p *parser) with(req *vdbms.SearchRequest) error {
	for {
		key, err := p.next()
		if err != nil {
			return err
		}
		if key.kind != tokWord {
			return fmt.Errorf("expected option name, got %q", key.text)
		}
		if err := p.expectSymbol("="); err != nil {
			return err
		}
		val, err := p.literal()
		if err != nil {
			return err
		}
		switch strings.ToLower(key.text) {
		case "ef":
			i, ok := val.(int)
			if !ok {
				return fmt.Errorf("ef must be an integer")
			}
			req.Ef = i
		case "nprobe":
			i, ok := val.(int)
			if !ok {
				return fmt.Errorf("nprobe must be an integer")
			}
			req.NProbe = i
		case "alpha":
			i, ok := val.(int)
			if !ok {
				return fmt.Errorf("alpha must be an integer")
			}
			req.Alpha = i
		case "policy":
			s, ok := val.(string)
			if !ok {
				return fmt.Errorf("policy must be a string")
			}
			req.Policy = s
		default:
			return fmt.Errorf("unknown option %q", key.text)
		}
		t, ok := p.peek()
		if !ok || t.text != "," {
			return nil
		}
		p.pos++
	}
}
