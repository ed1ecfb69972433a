package template

import (
	"fmt"
	"os"
	"strconv"
)

// parser turns a token stream into a Template. The grammar:
//
//	file     := template
//	template := "template" IDENT "{" param* "}"
//	param    := weight | range
//	weight   := "weight" IDENT "{" entry* "}"
//	entry    := (IDENT | subrange) ":" weightVal ";"
//	subrange := "[" NUMBER ":" NUMBER "]"
//	range    := "range" IDENT "[" NUMBER ":" NUMBER "]" ";"
//	weightVal:= NUMBER                  (a skeleton's mark "<?>" is refused)
type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, fmt.Errorf("%d:%d: expected %s, found %s %q",
			p.tok.line, p.tok.col, kind, p.tok.kind, p.tok.text)
	}
	tok := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return tok, nil
}

func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokIdent || p.tok.text != kw {
		return fmt.Errorf("%d:%d: expected %q, found %q", p.tok.line, p.tok.col, kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) number() (int, error) {
	tok, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(tok.text)
	if err != nil {
		return 0, fmt.Errorf("%d:%d: bad number %q: %v", tok.line, tok.col, tok.text, err)
	}
	return n, nil
}

func (p *parser) parseTemplate() (*Template, error) {
	if err := p.expectKeyword("template"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	t := &Template{Name: name.text}
	seen := map[string]bool{}
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, fmt.Errorf("%d:%d: unexpected end of input inside template %q", p.tok.line, p.tok.col, t.Name)
		}
		param, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		if seen[param.ParamName()] {
			return nil, fmt.Errorf("template %q: duplicate parameter %q", t.Name, param.ParamName())
		}
		seen[param.ParamName()] = true
		t.Params = append(t.Params, param)
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("%d:%d: unexpected %s after template body", p.tok.line, p.tok.col, p.tok.kind)
	}
	return t, nil
}

func (p *parser) parseParam() (Param, error) {
	if p.tok.kind != tokIdent {
		return nil, fmt.Errorf("%d:%d: expected 'weight' or 'range', found %s %q",
			p.tok.line, p.tok.col, p.tok.kind, p.tok.text)
	}
	switch p.tok.text {
	case "weight":
		return p.parseWeight()
	case "range":
		return p.parseRange()
	default:
		return nil, fmt.Errorf("%d:%d: expected 'weight' or 'range', found %q", p.tok.line, p.tok.col, p.tok.text)
	}
}

func (p *parser) parseWeight() (Param, error) {
	if err := p.advance(); err != nil { // consume "weight"
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	wp := &WeightParam{Name: name.text}
	seen := map[string]bool{}
	for p.tok.kind != tokRBrace {
		var entry WeightEntry
		switch p.tok.kind {
		case tokIdent:
			entry.Value = p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
		case tokLBracket:
			if err := p.advance(); err != nil {
				return nil, err
			}
			lo, err := p.number()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokColon); err != nil {
				return nil, err
			}
			hi, err := p.number()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			if hi < lo {
				return nil, fmt.Errorf("weight %q: subrange [%d:%d] has hi < lo", name.text, lo, hi)
			}
			entry.IsRange = true
			entry.Lo, entry.Hi = lo, hi
		case tokEOF:
			return nil, fmt.Errorf("%d:%d: unexpected end of input in weight %q", p.tok.line, p.tok.col, name.text)
		default:
			return nil, fmt.Errorf("%d:%d: expected weight entry, found %s %q",
				p.tok.line, p.tok.col, p.tok.kind, p.tok.text)
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		switch p.tok.kind {
		case tokNumber:
			w, err := p.number()
			if err != nil {
				return nil, err
			}
			if w < 0 {
				return nil, fmt.Errorf("weight %q entry %q: negative weight %d", name.text, entry.Label(), w)
			}
			entry.Weight = w
		case tokMark:
			return nil, fmt.Errorf("%d:%d: mark '<?>' is only valid in skeleton files", p.tok.line, p.tok.col)
		default:
			return nil, fmt.Errorf("%d:%d: expected weight value, found %s %q",
				p.tok.line, p.tok.col, p.tok.kind, p.tok.text)
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		if seen[entry.Label()] {
			return nil, fmt.Errorf("weight %q: duplicate entry %q", name.text, entry.Label())
		}
		seen[entry.Label()] = true
		wp.Entries = append(wp.Entries, entry)
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	if len(wp.Entries) == 0 {
		return nil, fmt.Errorf("weight %q has no entries", name.text)
	}
	return wp, nil
}

func (p *parser) parseRange() (Param, error) {
	if err := p.advance(); err != nil { // consume "range"
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	lo, err := p.number()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	hi, err := p.number()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if hi < lo {
		return nil, fmt.Errorf("range %q: [%d:%d] has hi < lo", name.text, lo, hi)
	}
	return &RangeParam{Name: name.text, Lo: lo, Hi: hi}, nil
}

// Parse parses template source text. Skeleton marks ("<?>") are
// rejected.
func Parse(src string) (*Template, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseTemplate()
}

// ParseFile parses the template in the named file.
func ParseFile(path string) (*Template, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
