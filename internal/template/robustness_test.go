package template

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestParseNeverPanics throws structured garbage at the parser: random
// token soup assembled from the language's alphabet plus binary noise.
// The parser must always return (result, error), never panic.
func TestParseNeverPanics(t *testing.T) {
	pieces := []string{
		"template", "weight", "range", "{", "}", "[", "]", ":", ";",
		"<?>", "ident", "Mnemonic", "-", "123", "-45", "0", "//x\n", "#y\n",
		" ", "\n", "\t", "\x00", "\xff\xfe", "日本", "<", "?", ">",
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var b strings.Builder
		n := r.Intn(60)
		for i := 0; i < n; i++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		src := b.String()
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Parse panicked on %q: %v", src, p)
				}
			}()
			_, _ = Parse(src)
		}()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseRandomBytesNeverPanics feeds raw random bytes.
func TestParseRandomBytesNeverPanics(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		buf := make([]byte, r.Intn(200))
		for i := range buf {
			buf[i] = byte(r.Intn(256))
		}
		src := string(buf)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Parse panicked on %q: %v", src, p)
				}
			}()
			_, _ = Parse(src)
		}()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseDeepNesting guards against stack abuse: long runs of braces
// and entries parse (or fail) in bounded time without recursion blowups.
func TestParseDeepNesting(t *testing.T) {
	var b strings.Builder
	b.WriteString("template deep {\n")
	for i := 0; i < 5000; i++ {
		b.WriteString("    range R")
		b.WriteString(string(rune('a' + i%26)))
		// Force unique names: Ra0, Rb1, ...
		for _, d := range []byte(intToDigits(i)) {
			b.WriteByte(d)
		}
		b.WriteString(" [0 : 1];\n")
	}
	b.WriteString("}\n")
	tmpl, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpl.Params) != 5000 {
		t.Fatalf("params = %d", len(tmpl.Params))
	}
	// And the canonical form round-trips even at this size.
	if _, err := Parse(tmpl.String()); err != nil {
		t.Fatal(err)
	}
}

func intToDigits(i int) string {
	if i == 0 {
		return "0"
	}
	var out []byte
	for i > 0 {
		out = append([]byte{byte('0' + i%10)}, out...)
		i /= 10
	}
	return string(out)
}
