package corpus

import (
	"reflect"
	"strings"
	"testing"
)

// The references: TermIDOf as the linear scan of Vocab it used to be, and
// ParseQuery as strings.Fields(strings.ToLower(·)) over that scan. The map
// and the in-place scan must return what these return.

func refTermIDOf(c *Corpus, word string) TermID {
	for i, w := range c.Vocab {
		if w == word {
			return TermID(i)
		}
	}
	return -1
}

func refParseQuery(c *Corpus, text string) (Query, bool) {
	var terms []TermID
	for _, w := range strings.Fields(strings.ToLower(text)) {
		if id := refTermIDOf(c, w); id >= 0 {
			terms = append(terms, id)
		}
	}
	if len(terms) == 0 {
		return Query{}, false
	}
	return Query{Terms: terms, Text: text}, true
}

// literalCorpus is assembled without Generate, with "united" listed twice:
// the first index must win, as it did for the scan.
func literalCorpus() *Corpus {
	return &Corpus{Vocab: []string{"united", "kingdom", "i", "united", "k", "tokyo", "é", "kingdom"}}
}

func TestTermIDOfMatchesLinearScan(t *testing.T) {
	c := literalCorpus()
	for _, w := range append([]string{"", "nope", "UNITED", "unite", "unitedd"}, c.Vocab...) {
		if got, want := c.TermIDOf(w), refTermIDOf(c, w); got != want {
			t.Errorf("TermIDOf(%q) = %d, linear scan %d", w, got, want)
		}
	}
	if id := c.TermIDOf("united"); id != 0 {
		t.Errorf("duplicated word resolved to %d, want its first index 0", id)
	}
	g := Generate(SmallSpec())
	for i, w := range g.Vocab {
		if got := g.TermIDOf(w); got != TermID(i) {
			t.Fatalf("TermIDOf(%q) = %d, want %d", w, got, i)
		}
	}
}

// TestParseQueryPlainTextAllocatesOnce pins the fast path's cost: lower-case
// ASCII text costs the Terms slice and nothing else, none when no word
// resolves.
func TestParseQueryPlainTextAllocatesOnce(t *testing.T) {
	c := Generate(SmallSpec())
	for text, want := range map[string]float64{
		"united":                      1,
		"united kingdom canada":       1,
		"  toyota\tzzzz \n tokyo  ":   1,
		"zzzz qqqq":                   0,
		strings.Repeat("zzzz ", 5000): 0,
	} {
		if got := testing.AllocsPerRun(20, func() { ParseQuery(c, text) }); got != want {
			t.Errorf("ParseQuery(%.20q): %v allocations, want %v", text, got, want)
		}
	}
}

func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"", " ", "united", "united kingdom", "united united united",
		"UNITED   kingdom\ttokyo", "  united\n", "\vunited\fkingdom\r",
		"united kingdom", "unitedtokyo", " united",
		"İ", "İ K", "K united", "É é", "unitedİ",
		"united\x80kingdom", "\xff", "nope at all", "k i k i",
		"united\x1ckingdom", "united\x00kingdom",
	} {
		f.Add(s)
	}
	c := literalCorpus()
	f.Fuzz(func(t *testing.T, text string) {
		got, gotOK := ParseQuery(c, text)
		want, wantOK := refParseQuery(c, text)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseQuery(%q) = %+v, %v; reference %+v, %v", text, got, gotOK, want, wantOK)
		}
	})
}
