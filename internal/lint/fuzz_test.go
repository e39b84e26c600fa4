package lint_test

import (
	"strings"
	"testing"
	"unicode"

	"gemini/internal/lint"
)

// FuzzParseAllowDirective hammers the //gemini:allow comment parser — the
// suite's one piece of user-facing syntax, fed raw source comments from
// every package of the module. Invariants: never panic; an accepted
// directive has a non-empty, whitespace-free check name and a
// whitespace-trimmed reason; and re-rendering an accepted directive in
// canonical form parses back to the same (check, reason).
func FuzzParseAllowDirective(f *testing.F) {
	f.Add("//gemini:allow hotpath -- sort.Search keeps the closure on the stack")
	f.Add("//gemini:allow hotpath")
	f.Add("//gemini:allow  ")
	f.Add("//gemini:allow\tmetricname\t--\ttabs everywhere")
	f.Add("// just a comment")
	f.Add("//gemini:hotpath")
	f.Add("//gemini:allow a--b")
	f.Add("//gemini:allow c -- -- double dash reason")
	f.Add("//gemini:allow timertag --")
	f.Add("//gemini:allow x -- reason with trailing space ")

	f.Fuzz(func(t *testing.T, text string) {
		check, reason, ok := lint.ParseAllowDirective(text)
		if !ok {
			if check != "" || reason != "" {
				t.Fatalf("rejected input %q still returned (%q, %q)", text, check, reason)
			}
			return
		}
		if check == "" {
			t.Fatalf("accepted directive %q with empty check name", text)
		}
		if strings.ContainsFunc(check, unicode.IsSpace) {
			t.Fatalf("check name %q from %q contains whitespace", check, text)
		}
		if reason != strings.TrimSpace(reason) {
			t.Fatalf("reason %q from %q is not whitespace-trimmed", reason, text)
		}
		// Canonical re-rendering must be a fixed point.
		canonical := "//gemini:allow " + check
		if reason != "" {
			canonical += " -- " + reason
		}
		check2, reason2, ok2 := lint.ParseAllowDirective(canonical)
		if !ok2 || check2 != check || reason2 != reason {
			t.Fatalf("canonical form %q of %q reparsed to (%q, %q, %v), want (%q, %q, true)",
				canonical, text, check2, reason2, ok2, check, reason)
		}
	})
}
