package gemini_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoLegacySSEBesideAVX reads every assembly file in the repository and
// fails on a file that uses a Y register and also holds a legacy (non-VEX)
// SSE instruction: MOVSS, ADDSS, UCOMISS, CVTSD2SS, MOVQ to or from an X
// register and the like. Mixing the two encodings makes the CPU save and
// restore the upper halves of the YMM registers at every switch. With MOVSS,
// ADDSS and UCOMISS after a VBROADCASTSS, an AVX2 search kernel ran
// BenchmarkSearchPool/multi-term at 230 µs a query on a 2-vCPU Xeon, against
// 21 µs with VMOVSS, VADDSS and VUCOMISS and the same answers.
func TestNoLegacySSEBesideAVX(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want int
	}{
		{"\tVBROADCASTSS x+0(FP), Y0\n\tMOVSS X1, X2\n\tADDSS X1, X2; UCOMISS X1, X2\n", 3},
		{"\tVBROADCASTSS x+0(FP), Y0\n\tVMOVSS X1, X1, X2 // MOVSS X1, X2\n\tMOVQ AX, BX\n", 0},
		{"loop:\tCVTSD2SS X1, X2; \\\n\tVZEROUPPER\n\tVMOVUPD (SI), Y3\n", 1},
		{"\tMOVSS X1, X2\n\tADDSS X1, X2\n", 0}, // no Y register: SSE alone is fine
	} {
		if got := legacySSE(tc.src); len(got) != tc.want {
			t.Fatalf("legacySSE(%q) = %q, want %d instructions", tc.src, got, tc.want)
		}
	}

	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != ".":
			return filepath.SkipDir
		case d.IsDir() || filepath.Ext(path) != ".s":
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		for _, in := range legacySSE(string(src)) {
			t.Errorf("%s:%s: legacy SSE in a file that uses Y registers; use its V form", path, in)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no assembly file found")
	}
}

var (
	yRegister = regexp.MustCompile(`\bY([0-9]|[12][0-9]|3[01])\b`)
	xRegister = regexp.MustCompile(`\bX([0-9]|[12][0-9]|3[01])\b`)
)

// legacySSE returns, as "line: statement", the instructions of a Go assembly
// file that name an X register without the V prefix of the VEX encoding,
// provided some instruction of the file names a Y register; nil otherwise.
// Comments are skipped, and macro bodies are read statement by statement.
func legacySSE(src string) []string {
	var found []string
	usesY := false
	for i, line := range strings.Split(src, "\n") {
		code, _, _ := strings.Cut(line, "//")
		code = strings.TrimSuffix(strings.TrimSpace(code), `\`)
		for _, stmt := range strings.Split(code, ";") {
			fields := strings.Fields(stmt)
			for len(fields) > 0 && strings.HasSuffix(fields[0], ":") {
				fields = fields[1:] // a label
			}
			if len(fields) < 2 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			operands := strings.Join(fields[1:], " ")
			usesY = usesY || yRegister.MatchString(operands)
			if !strings.HasPrefix(fields[0], "V") && xRegister.MatchString(operands) {
				found = append(found, fmt.Sprintf("%d: %s", i+1, strings.Join(fields, " ")))
			}
		}
	}
	if !usesY {
		return nil
	}
	return found
}
