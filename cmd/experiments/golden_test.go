package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperTablesGolden pins the byte output of the paper's Table 1, Table 2,
// Figure 6 and the online-vs-offline comparison at seed 7 against checked-in
// files. Regenerate with UPDATE_GOLDEN=1 go test ./cmd/experiments, and only
// when a change is meant to move a table.
func TestPaperTablesGolden(t *testing.T) {
	for _, what := range []string{"table1", "table2", "fig6", "offline"} {
		t.Run(what, func(t *testing.T) {
			var b strings.Builder
			if err := run(&b, what, 7); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", what+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if b.String() != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, b.String(), want)
			}
		})
	}
}
