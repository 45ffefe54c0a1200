package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenFigures are the paper's Figs. 2-7 at the seed count EXPERIMENTS.md
// reports them with.
var goldenFigures = []int{2, 3, 4, 5, 6, 7}

// TestGoldenFigures pins each figure's stdout at 20 seeds byte for byte.
// testdata/figN.txt is `dmra-figures -fig N -seeds 20`; a change that
// moves a figure must regenerate it and the EXPERIMENTS.md table built
// from it (TestExperimentsTablesMatchGolden).
func TestGoldenFigures(t *testing.T) {
	for _, fig := range goldenFigures {
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("fig%d.txt", fig)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := capture(t, func() error { return run([]string{"-fig", fmt.Sprint(fig), "-seeds", "20"}) })
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("-fig %d -seeds 20:\ngot:\n%s\nwant:\n%s", fig, got, want)
			}
		})
	}
}

// TestExperimentsTablesMatchGolden requires every row of the golden
// figure tables to appear, as a markdown table row, in EXPERIMENTS.md, so
// the documented Figs. 2-7 are the program's current output.
func TestExperimentsTablesMatchGolden(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range goldenFigures {
		golden, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("fig%d.txt", fig)))
		if err != nil {
			t.Fatal(err)
		}
		rows := tableRows(string(golden))
		if len(rows) == 0 {
			t.Fatalf("fig %d: golden output has no table rows", fig)
		}
		for _, row := range rows {
			if !strings.Contains(string(doc), row) {
				t.Errorf("fig %d: EXPERIMENTS.md lacks the row %q", fig, row)
			}
		}
	}
}

// tableRows renders the data rows of one figure's text table — the lines
// between the column header and the first blank or summary line, each an
// x value followed by "mean ±ci" cells — as markdown table rows.
func tableRows(text string) []string {
	lines := strings.Split(text, "\n")
	var rows []string
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) < 3 || len(f)%2 == 0 || !strings.HasPrefix(f[2], "±") {
			break
		}
		cells := []string{f[0]}
		for i := 1; i < len(f); i += 2 {
			cells = append(cells, f[i]+" "+f[i+1])
		}
		rows = append(rows, "| "+strings.Join(cells, " | ")+" |")
	}
	return rows
}
