//go:build !race

package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// figureElapsed matches the wall-clock part of each figure's footer line,
// "(N reps/point, seed S, <elapsed>)": the one field of the table output
// that differs from run to run.
var figureElapsed = regexp.MustCompile(`(\(\d+ reps/point, seed -?\d+, )[^)]*\)`)

// TestFiguresMatchCommitted regenerates every figure as `make figures` does
// and requires the output to equal the committed figures_output.txt with
// only the elapsed times masked. The figures are the paper's fixed
// behaviour, so a change that moves any printed number fails here. The run
// takes seconds, and minutes under the race detector, hence the build tag.
func TestFiguresMatchCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure")
	}
	committed, err := os.ReadFile("../../figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-figure", "all", "-reps", "20", "-check"}, &out); err != nil {
		t.Fatal(err)
	}
	mask := func(s string) []string {
		return strings.Split(figureElapsed.ReplaceAllString(s, "${1}…)"), "\n")
	}
	got, want := mask(out.String()), mask(string(committed))
	for k := 0; k < len(got) && k < len(want); k++ {
		if got[k] != want[k] {
			t.Fatalf("line %d differs from figures_output.txt:\n got %q\nwant %q", k+1, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("output has %d lines, figures_output.txt has %d", len(got), len(want))
	}
}
