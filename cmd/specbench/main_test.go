package main

import (
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"6a", "8c", "ablation-mwis"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestSingleFigure(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-figure", "6b", "-reps", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Figure 6b", "sellers M", "optimal", "proposed"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-figure", "99z"}, &out); err == nil {
		t.Error("unknown figure should fail")
	}
}

// TestNegativeCounts: a negative -reps or -workers would run no replication
// and print an all-zero figure, so both are usage errors.
func TestNegativeCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "6a", "-reps", "-2", "-format", "csv"},
		{"-figure", "6a", "-reps", "2", "-workers", "-1", "-format", "csv"},
	} {
		var out strings.Builder
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Errorf("run %v: err = %v, want a usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed output before failing:\n%s", args, out.String())
		}
	}
}

func TestCSVFormat(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-figure", "6b", "-reps", "2", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "sellers M,optimal mean,optimal ci95") {
		t.Errorf("csv header wrong:\n%s", out.String())
	}
}

func TestJSONFormat(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-figure", "6b", "-reps", "2", "-format", "json"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"id": "6b"`) {
		t.Errorf("json output wrong:\n%s", out.String())
	}
}

func TestPlotFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-figure", "6b", "-reps", "2", "-plot"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a = optimal") {
		t.Errorf("plot legend missing:\n%s", out.String())
	}
}

func TestBadFormat(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-figure", "6b", "-reps", "1", "-format", "xml"}, &out); err == nil {
		t.Error("unknown format should fail")
	}
}

func TestCheckFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-figure", "6a", "-reps", "6", "-check"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "shape check: PASS") {
		t.Errorf("output missing shape verdict:\n%s", out.String())
	}
}
