package main

import (
	"strings"
	"testing"
)

func TestRunDefault(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sellers", "3", "-buyers", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"terminated: true", "welfare:", "network stats:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunRulesAndFaults(t *testing.T) {
	var out strings.Builder
	args := []string{
		"-sellers", "3", "-buyers", "12",
		"-buyer-rule", "rule-ii", "-seller-rule", "probabilistic",
		"-drop", "0.1", "-delay", "1",
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rules: buyer rule-ii") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunBadRule(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-buyer-rule", "bogus"}, &out); err == nil {
		t.Error("bogus rule should fail")
	}
	if err := run([]string{"-seller-rule", "bogus"}, &out); err == nil {
		t.Error("bogus seller rule should fail")
	}
}

func TestRunLearnCDF(t *testing.T) {
	var out strings.Builder
	args := []string{
		"-sellers", "3", "-buyers", "10",
		"-buyer-rule", "rule-ii", "-learn-cdf",
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "terminated: true") {
		t.Errorf("output:\n%s", out.String())
	}
}
