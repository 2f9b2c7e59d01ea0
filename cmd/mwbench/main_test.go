package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, "table1", nil); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"salt", "nanocar", "Al-1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2Verbose(t *testing.T) {
	var plain, verbose, errw bytes.Buffer
	if code := run(&plain, &errw, "table2", nil); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errw.String())
	}
	if code := run(&verbose, &errw, "table2", []string{"-verbose"}); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errw.String())
	}
	if verbose.Len() <= plain.Len() {
		t.Error("-verbose did not add the topology trees")
	}
}

// bench-json and benchdiff are not experiments: the benchmark is the
// separate program ./benchmark.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, name := range []string{"frobnicate", "bench-json", "benchdiff"} {
		var out, errw bytes.Buffer
		if code := run(&out, &errw, name, nil); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		s := errw.String()
		if !strings.Contains(s, name) || !strings.Contains(s, "usage:") {
			t.Errorf("%s: stderr should name the experiment and show usage:\n%s", name, s)
		}
		if out.Len() != 0 {
			t.Errorf("%s: stdout should stay clean on error: %q", name, out.String())
		}
	}
}

func TestMachineMissingSpecExits1(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, "machine", nil); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "usage: mwbench machine") {
		t.Errorf("stderr: %q", errw.String())
	}
}

func TestMachineCustomSpec(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, "machine", []string{"2x2x1"}); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errw.String())
	}
	if out.Len() == 0 {
		t.Error("no report for custom machine spec")
	}
}
