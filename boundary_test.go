package mw_test

import (
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// The product is the engine, the daemon and the CLIs that ship; the lab is
// the paper-reproduction machinery (machine model, monitors, experiments)
// that measures it; tooling is the static-analysis suite. Every internal
// package is in exactly one list, so a new package must be classified.
var (
	productPkgs = []string{
		"internal/atom", "internal/cells", "internal/core", "internal/forces",
		"internal/mml", "internal/pool", "internal/report", "internal/serve",
		"internal/stats", "internal/telemetry", "internal/tracing",
		"internal/units", "internal/vec", "internal/verify",
		"internal/workload", "internal/xyz",
	}
	productCmds = []string{
		"cmd/mwsim", "cmd/mwserved", "cmd/mwtop", "cmd/mwtrace",
		"cmd/mwverify",
	}
	labPkgs = []string{
		"internal/cache", "internal/ewald", "internal/experiments",
		"internal/fft", "internal/jheap", "internal/machine",
		"internal/memtrace", "internal/observables", "internal/perfmon",
		"internal/sched", "internal/topo",
	}
	toolingPkgs = []string{"internal/analysis"}
)

func goList(t *testing.T, args ...string) []string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	out, err := exec.Command(goBin, append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", args, err)
	}
	var pkgs []string
	for _, p := range strings.Fields(string(out)) {
		if rel, ok := strings.CutPrefix(p, "mw/"); ok {
			pkgs = append(pkgs, rel)
		}
	}
	return pkgs
}

// TestProductDoesNotImportLab holds the product/lab boundary: nothing the
// product set builds from may be a lab or tooling package.
func TestProductDoesNotImportLab(t *testing.T) {
	class := map[string]string{}
	for _, set := range []struct {
		name string
		pkgs []string
	}{{"product", productPkgs}, {"lab", labPkgs}, {"tooling", toolingPkgs}} {
		for _, p := range set.pkgs {
			if prev, dup := class[p]; dup {
				t.Errorf("%s is listed as both %s and %s", p, prev, set.name)
			}
			class[p] = set.name
		}
	}
	for _, p := range goList(t, "./internal/...") {
		if class[p] == "" {
			t.Errorf("%s is in none of the product, lab or tooling lists", p)
		}
	}

	var roots []string
	for _, p := range append(append([]string(nil), productPkgs...), productCmds...) {
		roots = append(roots, "./"+p)
	}
	var leaks []string
	for _, p := range goList(t, append([]string{"-deps"}, roots...)...) {
		if strings.HasPrefix(p, "internal/") && class[p] != "product" {
			leaks = append(leaks, p+" ("+class[p]+")")
		}
	}
	sort.Strings(leaks)
	if len(leaks) > 0 {
		t.Errorf("product set depends on non-product packages: %s", strings.Join(leaks, ", "))
	}
}
