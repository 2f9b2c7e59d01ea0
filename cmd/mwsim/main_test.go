package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mw/internal/core"
	"mw/internal/mml"
	"mw/internal/tracing"
	"mw/internal/workload"
)

func TestBadFlagsExit2(t *testing.T) {
	cases := [][]string{
		{"-nonsense"},
		{"-bench", "unobtainium"},
		{"-partition", "wat"},
		{"-queues", "wat"},
		{"-thermostat", "wat"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errw.String())
		}
		if errw.Len() == 0 {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
	}
}

func TestLoadMissingFileExits1(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-load", filepath.Join(t.TempDir(), "nope.mml")}, &out, &errw); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
}

// TestTraceFlagExportsValidTimeline checks that -trace writes a
// Perfetto-loadable Chrome trace for a short parallel run.
func TestTraceFlagExportsValidTimeline(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.trace.json")
	var out, errw bytes.Buffer
	code := run([]string{
		"-bench", "lj-gas", "-n", "3", "-threads", "2", "-steps", "25",
		"-trace", trace,
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "wrote trace timeline") {
		t.Errorf("summary missing trace line:\n%s", out.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tracing.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("-trace output invalid: %v", err)
	}
	if st.Tracks != 3 {
		t.Errorf("tracks = %d, want 3 (coordinator + 2 workers)", st.Tracks)
	}
}

// TestEndToEndRun drives a tiny simulation through every output path: the
// periodic report, the XYZ trajectory, and the saved model round trip.
func TestEndToEndRun(t *testing.T) {
	dir := t.TempDir()
	traj := filepath.Join(dir, "run.xyz")
	save := filepath.Join(dir, "final.mml")
	var out, errw bytes.Buffer
	code := run([]string{
		"-bench", "lj-gas", "-n", "3", "-steps", "20", "-report-every", "10",
		"-threads", "2", "-queues", "stealing", "-partition", "dynamic",
		"-thermostat", "berendsen", "-target-temp", "90",
		"-traj", traj, "-save", save,
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"27 atoms", "initial:", "step     10", "step     20", "final:", "updates/s", "Per-phase wall time", "saved model to"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}

	xyzData, err := os.ReadFile(traj)
	if err != nil {
		t.Fatal(err)
	}
	// t=0 frame + one per report interval = 3 frames of 27 atoms.
	if got := strings.Count(string(xyzData), "\n27\n") + 1; got != 3 { // first header has no leading newline
		t.Errorf("trajectory has %d frames, want 3", got)
	}

	// The saved model must load back and run.
	var out2, errw2 bytes.Buffer
	if code := run([]string{"-load", save, "-steps", "5"}, &out2, &errw2); code != 0 {
		t.Fatalf("reloading saved model: exit %d; stderr: %s", code, errw2.String())
	}
	if !strings.Contains(out2.String(), "27 atoms") {
		t.Errorf("reloaded model output:\n%s", out2.String())
	}
}

// TestReportsResolvedConfig checks that the header, the -ps step count and
// the progress lines use the engine's resolved config: -threads 0 runs (and
// reports) one worker, and a model saved with dt=0 runs at the default 2 fs
// instead of reporting dt=0 and running no steps.
func TestReportsResolvedConfig(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-bench", "lj-gas", "-n", "3", "-threads", "0", "-steps", "3"}, &out, &errw); code != 0 {
		t.Fatalf("-threads 0: exit %d; stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "1 threads") {
		t.Errorf("-threads 0 header does not report the 1 worker that runs:\n%s", out.String())
	}

	b := workload.LJGas(3, 120, false)
	model := filepath.Join(t.TempDir(), "dt0.mml")
	if err := mml.SaveFile(model, mml.FromSystem("dt0", b.Sys, core.Config{})); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errw.Reset()
	if code := run([]string{"-load", model, "-ps", "0.1", "-report-every", "25"}, &out, &errw); code != 0 {
		t.Fatalf("dt=0 model: exit %d; stderr: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{"dt=2 fs", "1 threads", "step     50  t=   0.10 ps", "simulated 0.10 ps"} {
		if !strings.Contains(s, want) {
			t.Errorf("dt=0 model output missing %q:\n%s", want, s)
		}
	}
}

func TestTelemetryAddrServesWhileRunning(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{
		"-bench", "lj-gas", "-n", "3", "-steps", "10", "-threads", "2",
		"-telemetry-addr", "127.0.0.1:0",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "telemetry: http://127.0.0.1:") {
		t.Errorf("expected the bound telemetry address in output:\n%s", s)
	}
	// The final phase table is enriched from the same recorder.
	if !strings.Contains(s, "p99 (µs)") {
		t.Errorf("expected quantile columns in the phase table:\n%s", s)
	}
}
