package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded in every output: the numbers mean nothing
// without it.
type environment struct {
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	ClusterSIMD bool    `json:"forces_have_cluster_simd"`
	LoadAvg1    float64 `json:"loadavg1_at_start"`
}

func currentEnvironment(o options) environment {
	return environment{
		Seed:        o.seed,
		Seconds:     o.seconds,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		ClusterSIMD: haveSIMD,
		LoadAvg1:    loadAvg1(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// loadAvg1 is the 1-minute load average, 0 where /proc does not have it.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as 0, like absent
	return v
}

// procStatusKB reads one "Vm…: N kB" field of a process; pid 0 is this
// process. Absent (non-Linux) reads as 0.
func procStatusKB(pid int, field string) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return v
		}
	}
	return 0
}

// repoRoot is the nearest ancestor of the working directory that holds
// go.mod: the checkout the benchmark was started in (or, under go test, the
// parent of this package's directory).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the checkout")
		}
		dir = parent
	}
}
