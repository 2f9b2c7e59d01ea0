package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-queues", "quantum"},
		{"positional"},
	}
	for _, args := range cases {
		var out, errBuf strings.Builder
		if code := run(args, &out, &errBuf, nil, nil); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errBuf.String())
		}
	}
}

func TestRunBadAddr(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-addr", "256.256.256.256:99999"}, &out, &errBuf, nil, nil); code != 1 {
		t.Errorf("run with bad addr = %d, want 1", code)
	}
}

// TestDaemonEndToEnd boots the daemon on a free port and drives it over
// real HTTP the way a closed-loop client would: 4 lj-gas sessions, each
// stepped 3 times by 4 concurrent clients. A 429 is retried (up to 16
// times) only when it carries Retry-After; every other response must be
// 200, and each session's snapshot must then report exactly 3 × n steps —
// no request lost, none applied twice. Then it shuts the daemon down via
// the stop channel and checks a clean exit.
func TestDaemonEndToEnd(t *testing.T) {
	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	done := make(chan int, 1)
	var out, errBuf strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-queues", "stealing"},
			&out, &errBuf, func(addr string) { addrCh <- addr }, stop)
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never started; stderr: %s", errBuf.String())
	}
	// The callback fires after the listener is up: no polling needed.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %s", resp.Status)
	}

	const sessions, rounds, n = 4, 3, 2
	ids := make([]string, sessions)
	for i := range ids {
		resp, err := http.Post(base+"/v1/sessions?workload=lj-gas&n=3", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: %s (%s)", resp.Status, body)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		ids[i] = created.ID
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < sessions*rounds; i = next.Add(1) - 1 {
				url := fmt.Sprintf("%s/v1/sessions/%s/step?n=%d", base, ids[i%sessions], n)
				for attempt := 1; ; attempt++ {
					resp, err := http.Post(url, "", nil)
					if err != nil {
						t.Error(err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusTooManyRequests &&
						resp.Header.Get("Retry-After") != "" && attempt < 16 {
						time.Sleep(time.Duration(10*attempt) * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("step: %s (%s)", resp.Status, body)
						return
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	for _, id := range ids {
		resp, err := http.Get(base + "/v1/sessions/" + id + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Step int `json:"step"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Step != rounds*n {
			t.Errorf("session %s at step %d after %d requests of n=%d, want %d",
				id, snap.Step, rounds, n, rounds*n)
		}
	}

	close(stop)
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("daemon exit code %d, want 0 (stderr: %s)", code, errBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "mwserved listening on") {
		t.Errorf("startup banner missing from stdout: %q", out.String())
	}
}
