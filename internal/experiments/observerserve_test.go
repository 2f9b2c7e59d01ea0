package experiments

import (
	"testing"

	"mw/internal/serve"
)

// TestRunObserverServe drives the gate's closed loop end to end at a tiny
// size: it must serve exactly sessions × nruns requests in positive time,
// and a server that fails every step must abort the trial rather than
// report it as fast.
func TestRunObserverServe(t *testing.T) {
	d, requests, err := runObserverServe(64, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if requests != 4 || d <= 0 {
		t.Errorf("runObserverServe = %v over %d requests, want > 0 over 4", d, requests)
	}

	srv := serve.NewServer(serve.Config{GCInterval: -1})
	httpSrv, addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer httpSrv.Close()
	ids, err := createSessions("http://"+addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // closes the sessions: every step now fails
	if d, requests, err := stepLoop("http://"+addr, ids, 2, 2); err == nil {
		t.Errorf("closed server: stepLoop = %v over %d requests, want an error", d, requests)
	}
}
