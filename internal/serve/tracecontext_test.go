package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTraceparentRoundTrip: every generated context renders to a header the
// strict parser accepts back, bit-for-bit.
func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		tc := newTraceContext()
		h := tc.Traceparent()
		if len(h) != traceparentLen {
			t.Fatalf("Traceparent() length %d, want %d (%q)", len(h), traceparentLen, h)
		}
		got, ok := ParseTraceparent(h)
		if !ok {
			t.Fatalf("generated header %q rejected by parser", h)
		}
		if got != tc {
			t.Fatalf("round trip mangled context: %+v -> %q -> %+v", tc, h, got)
		}
		if got.Traceparent() != h {
			t.Fatalf("re-render differs: %q vs %q", got.Traceparent(), h)
		}
	}
}

// TestParseTraceparentStrict holds the parser to the version-00 ABNF:
// exact length, exact dashes, lowercase hex, nonzero ids.
func TestParseTraceparentStrict(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if tc, ok := ParseTraceparent(valid); !ok || !tc.Sampled {
		t.Fatalf("canonical example rejected: ok=%v tc=%+v", ok, tc)
	}
	if tc, ok := ParseTraceparent(valid[:len(valid)-1] + "0"); !ok || tc.Sampled {
		t.Fatalf("flags=00 example: ok=%v sampled=%v, want ok, unsampled", ok, tc.Sampled)
	}
	// Unknown flag bits besides 0x01 must not break parsing.
	if tc, ok := ParseTraceparent(valid[:len(valid)-2] + "03"); !ok || !tc.Sampled {
		t.Fatalf("flags=03: ok=%v sampled=%v, want ok, sampled", ok, tc.Sampled)
	}

	bad := []string{
		"",
		valid + "x",                         // too long
		valid[:54],                          // too short
		strings.ToUpper(valid),              // uppercase hex
		"01" + valid[2:],                    // version 01
		"ff" + valid[2:],                    // forbidden version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
		"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01", // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0g", // non-hex flags
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("parser accepted malformed header %q", h)
		}
	}
}

// TestSampleTrace pins the sampling policy: inbound sampled headers always
// trace (with a fresh span id), inbound unsampled headers never do, and
// unheaded requests are traced exactly 1-in-K.
func TestSampleTrace(t *testing.T) {
	s := NewServer(Config{Workers: 1, TraceSample: 4, GCInterval: -1})
	defer s.Close()

	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/x/step", nil)
	upstream := newTraceContext()
	req.Header.Set("traceparent", upstream.Traceparent())
	tc, traced := s.sampleTrace(req)
	if !traced {
		t.Fatal("inbound sampled traceparent not traced")
	}
	if tc.TraceID != upstream.TraceID {
		t.Error("trace id not propagated from inbound header")
	}
	if tc.SpanID == upstream.SpanID {
		t.Error("span id not re-minted for this hop")
	}

	unsampled := upstream
	unsampled.Sampled = false
	req.Header.Set("traceparent", unsampled.Traceparent())
	if _, traced := s.sampleTrace(req); traced {
		t.Error("inbound unsampled traceparent was traced anyway")
	}

	req.Header.Del("traceparent")
	n := 0
	for i := 0; i < 40; i++ {
		if _, traced := s.sampleTrace(req); traced {
			n++
		}
	}
	if n != 10 {
		t.Errorf("1-in-4 sampling traced %d of 40 unheaded requests, want 10", n)
	}

	off := NewServer(Config{Workers: 1, TraceSample: -1, GCInterval: -1})
	defer off.Close()
	req.Header.Set("traceparent", upstream.Traceparent())
	if _, traced := off.sampleTrace(req); traced {
		t.Error("TraceSample<0 still traced an inbound header")
	}
}
