package serve

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"net/http"
)

// TraceContext is the W3C trace-context identity of one request: the
// 16-byte trace id names the whole request tree across services, the 8-byte
// span id names this hop, and Sampled carries the 01 flag bit. The service
// accepts an inbound `traceparent` header (so an upstream caller can stitch
// mwserved spans into its own trace), generates a fresh context for a
// sampled share of unheaded requests, and answers every traced request with
// a `traceparent` response header so clients learn the id they can look up
// in /v1/trace.
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Sampled bool
}

// traceparentLen is the exact length of a version-00 traceparent header:
// "00-" + 32 hex + "-" + 16 hex + "-" + 2 hex.
const traceparentLen = 55

// Valid reports whether both ids are nonzero — the spec reserves all-zero
// ids as invalid.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// TraceIDString returns the 32-hex-char trace id.
func (tc TraceContext) TraceIDString() string { return hex.EncodeToString(tc.TraceID[:]) }

// SpanIDString returns the 16-hex-char span id.
func (tc TraceContext) SpanIDString() string { return hex.EncodeToString(tc.SpanID[:]) }

// Traceparent renders the context as a version-00 traceparent header value.
func (tc TraceContext) Traceparent() string {
	buf := make([]byte, 0, traceparentLen)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, tc.TraceID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, tc.SpanID[:])
	if tc.Sampled {
		buf = append(buf, "-01"...)
	} else {
		buf = append(buf, "-00"...)
	}
	return string(buf)
}

// hexDecodeStrict decodes lowercase hex only. encoding/hex accepts
// uppercase; the traceparent ABNF does not, and a parser on an untrusted
// HTTP surface should not be more lenient than the spec it implements.
func hexDecodeStrict(dst, src []byte) bool {
	for _, c := range src {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	_, err := hex.Decode(dst, src)
	return err == nil
}

// ParseTraceparent parses a version-00 traceparent header value. It is
// strict: exact length, exact dash positions, lowercase hex, version 00
// (version ff is forbidden, higher versions would be longer than 55 bytes
// anyway), nonzero trace and span ids. Anything else reports ok=false and
// the request proceeds untraced — a malformed header from an untrusted
// client must never be an error, just an ignored one (the fuzz target
// FuzzTraceparent holds the parser to "classify, never panic").
func ParseTraceparent(h string) (tc TraceContext, ok bool) {
	if len(h) != traceparentLen {
		return tc, false
	}
	if h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tc, false
	}
	if !hexDecodeStrict(tc.TraceID[:], []byte(h[3:35])) {
		return tc, false
	}
	if !hexDecodeStrict(tc.SpanID[:], []byte(h[36:52])) {
		return tc, false
	}
	var flags [1]byte
	if !hexDecodeStrict(flags[:], []byte(h[53:55])) {
		return tc, false
	}
	if !tc.Valid() {
		return tc, false
	}
	tc.Sampled = flags[0]&0x01 != 0
	return tc, true
}

// newTraceContext generates a fresh sampled context. Trace ids need
// uniqueness, not secrecy, so the ids come from math/rand/v2's lock-free
// runtime-seeded generator — crypto/rand would put a getrandom call on the
// traced request path, which the observer-overhead gate would notice.
func newTraceContext() TraceContext {
	var tc TraceContext
	binary.LittleEndian.PutUint64(tc.TraceID[:8], rand.Uint64())
	binary.LittleEndian.PutUint64(tc.TraceID[8:], rand.Uint64())
	binary.LittleEndian.PutUint64(tc.SpanID[:], rand.Uint64())
	tc.Sampled = true
	if !tc.Valid() { // astronomically unlikely, but the spec forbids zero ids
		tc.TraceID[0] |= 1
		tc.SpanID[0] |= 1
	}
	return tc
}

// childSpan returns tc re-identified as a child hop: same trace id, fresh
// span id. The service uses it as its own span identity when a request
// arrives with an upstream traceparent.
func (tc TraceContext) childSpan() TraceContext {
	binary.LittleEndian.PutUint64(tc.SpanID[:], rand.Uint64())
	if tc.SpanID == [8]byte{} {
		tc.SpanID[0] = 1
	}
	return tc
}

// sampleTrace decides one request's trace context. An inbound sampled
// traceparent always wins (the upstream chose); an inbound unsampled one is
// honored as a no. With no (valid) header, every TraceSample-th request is
// sampled — an atomic counter, not a RNG, so a short sweep at K=64 still
// deterministically yields exemplars.
func (s *Server) sampleTrace(r *http.Request) (TraceContext, bool) {
	if s.cfg.TraceSample <= 0 {
		return TraceContext{}, false
	}
	if h := r.Header.Get("traceparent"); h != "" {
		if tc, ok := ParseTraceparent(h); ok {
			if !tc.Sampled {
				return TraceContext{}, false
			}
			return tc.childSpan(), true
		}
	}
	if s.traceSeq.Add(1)%int64(s.cfg.TraceSample) != 0 {
		return TraceContext{}, false
	}
	return newTraceContext(), true
}
