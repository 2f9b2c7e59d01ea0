package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval at a layer boundary, recorded by the benchmark
// around a call into the program (or synthesised from what the call
// reported — see Tag). Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: no parent
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req"` // step index or request index
	// Tag is "rebuild" on a step that rebuilt its lists, "synth" on a child
	// laid out from a per-step accumulator delta (duration exact, position
	// not), "reported" on a child the server's response described.
	Tag string `json:"tag,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so call sites need no second code path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.epoch))
}

func (t *tracer) add(parent int32, name string, start, end, req int64, tag string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id, parent, name, start, end, req, tag})
	t.mu.Unlock()
	return id
}

// durations returns, in microseconds, the length of every span with the
// given name and tag.
func (t *tracer) durations(name, tag string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && s.Tag == tag {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its own interval that its children cover. Overlapping children count
// once, and a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		edge := p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = (p.End - p.Start) - covered
	}
	return self
}

// traceFile is what a traced run leaves behind.
type traceFile struct {
	Workload string                 `json:"workload"`
	Env      environment            `json:"env"`
	Metrics  map[string]metricValue `json:"metrics"`
	SelfNS   map[string]int         `json:"self_ns_by_name"`
	Spans    []span                 `json:"spans"`
}

func (t *tracer) write(dir, workload string, env environment, values map[string]metricValue) (string, error) {
	self := selfTimes(t.spans)
	byName := map[string]int{}
	for _, s := range t.spans {
		byName[s.Name] += int(self[s.ID])
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(traceFile{workload, env, values, byName, t.spans}); err != nil {
		return "", err
	}
	return path, f.Close()
}

// reserve makes room for n more spans, so a hot loop's appends do not grow
// the slice under it.
func (t *tracer) reserve(n int) {
	if t == nil || cap(t.spans)-len(t.spans) >= n {
		return
	}
	t.spans = append(make([]span, 0, len(t.spans)+n), t.spans...)
}

// end closes a span that was added before its children ran.
func (t *tracer) end(id int32, at int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}
