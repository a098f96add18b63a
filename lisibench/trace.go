package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of that layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends. It
// is safe for concurrent use (serve-mixed records from many goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(parent int, layer, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, layer, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return id
}

// root records a span with no parent and returns its id.
func (t *tracer) root(layer, name string, start, end time.Time) int {
	return t.add(0, layer, name, start, end)
}

// child records a span caused by parent and returns its id.
func (t *tracer) child(parent int, layer, name string, start, end time.Time) int {
	return t.add(parent, layer, name, start, end)
}

// selfTimes returns each layer's self time in seconds: the length of its
// spans minus the part of each span's interval that its children cover
// (overlapping children are merged, so concurrent children are not
// subtracted twice), plus the total length of the root spans.
func (t *tracer) selfTimes() (map[string]float64, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	total := 0.0
	for _, s := range t.spans {
		covered := coverage(kids[s.ID], s.Start, s.End)
		self[s.Layer] += float64(s.End-s.Start-covered) / 1e9
		if s.Parent == 0 {
			total += float64(s.End-s.Start) / 1e9
		}
	}
	return self, total
}

// coverage is the length of the union of the intervals, clipped to
// [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n int64
	curLo, curHi := int64(math.MinInt64), int64(math.MinInt64)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				n += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		n += curHi - curLo
	}
	return n
}

// open records a span whose end is set later with close, for a parent
// whose children are recorded while it runs.
func (t *tracer) open(parent int, layer, name string, start time.Time) int {
	return t.add(parent, layer, name, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// write saves the spans as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
