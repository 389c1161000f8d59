package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request (a churn
// event, a sampled pair, a failure trial, a query) share Req; Parent is
// the span that caused it (0 for a request's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// maxSpans bounds a traced run's span memory; spans past it are counted
// but not kept.
const maxSpans = 500_000

// tracer keeps a traced run's spans in memory until the run ends. A
// disabled tracer records nothing, so untraced runs pay only the branch.
type tracer struct {
	on      bool
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// open is a span in progress.
type open struct {
	tr     *tracer
	id     uint64
	parent uint64
	req    string
	name   string
	start  time.Time
}

// begin starts a span; parent is the causing span's id (0 for none).
// The returned span measures its duration whether or not tracing is on; it
// is recorded only when tracing is on and it has a request id.
func (t *tracer) begin(name, req string, parent uint64) open {
	o := open{tr: t, parent: parent, req: req, name: name}
	if t.on && req != "" {
		o.id = t.ids.Add(1)
	}
	o.start = time.Now()
	return o
}

// end closes the span, records it when tracing is on, and returns its
// duration.
func (o open) end() time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	if o.id != 0 {
		o.tr.mu.Lock()
		if len(o.tr.spans) < maxSpans {
			o.tr.spans = append(o.tr.spans, span{
				ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
				Start: int64(o.start.Sub(o.tr.t0)), End: int64(now.Sub(o.tr.t0)),
			})
		} else {
			o.tr.dropped++
		}
		o.tr.mu.Unlock()
	}
	return d
}

// call times fn as a child span of parent and returns its duration.
func (t *tracer) call(name, req string, parent uint64, fn func()) time.Duration {
	o := t.begin(name, req, parent)
	fn()
	return o.end()
}

// count returns the number of spans recorded, kept or dropped.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

// selfTime is one layer's row of the self-time summary.
type selfTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summary returns per-span-name totals and self times: a span's self
// time is its duration minus the part covered by its child spans, which
// run one after another on the parent's goroutine.
func (t *tracer) summary() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range t.spans {
		row := byName[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name}
			byName[s.Name] = row
		}
		d := s.End - s.Start
		row.Spans++
		row.TotalMs += float64(d) / 1e6
		row.SelfMs += float64(d-childNs[s.ID]) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, row := range byName {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// write saves the spans and the self-time summary to
// <out>/trace-<workload>-seed<seed>.json and prints the summary.
func (t *tracer) write(cfg config) error {
	sum := t.summary()
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		N        int        `json:"n"`
		SelfTime []selfTime `json:"self_time"`
		Spans    []span     `json:"spans"`
	}{cfg.workload, cfg.seed, cfg.n, sum, t.spans})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	fmt.Printf("trace: %d spans written to %s (%d past the cap dropped)\n", len(t.spans), path, t.dropped)
	fmt.Printf("  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, row := range sum {
		fmt.Printf("  %-28s %8d %12.3f %12.3f\n", row.Name, row.Spans, row.TotalMs, row.SelfMs)
	}
	return nil
}
