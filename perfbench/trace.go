package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"occamy/internal/obs"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent is 0 for an operation's root span.
type span struct {
	name       string
	id, parent int
	op         int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp allocates the identifier the spans of one operation share.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, op: op, start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// len is the number of spans recorded so far.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// count is the number of spans of the given name recorded from index from
// on.
func (t *tracer) count(name string, from int) int {
	n := 0
	for _, s := range t.spans[from:] {
		if s.name == name {
			n++
		}
	}
	return n
}

// call wraps f in a span.
func (t *tracer) call(name string, op, parent int, f func() error) error {
	id := t.begin(name, op, parent)
	err := f()
	t.end(id)
	return err
}

// layerStats aggregates the closed spans of one name.
type layerStats struct {
	name  string
	n     int
	total time.Duration
	self  time.Duration
	durs  []float64 // milliseconds
}

func (l *layerStats) p50ms() float64 { return median(l.durs) }

// layers folds the spans into per-name totals, self times and durations,
// sorted by self time, largest first.
func (t *tracer) layers() []*layerStats {
	kids := map[int][]interval{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	by := map[string]*layerStats{}
	var out []*layerStats
	for _, s := range t.spans {
		l := by[s.name]
		if l == nil {
			l = &layerStats{name: s.name}
			by[s.name] = l
			out = append(out, l)
		}
		d := s.end - s.start
		l.n++
		l.total += d
		l.self += selfTime(interval{s.start, s.end}, kids[s.id])
		l.durs = append(l.durs, float64(d)/float64(time.Millisecond))
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

// layerByName returns the named layer's stats (zero when it recorded no span).
func layerByName(ls []*layerStats, name string) *layerStats {
	for _, l := range ls {
		if l.name == name {
			return l
		}
	}
	return &layerStats{name: name}
}

// writeSelfTable prints the per-layer self-time table.
func writeSelfTable(w io.Writer, ls []*layerStats) {
	var all time.Duration
	for _, l := range ls {
		all += l.self
	}
	fmt.Fprintf(w, "%-16s %7s %12s %12s %7s %10s\n", "layer", "spans", "total_ms", "self_ms", "self%", "p50_ms")
	for _, l := range ls {
		share := 0.0
		if all > 0 {
			share = 100 * float64(l.self) / float64(all)
		}
		fmt.Fprintf(w, "%-16s %7d %12.3f %12.3f %6.1f%% %10.3f\n", l.name, l.n,
			ms(l.total), ms(l.self), share, l.p50ms())
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writePerfetto exports the spans as Chrome trace JSON through the
// repository's Perfetto writer, one track per operation, validates the
// trace and writes it to path.
func (t *tracer) writePerfetto(path string) error {
	sink := obs.NewPerfetto(len(t.spans) + 1)
	sink.EmitProcessName(0, "perfbench host spans")
	for _, s := range t.spans {
		sink.EmitComplete(0, s.op, s.name,
			uint64(s.start/time.Microsecond), uint64((s.end-s.start)/time.Microsecond),
			map[string]any{"id": s.id, "parent": s.parent, "op": s.op})
	}
	if n := sink.Dropped(); n > 0 {
		return fmt.Errorf("perfetto sink dropped %d spans", n)
	}
	var buf bytes.Buffer
	if _, err := sink.Write(&buf); err != nil {
		return err
	}
	if err := obs.ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("perfetto trace invalid: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
