package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op;
// Parent is the ID of the span that made the call (0 for an op's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, after the timed loop, so recording costs two clock reads and
// one append per call. A disabled tracer still times calls (the
// per-layer metrics need the durations) but records nothing.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now()}
}

// do runs fn as span name of op under parent and returns its duration.
// fn receives the new span's ID so that nested calls can name it as
// their parent.
func (t *tracer) do(name string, op, parent int64, fn func(id int64)) time.Duration {
	var id int64
	if t.on {
		t.mu.Lock()
		id = int64(len(t.spans)) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
		t.mu.Unlock()
	}
	start := time.Now()
	fn(id)
	end := time.Now()
	if t.on {
		t.mu.Lock()
		s := &t.spans[id-1]
		s.Start, s.End = start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()
		t.mu.Unlock()
	}
	return end.Sub(start)
}

// selfTime is one span name's total and self time: self is a span's
// duration minus the time its direct children cover.
type selfTime struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		st.Calls++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - child[s.ID])
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b selfTime) int { return int(b.Self - a.Self) })
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the per-layer self-time table of the run.
func (t *tracer) printSelfTimes(w io.Writer) {
	sts := t.selfTimes()
	var total time.Duration
	for _, st := range sts {
		total += st.Self
	}
	fmt.Fprintf(w, "# self time per span (%d names)\n", len(sts))
	for _, st := range sts {
		fmt.Fprintf(w, "#   %-28s calls %6d  total %10.3f ms  self %10.3f ms  (%5.1f%% of traced self time)\n",
			st.Name, st.Calls, ms(st.Total), ms(st.Self), 100*ratio(float64(st.Self), float64(total)))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
