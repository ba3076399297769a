package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"ndsearch/internal/obs"
)

// span is one benchmark-side span: a timed call into a layer's public
// function (or a stage span the program itself reported through
// obs.Trace, re-parented here). Times are microseconds from the start
// of the run. Parent 0 marks a root; Req groups the spans of one
// request (0 when the span belongs to no request). N is a work count
// attached at the boundary, such as the delta rows a merge_delta
// scanned.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	N      int64   `json:"n,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spanLog keeps spans in memory for the length of a run; write saves
// them once the run ends. A nil *spanLog records nothing, so untraced
// runs share the traced code path.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) at(t time.Time) float64 { return usec(t.Sub(l.t0)) }

// add records a span and returns its ID (0 on a nil log).
func (l *spanLog) add(name string, parent, req int64, start, end time.Time, n int64) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Req: req, Name: name,
		Start: l.at(start), End: l.at(end), N: n})
	return l.next
}

// addTrace converts one obs.Trace into spans under parent. base is the
// moment the trace was created (obs offsets are relative to it). The
// engine's stage spans nest as the engine runs them: shard_search under
// fanout, the per-tier merge_* folds under merge, the rest under
// parent. deltaRows is attached to merge_delta spans as their work
// count.
func (l *spanLog) addTrace(parent, req int64, base time.Time, spans []obs.Span, deltaRows int64) {
	if l == nil {
		return
	}
	at := func(offUS float64) time.Time { return base.Add(time.Duration(offUS * float64(time.Microsecond))) }
	var fanout, merge int64
	for _, s := range spans {
		p := parent
		var n int64
		switch s.Stage {
		case "shard_search":
			p = fanout
		case "merge_delta":
			p, n = merge, deltaRows
		case "merge_frozen", "merge_base":
			p = merge
		}
		if p == 0 {
			p = parent
		}
		id := l.add(s.Stage, p, req, at(s.StartUS), at(s.StartUS+s.DurUS), n)
		switch s.Stage {
		case "fanout":
			fanout = id
		case "merge":
			merge = id
		}
	}
}

// snapshot returns the recorded spans ordered by ID.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []span) map[int64]float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) float64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerStats summarizes the spans of a traced run by name.
type layerStats struct {
	byName map[string][]span
	byID   map[int64]span
	self   map[int64]float64
}

func newLayerStats(spans []span) *layerStats {
	ls := &layerStats{byName: map[string][]span{}, byID: map[int64]span{}, self: selfTimes(spans)}
	for _, s := range spans {
		ls.byName[s.Name] = append(ls.byName[s.Name], s)
		ls.byID[s.ID] = s
	}
	return ls
}

// durP50 is the median duration of the named spans, in microseconds.
func (ls *layerStats) durP50(name string) float64 {
	var d []float64
	for _, s := range ls.byName[name] {
		d = append(d, s.dur())
	}
	return median(d)
}

// selfP50 is the median self time of the named spans, in microseconds.
func (ls *layerStats) selfP50(name string) float64 {
	var d []float64
	for _, s := range ls.byName[name] {
		d = append(d, ls.self[s.ID])
	}
	return median(d)
}

// startLagP50 is the median delay from each named span's parent start
// to its own start, in microseconds (a task's queueing before a worker
// picks it up).
func (ls *layerStats) startLagP50(name string) float64 {
	var d []float64
	for _, s := range ls.byName[name] {
		if p, ok := ls.byID[s.Parent]; ok {
			d = append(d, s.Start-p.Start)
		}
	}
	return median(d)
}

// nsPerN is the summed duration of the named spans over their summed
// work counts, in nanoseconds per unit.
func (ls *layerStats) nsPerN(name string) float64 {
	var dur float64
	var n int64
	for _, s := range ls.byName[name] {
		dur += s.dur()
		n += s.N
	}
	if n == 0 {
		return 0
	}
	return dur * 1000 / float64(n)
}
