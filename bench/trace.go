package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Spans are recorded only by benchmark code, around its calls into each
// layer; they are held in memory and written out when the run ends.
// Spans inside internal/* are a later change.

// noParent marks a root span.
const noParent = -1

// span is one timed interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Req     int     `json:"req"`
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer collects spans into one buffer per dispatcher worker, so
// recording takes no lock on the request path.
type tracer struct {
	bufs   [][]span
	nextID atomic.Int64
}

func newTracer(workers int) *tracer { return &tracer{bufs: make([][]span, workers)} }

// add records one span in worker's buffer and returns its ID.
func (t *tracer) add(worker int, name string, req, parent int, start, end time.Duration) int {
	id := int(t.nextID.Add(1)) - 1
	t.bufs[worker] = append(t.bufs[worker], span{
		ID: id, Name: name, Req: req, Parent: parent, StartUs: us(start), EndUs: us(end),
	})
	return id
}

// child records a span of length d starting at at and returns d.
func (t *tracer) child(buf int, name string, req, parent int, at, d time.Duration) time.Duration {
	t.add(buf, name, req, parent, at, at+d)
	return d
}

// spans merges the per-worker buffers in ID order.
func (t *tracer) spans() []span {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the part of its interval that its child spans cover. Children
// are clipped to the parent and overlapping children counted once, so a
// self time is never negative.
func selfTimes(spans []span) map[int]float64 {
	type iv struct{ lo, hi float64 }
	children := map[int][]iv{}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartUs, p.StartUs), min(s.EndUs, p.EndUs)
		if hi > lo {
			children[p.ID] = append(children[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, reach := 0.0, s.StartUs
		for _, c := range ivs {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		self[s.ID] = (s.EndUs - s.StartUs) - covered
	}
	return self
}

// selfP50ByName is the median self time per span name: the "where do
// the microseconds go" table.
func selfP50ByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], self[s.ID])
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name] = median(vs)
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfP50  map[string]float64 `json:"self_p50_us"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
