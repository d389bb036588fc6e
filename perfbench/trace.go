package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// spanKind separates the trees a traced run records.
type spanKind uint8

const (
	// kindChild is a call made inside another span.
	kindChild spanKind = iota
	// kindOp roots one timed operation; layer shares are computed over
	// these trees only.
	kindOp
	// kindProbe roots a side measurement (a byte-identity check, a
	// health round trip, one explore.Evaluate) that is no operation's
	// time.
	kindProbe
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of the program.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for roots
	Op     int           `json:"op"`     // shared by every span of one operation
	Kind   spanKind      `json:"kind"`
	Name   string        `json:"name"` // "<layer>.<call>"
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Work counts what the call processed where a rate is reported:
	// retired instructions for iss.run, cycles for rtlpower.consume.
	Work uint64 `json:"work,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span's call belongs to.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps a run's spans in memory; spans are written out
// when the run ends. A nil *recorder records nothing, so the untraced
// path can share code with the traced one at the cost of a nil check.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span and returns its id for end.
func (r *recorder) begin(name string, kind spanKind, parent, op int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Kind: kind, Name: name, Start: time.Since(r.epoch)})
	return id
}

// child opens a span inside parent.
func (r *recorder) child(name string, parent int) int {
	if r == nil {
		return -1
	}
	return r.begin(name, kindChild, parent, r.spans[parent].Op)
}

func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].End = time.Since(r.epoch)
	}
}

func (r *recorder) endWork(id int, work uint64) {
	if r != nil {
		r.spans[id].End = time.Since(r.epoch)
		r.spans[id].Work = work
	}
}

// selfTimes returns each span's duration minus the summed durations of
// its direct children, floored at zero. Children normally run inside
// their parent's interval. The daemon's replayed server steps are the
// exception: they run right after the wire request they stand for and
// are parented to it, so durations, not intervals, are subtracted.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerShares returns each layer's share, in percent, of the self time
// summed over every operation tree.
func layerShares(spans []span, self []time.Duration) map[string]float64 {
	root := make([]int, len(spans))
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for i := range spans {
		root[i] = i
		if p := spans[i].Parent; p >= 0 {
			root[i] = root[p]
		}
		if spans[root[i]].Kind != kindOp {
			continue
		}
		byLayer[spans[i].layer()] += self[i]
		total += self[i]
	}
	out := map[string]float64{}
	for l, d := range byLayer {
		if total > 0 {
			out[l] = 100 * float64(d) / float64(total)
		}
	}
	return out
}

// callStats summarises every span of one name.
type callStats struct {
	durs  []float64 // seconds, one per call
	selfs []float64 // self time, seconds, one per call
	self  float64   // summed self time, seconds
	work  uint64
}

func byName(spans []span, self []time.Duration) map[string]*callStats {
	out := map[string]*callStats{}
	for i := range spans {
		cs := out[spans[i].Name]
		if cs == nil {
			cs = &callStats{}
			out[spans[i].Name] = cs
		}
		cs.durs = append(cs.durs, spans[i].dur().Seconds())
		cs.selfs = append(cs.selfs, self[i].Seconds())
		cs.self += self[i].Seconds()
		cs.work += spans[i].Work
	}
	return out
}

// medianCall is the median duration of the named call in seconds, 0 when
// the run never made it.
func medianCall(calls map[string]*callStats, name string) float64 {
	if cs := calls[name]; cs != nil {
		return median(cs.durs)
	}
	return 0
}

// writeSpans writes the header and one JSON line per span.
func writeSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
