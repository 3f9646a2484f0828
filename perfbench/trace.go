package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one unit of work (a search,
// an append, an HTTP request) share Req; Parent links a span to the span
// that caused it.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req"`
	Layer  string        `json:"layer"`
	Op     string        `json:"op,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id allocates a span or request identifier.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span; the caller allocated s.ID beforehand when
// children need it as their parent.
func (t *tracer) record(s span, start, end time.Time) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	s.Start, s.End = start.Sub(t.t0), end.Sub(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byLayer returns the durations of every span of one layer (and op, when
// op is non-empty), in milliseconds.
func (t *tracer) byLayer(layer, op string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Layer == layer && (op == "" || s.Op == op) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns, per layer, the self time in milliseconds per unit of
// work that entered the layer: each span's duration minus the part of it
// its children cover, summed, over the number of distinct requests with a
// span in that layer. Layers no request entered are absent.
func (t *tracer) selfTimes() map[string]float64 {
	spans := t.snapshot()
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := map[string]float64{}
	reqs := map[string]map[uint64]bool{}
	for _, s := range spans {
		total[s.Layer] += ms(s.dur() - covered(s, children[s.ID]))
		if reqs[s.Layer] == nil {
			reqs[s.Layer] = map[uint64]bool{}
		}
		reqs[s.Layer][s.Req] = true
	}
	for layer := range total {
		total[layer] /= float64(len(reqs[layer]))
	}
	return total
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// writeFile writes one JSON span per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memWatch samples the live heap while a window runs and reads the
// cumulative allocation counter at its edges. Both come from
// runtime/metrics, which does not stop the world.
type memWatch struct {
	stop, done chan struct{}
	peak       uint64
	alloc0     uint64
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func watchMemory() *memWatch {
	m := &memWatch{stop: make(chan struct{}), done: make(chan struct{}), alloc0: readMetric(heapAllocs)}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapObjects}}
		for {
			metrics.Read(s)
			m.peak = max(m.peak, s[0].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops sampling and returns the peak in-use heap and the bytes
// allocated since watchMemory, both in MiB.
func (m *memWatch) finish() (peakMiB, allocMiB float64) {
	allocated := readMetric(heapAllocs) - m.alloc0
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20), float64(allocated) / (1 << 20)
}
