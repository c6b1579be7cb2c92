package main

// The harness's own span recorder (choosing-metrics §4): a span at each
// call into a layer — name, start, end, the span that caused it, the request
// it belongs to — kept in memory and written out when the run ends. Spans
// are recorded from bench/ around calls into the program; spans inside the
// program are a later issue.

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

type spanKind uint8

const (
	spanRequest spanKind = iota // one whole plan-offline request (root)
	spanAdvance                 // sim: World.AdvanceAll
	spanPlan                    // core: Greedy.Plan
	spanApply                   // core: Apply + MarkDirty
	spanDist                    // shortest: one Fleet.Dist call
	spanHandler                 // serve: Handler().ServeHTTP for POST /v1/requests
	spanTraffic                 // serve: Handler().ServeHTTP for POST /v1/traffic
	spanRecover                 // serve: NewServer on a WAL directory after Abort
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"request", "sim.advance", "core.plan", "core.apply", "shortest.dist",
	"serve.handler", "serve.traffic", "serve.recover",
}

type span struct {
	kind       spanKind
	parent     int32 // index of the causing span, -1 for a root
	req        int32
	start, end int64 // ns since the tracer's epoch
}

// tracer is not safe for concurrent use: plan-offline records from its one
// goroutine, and the serve workloads add their spans after the run from the
// per-request timestamps the load generator kept.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(kind spanKind, parent, req int32) int32 {
	t.spans = append(t.spans, span{kind: kind, parent: parent, req: req, start: time.Since(t.epoch).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = time.Since(t.epoch).Nanoseconds() }

// add records a span measured elsewhere (absolute wall times).
func (t *tracer) add(kind spanKind, req int32, start, end time.Time) {
	t.spans = append(t.spans, span{kind: kind, parent: -1, req: req,
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()})
}

// layerTimes is the per-kind roll-up: how many spans, their total duration,
// and their self time (duration minus the part their child spans cover).
type layerTimes struct {
	count [numSpanKinds]int64
	total [numSpanKinds]int64
	self  [numSpanKinds]int64
}

func (t *tracer) rollup() layerTimes {
	var lt layerTimes
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.count[s.kind]++
		lt.total[s.kind] += d
		lt.self[s.kind] += d - child[i]
	}
	return lt
}

// write dumps the spans as columnar JSON: {"names":[...],"spans":[[kind,
// parent,request,start_ns,end_ns],...]}. Columnar because plan-offline
// records one span per distance query — hundreds of thousands per run.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"columns":["kind","parent","request","start_ns","end_ns"],"names":[`)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprint(w, `],"spans":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", s.kind, s.parent, s.req, s.start, s.end)
	}
	fmt.Fprint(w, "\n]}\n")
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
