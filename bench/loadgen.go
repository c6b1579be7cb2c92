package main

// The open-loop load generator of the serve-* workloads. One pacer goroutine
// walks a seeded Poisson schedule; each request runs in its own goroutine
// straight into Handler().ServeHTTP — no socket, no connection parsing — and
// is timed from the instant it was due, so a stall in the generator or the
// server charges every request it delayed (choosing-metrics §5).

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sloMs is the latency limit of loadgen.slo_ok_frac.
const sloMs = 100.0

// lagLimitMs is how late the pacer may run (p99) before the run is invalid:
// 50 ms, beyond which it was not the program that held it up but the box. A
// compute-bound workload runs on one thread that is never free, and a few
// thousand handler goroutines queue for it beside the pacer (lag 25-40 ms
// against latencies of a second, and charged to the requests like any other
// wait), so the limit there is the latency limit itself.
func lagLimitMs(p params) float64 {
	if p.ComputeBound {
		return sloMs
	}
	return 50
}

// decision is the POST /v1/requests response body (FORMATS.md §5) as far as
// the harness checks it.
type decision struct {
	ID       int32   `json:"id"`
	Accepted bool    `json:"accepted"`
	Worker   int32   `json:"worker"`
	Delta    float64 `json:"delta"`
	SimTime  float64 `json:"sim_time"`
	Batch    int     `json:"batch"`
	WaitMs   float64 `json:"wait_ms"`
	Shed     bool    `json:"shed"`
}

// poissonSchedule returns due offsets (ns) of a rate-rps Poisson process
// over [0, horizon).
func poissonSchedule(seed int64, rps float64, horizon time.Duration) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var due []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rps
		ns := int64(t * 1e9)
		if ns >= horizon.Nanoseconds() {
			return due
		}
		due = append(due, ns)
	}
}

// renderBody is the wire body of request d due at dueNs: its release is the
// due offset on the simulation clock and its deadline keeps d's time budget.
func renderBody(d demand, dueNs int64, clockX float64) []byte {
	release := float64(dueNs) / 1e9 * clockX
	b := make([]byte, 0, 160)
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(d.ID), 10)
	b = append(b, `,"origin":`...)
	b = strconv.AppendInt(b, d.Origin, 10)
	b = append(b, `,"dest":`...)
	b = strconv.AppendInt(b, d.Dest, 10)
	b = append(b, `,"release":`...)
	b = strconv.AppendFloat(b, release, 'g', -1, 64)
	b = append(b, `,"deadline":`...)
	b = strconv.AppendFloat(b, release+(d.Deadline-d.Release), 'g', -1, 64)
	b = append(b, `,"penalty":`...)
	b = strconv.AppendFloat(b, d.Penalty, 'g', -1, 64)
	b = append(b, `,"capacity":`...)
	b = strconv.AppendInt(b, int64(d.Capacity), 10)
	return append(b, '}')
}

// memWriter is the in-process http.ResponseWriter.
type memWriter struct {
	hdr    http.Header
	status int
	buf    []byte
}

func (w *memWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}

func (w *memWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

var writerPool = sync.Pool{New: func() any { return new(memWriter) }}

// gate is the handler requests go to. Holding it exclusively drains every
// in-flight request and parks new ones — the crash/recovery of serve-churn
// swaps the handler under it, so requests due during the outage wait for
// the recovered server and are timed from their due time all the same.
type gate struct {
	mu sync.RWMutex
	h  http.Handler
}

func (g *gate) serve(w http.ResponseWriter, r *http.Request) (enter time.Time) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	enter = time.Now()
	g.h.ServeHTTP(w, r)
	return enter
}

func newRequest(method string, u *url.URL, body []byte) *http.Request {
	r := &http.Request{
		Method: method, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Host: "bench", RequestURI: u.Path, Body: http.NoBody,
	}
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	return r
}

// call runs one request through the gate and returns the status, the body
// (valid until the next call on this goroutine's writer is released), and
// the handler's enter/exit instants.
func (g *gate) call(method string, u *url.URL, body []byte, use func(status int, resp []byte)) (enter, exit time.Time) {
	w := writerPool.Get().(*memWriter)
	w.status, w.buf = 0, w.buf[:0]
	clear(w.hdr)
	enter = g.serve(w, newRequest(method, u, body))
	exit = time.Now()
	use(w.status, w.buf)
	writerPool.Put(w)
	return enter, exit
}

// sent is everything the generator keeps about one request.
type sent struct {
	dueNs   int64 // schedule offset
	firedNs int64 // when the pacer actually launched it
	enterNs int64 // handler enter
	exitNs  int64 // handler return = decision received
	status  int
	dec     decision
	badBody bool
}

func (s *sent) latencyMs() float64 { return float64(s.exitNs-s.dueNs) / 1e6 }

// answer is what a request got back.
type answer uint8

const (
	ansFailed   answer = iota // transport error, 5xx, malformed body, or another request's id
	ansAccepted               // 200, planned and accepted
	ansRejected               // 200, planned and rejected
	ansShed                   // 429, turned away by the overload policy
)

func (s *sent) answer(wantID int32) answer {
	switch {
	case s.badBody || s.dec.ID != wantID:
		return ansFailed
	case s.status == http.StatusOK && !s.dec.Shed && s.dec.Accepted:
		return ansAccepted
	case s.status == http.StatusOK && !s.dec.Shed:
		return ansRejected
	case s.status == http.StatusTooManyRequests && s.dec.Shed:
		return ansShed
	}
	return ansFailed
}

type loadgen struct {
	g        *gate
	start    time.Time
	bodies   [][]byte
	recs     []sent
	inflight atomic.Int64
}

var requestsURL = &url.URL{Path: "/v1/requests"}

func (lg *loadgen) do(i int) {
	rec := &lg.recs[i]
	enter, exit := lg.g.call("POST", requestsURL, lg.bodies[i], func(status int, resp []byte) {
		rec.status = status
		if status == http.StatusOK || status == http.StatusTooManyRequests {
			rec.badBody = json.Unmarshal(resp, &rec.dec) != nil
		}
	})
	rec.enterNs = enter.Sub(lg.start).Nanoseconds()
	rec.exitNs = exit.Sub(lg.start).Nanoseconds()
	lg.inflight.Add(-1)
}

// run fires the whole schedule and returns once every request was answered.
// The pacer sleeps until the next due time and then launches everything that
// has come due; it never spins, so it does not take a core from the server.
func (lg *loadgen) run() {
	var wg sync.WaitGroup
	for i := range lg.recs {
		if d := time.Until(lg.start.Add(time.Duration(lg.recs[i].dueNs))); d > 0 {
			time.Sleep(d)
		}
		lg.recs[i].firedNs = time.Since(lg.start).Nanoseconds()
		lg.inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lg.do(i)
		}(i)
	}
	wg.Wait()
}

// promSnapshot is what the harness reads from GET /metrics: the four latency
// histograms' sums and counts, and the WAL-sync buckets for a median.
type promSnapshot struct {
	sum, count map[string]float64
	syncLE     []float64
	syncCum    []float64
}

var metricsURL = &url.URL{Path: "/metrics"}

func scrapeMetrics(h http.Handler) promSnapshot {
	ps := promSnapshot{sum: map[string]float64{}, count: map[string]float64{}}
	(&gate{h: h}).call("GET", metricsURL, nil, func(_ int, resp []byte) {
		for _, line := range strings.Split(string(resp), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			switch {
			case strings.HasSuffix(name, "_sum"):
				ps.sum[strings.TrimSuffix(name, "_sum")] = v
			case strings.HasSuffix(name, "_count"):
				ps.count[strings.TrimSuffix(name, "_count")] = v
			case strings.HasPrefix(name, syncBucket):
				le := strings.TrimSuffix(strings.TrimPrefix(name, syncBucket), `"}`)
				if b, err := strconv.ParseFloat(le, 64); err == nil { // "+Inf" parses too
					ps.syncLE = append(ps.syncLE, b)
					ps.syncCum = append(ps.syncCum, v)
				}
			}
		}
	})
	return ps
}

const syncBucket = `urpsm_wal_sync_seconds_bucket{le="`

// medianFromBuckets reads the median off a cumulative histogram (upper
// bounds le, cumulative counts cum), interpolating inside the median's
// bucket the way Prometheus' histogram_quantile does. Milliseconds.
func medianFromBuckets(le, cum []float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] <= 0 {
		return 0
	}
	half := cum[len(cum)-1] / 2
	prevLE, prevCum := 0.0, 0.0
	for i, b := range le {
		if cum[i] >= half {
			if cum[i] == prevCum || i == len(le)-1 {
				return prevLE * 1e3
			}
			return (prevLE + (b-prevLE)*(half-prevCum)/(cum[i]-prevCum)) * 1e3
		}
		prevLE, prevCum = b, cum[i]
	}
	return prevLE * 1e3
}
