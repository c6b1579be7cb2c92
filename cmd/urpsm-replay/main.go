// Command urpsm-replay streams a workload file against a running
// urpsm-serve daemon, measuring client-observed request latency — and, in
// -lockstep mode, proving that the served decisions are bit-identical to
// an offline sim.Engine run of the same instance (DESIGN.md §9.3).
//
//	urpsm-replay -net city.net -load city.load -addr :8650 -lockstep
//	urpsm-replay -net city.net -load city.load -addr :8650 -speedup 60
//
// Modes:
//
//   - -lockstep: requests are sent strictly sequentially in release order
//     (each waits for its decision), which pins the server's processing
//     order to the offline engine's; afterwards every accept/reject
//     decision, worker assignment and Δ* is compared bit-for-bit against
//     the offline reference. Exit status 1 on any mismatch.
//
//   - -speedup S: requests are fired concurrently on the workload's own
//     release schedule compressed by S (e.g. 60 = an hour of trace per
//     minute), exercising group commit under load. S = 0 streams
//     as fast as the server admits. No equivalence claim is made —
//     concurrent delivery may reorder arrivals (see DESIGN.md §9.3).
//
// Both modes retry 429/503 responses with jittered exponential backoff
// honoring the server's Retry-After hint (-retries bounds the attempts);
// the retry total is reported in the summary. Both report
// accepted/rejected counts and p50/p95/p99 latency. Capacity under
// overload is measured by `go run ./bench --workload serve-overload`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		netFile  = flag.String("net", "", "road-network file (required)")
		loadFile = flag.String("load", "", "workload file with the requests to replay (required)")
		traffic  = flag.String("traffic", "", "traffic profile (urpsm-traffic format) injected via POST /v1/traffic on the trace's schedule")
		addr     = flag.String("addr", "127.0.0.1:8650", "server address (host:port or URL)")
		oracle   = cliutil.OracleFlag("auto")
		speedup  = flag.Float64("speedup", 0, "replay speed: 0 = as fast as possible, S = trace time compressed by S")
		lockstep = flag.Bool("lockstep", false, "sequential replay + bit-identical comparison against an offline sim.Engine run")
		n        = flag.Int("n", 0, "replay only the first n requests (0 = all)")
		alpha    = flag.Float64("alpha", 1, "unified-cost weight α of the offline reference (must match the server)")
		wait     = flag.Duration("wait", 10*time.Second, "how long to wait for the server to come up")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		explain  = flag.Int64("explain", -1, "after the replay, fetch GET /v1/decisions/{id}/explain for this request id and print it (requires server tracing; -1 = off)")
		retries  = flag.Int("retries", 4, "closed-loop: max resends per request on 429/503, with jittered exponential backoff honoring Retry-After (0 = fail on the first shed)")
		seed     = flag.Int64("seed", 1, "seed of the retry backoff jitter")
	)
	flag.Parse()
	if err := run(*netFile, *loadFile, *traffic, *addr, *oracle, *speedup, *n,
		*alpha, *wait, *timeout, *lockstep, *explain, *retries, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "urpsm-replay:", err)
		os.Exit(1)
	}
}

// outcome pairs a decision with its client-observed latency.
type outcome struct {
	d       serve.Decision
	rttMs   float64
	httpErr error
}

func run(netFile, loadFile, trafficFile, addr, oracleKind string, speedup float64, n int,
	alpha float64, wait, timeout time.Duration, lockstep bool, explainID int64,
	retries int, seed int64) error {
	if netFile == "" || loadFile == "" {
		return fmt.Errorf("-net and -load are required")
	}
	if err := cliutil.CheckOracle(oracleKind); err != nil {
		return err
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")

	nf, err := os.Open(netFile)
	if err != nil {
		return err
	}
	g, err := roadnet.Read(nf)
	nf.Close()
	if err != nil {
		return err
	}
	lf, err := os.Open(loadFile)
	if err != nil {
		return err
	}
	inst, err := workload.ReadStream(lf, g)
	lf.Close()
	if err != nil {
		return err
	}

	// Replay in the engine's processing order: stable by release. With a
	// -n cap the offline reference sees the same truncated instance.
	reqs := append([]*core.Request(nil), inst.Requests...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Release < reqs[j].Release })
	if n > 0 && n < len(reqs) {
		reqs = reqs[:n]
	}
	if len(reqs) == 0 {
		return fmt.Errorf("no requests to replay")
	}

	// An injected traffic profile follows the engine's timeline rule: an
	// event fires before the first request released at or after its time.
	// Events dated after the last request could not influence any
	// decision, so they are dropped from both sides of the comparison.
	var profile *roadnet.TrafficProfile
	if trafficFile != "" {
		tf, err := os.Open(trafficFile)
		if err != nil {
			return err
		}
		profile, err = roadnet.ReadTrafficProfile(tf, g)
		tf.Close()
		if err != nil {
			return err
		}
		lastRelease := reqs[len(reqs)-1].Release
		kept := profile.Events[:0]
		for _, e := range profile.Events {
			if e.At <= lastRelease {
				kept = append(kept, e)
			}
		}
		if dropped := len(profile.Events) - len(kept); dropped > 0 {
			fmt.Printf("traffic: dropping %d event(s) dated after the last request\n", dropped)
		}
		profile.Events = kept
	}

	client := &http.Client{Timeout: timeout}
	if err := waitReady(client, base, wait); err != nil {
		return err
	}

	fmt.Printf("replaying %d requests from %s to %s (mode: %s)\n",
		len(reqs), loadFile, base, mode(lockstep, speedup))

	rt := &retrier{client: client, base: base, max: retries,
		rng: rand.New(rand.NewSource(seed))}
	start := time.Now()
	var outcomes []outcome
	if lockstep {
		outcomes, err = replaySequential(rt, reqs, profile)
	} else {
		outcomes, err = replayPaced(rt, reqs, profile, speedup)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	accepted, rejected, failed := 0, 0, 0
	var lat []float64
	for _, o := range outcomes {
		if o.httpErr != nil {
			failed++
			continue
		}
		lat = append(lat, o.rttMs)
		if o.d.Accepted {
			accepted++
		} else {
			rejected++
		}
	}
	fmt.Printf("done in %.2fs: %d accepted, %d rejected, %d failed (%.0f req/s)\n",
		elapsed.Seconds(), accepted, rejected, failed,
		float64(len(outcomes))/elapsed.Seconds())
	if nr := rt.retries.Load(); nr > 0 {
		fmt.Printf("retries: %d resend(s) after 429/503, backoff honored Retry-After\n", nr)
	}
	fmt.Printf("latency ms: p50=%.3f p95=%.3f p99=%.3f\n",
		sim.Percentile(lat, 0.50), sim.Percentile(lat, 0.95), sim.Percentile(lat, 0.99))
	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}
	if explainID >= 0 {
		if err := fetchExplain(client, base, explainID); err != nil {
			return err
		}
	}

	if !lockstep {
		return nil
	}
	oracle, resolved, err := cliutil.BuildOracle(oracleKind, g)
	if err != nil {
		return err
	}
	offInst := &workload.Instance{Graph: g, Workers: inst.Workers, Requests: reqs}
	want, _, err := serve.OfflineDecisions(g, offInst, oracle, resolved, alpha, profile)
	if err != nil {
		return err
	}
	mismatches := 0
	for _, o := range outcomes {
		w, ok := want[o.d.ID]
		if !ok {
			mismatches++
			if mismatches <= 5 {
				fmt.Fprintf(os.Stderr, "request %d: no offline decision\n", o.d.ID)
			}
			continue
		}
		if o.d.Accepted != w.Accepted || o.d.Worker != w.Worker || o.d.Delta != w.Delta {
			mismatches++
			if mismatches <= 5 {
				fmt.Fprintf(os.Stderr,
					"request %d: served (accepted=%v worker=%d delta=%v) != offline (accepted=%v worker=%d delta=%v)\n",
					o.d.ID, o.d.Accepted, o.d.Worker, o.d.Delta, w.Accepted, w.Worker, w.Delta)
			}
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("lockstep FAILED: %d/%d decisions differ from the offline engine", mismatches, len(outcomes))
	}
	fmt.Printf("lockstep OK: %d decisions bit-identical to the offline engine (oracle=%s)\n",
		len(outcomes), resolved)
	return nil
}

func mode(lockstep bool, speedup float64) string {
	if lockstep {
		return "lockstep"
	}
	if speedup > 0 {
		return fmt.Sprintf("paced, speedup %gx", speedup)
	}
	return "paced, full speed"
}

// fetchExplain prints the server's decision introspection for one
// request (GET /v1/decisions/{id}/explain, FORMATS.md §9) — candidate
// counts, Lemma 8 prunes, the chosen insertion and the Eq. 2 marginal
// economics, or the rejection reason.
func fetchExplain(client *http.Client, base string, id int64) error {
	resp, err := client.Get(fmt.Sprintf("%s/v1/decisions/%d/explain", base, id))
	if err != nil {
		return fmt.Errorf("explain %d: %w", id, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("explain %d: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("explain %d: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(body))
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		return fmt.Errorf("explain %d: %w", id, err)
	}
	fmt.Printf("explain %d:\n%s\n", id, buf.String())
	return nil
}

// waitReady polls /v1/stats until the server answers.
func waitReady(client *http.Client, base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %s", base, wait)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// postDecision posts one request and classifies the response. 200 and
// 429 carry a Decision body; 503 comes back as a bare status for the
// retrier; any other status is an error carrying the server's message.
// Transport and decode failures are errors.
func postDecision(client *http.Client, base string, wire serve.Request) (serve.Decision, int, time.Duration, error) {
	body, err := json.Marshal(wire)
	if err != nil {
		return serve.Decision{}, 0, 0, err
	}
	resp, err := client.Post(base+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Decision{}, 0, 0, err
	}
	defer resp.Body.Close()
	var retryAfter time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusTooManyRequests:
		var d serve.Decision
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			return serve.Decision{}, resp.StatusCode, retryAfter, err
		}
		return d, resp.StatusCode, retryAfter, nil
	case http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return serve.Decision{}, resp.StatusCode, retryAfter, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return serve.Decision{}, resp.StatusCode, retryAfter,
			fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
}

// retrier resends shed (429) and unavailable (503) requests with
// jittered exponential backoff, honoring the server's Retry-After hint
// (DESIGN.md §15). The jitter draws from a seeded source so runs are
// reproducible; the sleep is max(hint, 50ms·2^attempt, capped at 5s)
// plus up to a quarter of that in jitter to de-synchronize clients.
type retrier struct {
	client  *http.Client
	base    string
	max     int // resends allowed per request
	mu      sync.Mutex
	rng     *rand.Rand
	retries atomic.Int64
}

func (rt *retrier) backoff(attempt int, hint time.Duration) time.Duration {
	d := 50 * time.Millisecond << uint(min(attempt, 10))
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	if hint > d {
		d = hint
	}
	rt.mu.Lock()
	jitter := time.Duration(rt.rng.Int63n(int64(d)/4 + 1))
	rt.mu.Unlock()
	return d + jitter
}

// send posts one request until it is decided, shed past the retry
// budget, or failed. The reported latency spans all attempts including
// backoff sleeps — the client-observed time to a verdict.
func (rt *retrier) send(r *core.Request) outcome {
	id := int32(r.ID)
	rel := r.Release
	wire := serve.Request{
		ID: &id, Origin: int64(r.Origin), Dest: int64(r.Dest),
		Release: &rel, Deadline: r.Deadline, Penalty: r.Penalty, Capacity: r.Capacity,
	}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		d, status, hint, err := postDecision(rt.client, rt.base, wire)
		if err != nil {
			return outcome{httpErr: err}
		}
		switch status {
		case http.StatusOK:
			return outcome{d: d, rttMs: float64(time.Since(start).Nanoseconds()) / 1e6}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if ra := time.Duration(d.RetryAfterMs) * time.Millisecond; ra > hint {
				hint = ra
			}
			if attempt >= rt.max {
				return outcome{httpErr: fmt.Errorf(
					"status %d after %d attempt(s): shed by the server; raise -retries or lower the offered load",
					status, attempt+1)}
			}
			rt.retries.Add(1)
			time.Sleep(rt.backoff(attempt, hint))
		default:
			return outcome{httpErr: fmt.Errorf("unexpected status %d", status)}
		}
	}
}

// sendTraffic posts one traffic event (at its trace time) and fails hard
// on rejection: a half-injected profile would silently void the
// equivalence comparison.
func sendTraffic(client *http.Client, base string, e roadnet.TrafficEvent) error {
	at := e.At
	body, _ := json.Marshal(serve.TrafficRequest{At: &at, Updates: e.Updates})
	resp, err := client.Post(base+"/v1/traffic", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("traffic event at %v: %w", e.At, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("traffic event at %v: status %d: %s", e.At, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var tr serve.TrafficResult
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return fmt.Errorf("traffic event at %v: %w", e.At, err)
	}
	fmt.Printf("traffic: epoch %d at t=%g (%d edges changed, %d stops infeasible)\n",
		tr.Epoch, tr.SimTime, tr.ChangedEdges, tr.InfeasibleStops)
	return nil
}

// replaySequential sends each request only after the previous decision
// arrived, pinning the server's processing order for -lockstep. Traffic
// events are injected before the first request released at or after
// their time — exactly when the offline engine's timeline applies them.
func replaySequential(rt *retrier, reqs []*core.Request, profile *roadnet.TrafficProfile) ([]outcome, error) {
	outcomes := make([]outcome, 0, len(reqs))
	next := 0
	var events []roadnet.TrafficEvent
	if profile != nil {
		events = profile.Events
	}
	for _, r := range reqs {
		for next < len(events) && events[next].At <= r.Release {
			if err := sendTraffic(rt.client, rt.base, events[next]); err != nil {
				return nil, err
			}
			next++
		}
		o := rt.send(r)
		if o.httpErr != nil {
			// Sequential replay aborts on the first failure: every later
			// decision would diverge from the offline reference anyway.
			return nil, fmt.Errorf("request %d: %w", r.ID, o.httpErr)
		}
		outcomes = append(outcomes, o)
	}
	return outcomes, nil
}

// replayPaced fires requests on the trace's release schedule compressed
// by speedup (0 = no pacing), each from its own goroutine. Traffic events
// are injected inline on the same schedule (no equivalence claim in this
// mode; see DESIGN.md §9.3).
func replayPaced(rt *retrier, reqs []*core.Request, profile *roadnet.TrafficProfile, speedup float64) ([]outcome, error) {
	outcomes := make([]outcome, len(reqs))
	sem := make(chan struct{}, 256) // bound in-flight requests
	var wg sync.WaitGroup
	start := time.Now()
	t0 := reqs[0].Release
	next := 0
	var events []roadnet.TrafficEvent
	if profile != nil {
		events = profile.Events
	}
	for i, r := range reqs {
		for next < len(events) && events[next].At <= r.Release {
			if err := sendTraffic(rt.client, rt.base, events[next]); err != nil {
				return nil, err
			}
			next++
		}
		if speedup > 0 {
			due := start.Add(time.Duration((r.Release - t0) / speedup * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, r *core.Request) {
			defer wg.Done()
			outcomes[i] = rt.send(r)
			<-sem
		}(i, r)
	}
	wg.Wait()
	return outcomes, nil
}
