// Package crashtest kills the real urpsm-serve daemon with SIGKILL at
// random points of a lockstep replay and proves that recovery is
// invisible: the concatenated decision stream across every crash is
// byte-identical to an uninterrupted run, which in turn matches the
// offline reference engine. kill -9 becomes just another replay.
//
// The harness execs the actual binary (built from this repo) rather than
// an in-process server, so the fsync/rename/replay path is exercised
// across real process boundaries. Knobs, for the CI smoke and the chaos
// variant (scripts/crash-smoke.sh, make crash-chaos):
//
//	CRASH_SEED   kill-schedule seed (default 1)
//	CRASH_SCALE  workload scale, 0.1 = 1500 requests (default 0.02)
//	CRASH_KILLS  mid-request kills; one traffic-concurrent kill is
//	             always added on top (default 3)
package crashtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/wal"
	"repro/internal/workload"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

func envFloat(name string, def float64) float64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return def
}

// fixture is the generated city + workload shared by both runs, written
// to disk in the daemon's file formats.
type fixture struct {
	g       *roadnet.Graph
	inst    *workload.Instance
	reqs    []*core.Request // release-sorted
	events  []roadnet.TrafficEvent
	netF    string
	loadF   string
	binPath string
}

func buildFixture(t *testing.T, scale float64) *fixture {
	t.Helper()
	dir := t.TempDir()

	p := workload.ChengduLike(scale)
	gen, err := roadnet.Generate(p.Net)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	built, err := workload.BuildOn(p, gen, shortest.NewBiDijkstra(gen).Dist)
	if err != nil {
		t.Fatalf("build workload: %v", err)
	}
	netF := filepath.Join(dir, "city.net")
	nf, err := os.Create(netF)
	if err != nil {
		t.Fatal(err)
	}
	if err := roadnet.Write(nf, gen); err != nil {
		t.Fatalf("write net: %v", err)
	}
	nf.Close()
	loadF := filepath.Join(dir, "city.load")
	lf, err := os.Create(loadF)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteStream(lf, built); err != nil {
		t.Fatalf("write load: %v", err)
	}
	lf.Close()

	// Re-read the graph and instance through the on-disk formats: their
	// coordinates and costs round to %.3f, and bit-exact equivalence
	// requires the daemon (which reads these files), the lockstep client
	// and the offline reference to share the exact same floats.
	nr, err := os.Open(netF)
	if err != nil {
		t.Fatal(err)
	}
	g, err := roadnet.Read(nr)
	nr.Close()
	if err != nil {
		t.Fatalf("re-read net: %v", err)
	}
	lr, err := os.Open(loadF)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.ReadStream(lr, g)
	lr.Close()
	if err != nil {
		t.Fatalf("re-read load: %v", err)
	}
	reqs := append([]*core.Request(nil), inst.Requests...)
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Release != reqs[j].Release {
			return reqs[i].Release < reqs[j].Release
		}
		return reqs[i].ID < reqs[j].ID
	})
	if len(reqs) < 20 {
		t.Fatalf("workload too small: %d requests", len(reqs))
	}

	// Two congestion waves at ~30% and ~60% of the trace, the second on a
	// later release so event times stay strictly increasing.
	e1At := reqs[len(reqs)*3/10].Release
	j := len(reqs) * 6 / 10
	for j < len(reqs) && reqs[j].Release <= e1At {
		j++
	}
	events := []roadnet.TrafficEvent{
		{At: e1At, Updates: []roadnet.TrafficUpdate{{Factor: 1.7}}},
	}
	if j < len(reqs) {
		events = append(events, roadnet.TrafficEvent{
			At: reqs[j].Release,
			Updates: []roadnet.TrafficUpdate{
				{Factor: 2.2, Class: "motorway"},
				{Factor: 1.3},
			},
		})
	}

	bin := filepath.Join(dir, "urpsm-serve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/urpsm-serve")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build urpsm-serve: %v\n%s", err, out)
	}

	return &fixture{g: g, inst: inst, reqs: reqs, events: events,
		netF: netF, loadF: loadF, binPath: bin}
}

// lockedBuf collects daemon output from the exec-spawned copier
// goroutines and the harness goroutine concurrently.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) WriteString(s string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.WriteString(s)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon manages one urpsm-serve process over its crash/restart cycles.
type daemon struct {
	t      *testing.T
	fix    *fixture
	walDir string
	extra  []string // appended flags; a repeated flag overrides the default
	cmd    *exec.Cmd
	base   string // http://host:port
	out    lockedBuf

	starts    int
	recovered int // cumulative records replayed across restarts
}

// start launches the daemon and blocks until it prints its bound
// address (-addr 127.0.0.1:0 makes the kernel pick a free port).
func (d *daemon) start() {
	d.t.Helper()
	args := []string{
		"-net", d.fix.netF, "-load", d.fix.loadF,
		"-oracle", "hub", "-addr", "127.0.0.1:0",
		"-wal", d.walDir, "-wal-checkpoint-bytes", "16384"}
	args = append(args, d.extra...)
	cmd := exec.Command(d.fix.binPath, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		d.t.Fatal(err)
	}
	cmd.Stderr = &d.out
	if err := cmd.Start(); err != nil {
		d.t.Fatalf("start daemon: %v", err)
	}
	d.cmd = cmd
	d.starts++

	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		d.out.WriteString(line + "\n")
		if strings.HasPrefix(line, "wal ") && strings.Contains(line, "recovered") {
			var n, torn int
			if _, err := fmt.Sscanf(line[strings.Index(line, "recovered"):],
				"recovered %d records (%d torn bytes discarded)", &n, &torn); err == nil {
				d.recovered += n
			}
		}
		if rest, ok := strings.CutPrefix(line, "urpsm-serve on "); ok {
			if i := strings.Index(rest, ": net="); i >= 0 {
				addr = rest[:i]
			}
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		d.t.Fatalf("daemon never printed its address; output:\n%s", d.out.String())
	}
	d.base = "http://" + addr
	go io.Copy(&d.out, stdout) // keep draining so the daemon never blocks on a full pipe
}

// kill is the crash under test: SIGKILL, no warning, no flush.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// shutdown is the graceful path: SIGTERM must drain, checkpoint and
// exit 0.
func (d *daemon) shutdown() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatalf("signal: %v", err)
	}
	if err := d.cmd.Wait(); err != nil {
		d.t.Fatalf("daemon exited non-zero on SIGTERM: %v\noutput:\n%s", err, d.out.String())
	}
}

// runner drives the lockstep replay against a daemon, crashing it at
// the scheduled points and recording the canonical decision stream.
type runner struct {
	t      *testing.T
	d      *daemon
	client *http.Client
	fix    *fixture
	rng    *rand.Rand

	// killAt maps request index -> kill mode.
	killAt      map[int]killMode
	trafficKill bool

	stream bytes.Buffer
	stats  serve.Stats
}

type killMode int

const (
	killNone      killMode = iota
	killMidFlight          // SIGKILL while the request is in flight
	killAfterAck           // SIGKILL right after the decision was acknowledged
)

func (x *runner) run() {
	x.t.Helper()
	x.d.start()
	next := 0
	for i, r := range x.fix.reqs {
		for next < len(x.fix.events) && x.fix.events[next].At <= r.Release {
			x.applyTraffic(next, x.trafficKill && next == 0)
			next++
		}
		d := x.decide(r, x.killAt[i])
		if d.ID != int32(r.ID) {
			x.t.Fatalf("request %d: decision echoes id %d", r.ID, d.ID)
		}
		fmt.Fprintf(&x.stream, "%d %t %d %016x %016x\n",
			d.ID, d.Accepted, d.Worker,
			math.Float64bits(d.Delta), math.Float64bits(d.SimTime))
	}
	x.stats = x.getStats()
	x.d.shutdown()
}

// applyTraffic advances the server to traffic epoch n+1 exactly once,
// surviving a concurrent SIGKILL: updates carry absolute factors and the
// epoch counter tells whether the killed POST landed, so the retry loop
// can never double-apply.
func (x *runner) applyTraffic(n int, kill bool) {
	x.t.Helper()
	e := x.fix.events[n]
	if kill {
		done := make(chan struct{})
		go func() {
			defer close(done)
			x.postTraffic(e) // racing the kill; outcome resolved below
		}()
		time.Sleep(time.Duration(x.rng.Intn(2000)) * time.Microsecond)
		x.d.kill()
		<-done
		x.d.start()
	}
	for tries := 0; x.getStats().TrafficEpoch < uint64(n+1); tries++ {
		if tries > 3 {
			x.t.Fatalf("traffic event %d not applied after %d tries", n, tries)
		}
		if err := x.postTraffic(e); err != nil {
			x.t.Fatalf("traffic event %d: %v", n, err)
		}
	}
}

func (x *runner) decide(r *core.Request, mode killMode) serve.Decision {
	x.t.Helper()
	switch mode {
	case killAfterAck:
		d := x.mustPost(r)
		x.d.kill()
		x.d.start()
		return d
	case killMidFlight:
		type res struct {
			d   serve.Decision
			err error
		}
		c := make(chan res, 1)
		go func() {
			d, err := x.postRequest(r)
			c <- res{d, err}
		}()
		time.Sleep(time.Duration(x.rng.Intn(3000)) * time.Microsecond)
		x.d.kill()
		got := <-c
		x.d.start()
		if got.err == nil {
			// The ack outran the kill; the decision is durable by the
			// sync-before-ack invariant.
			return got.d
		}
		// Crashed-ack ambiguity: the decision may have committed with its
		// ack lost, or never happened. The decisions endpoint resolves it.
		if d, ok := x.storedDecision(int32(r.ID)); ok {
			return d
		}
		return x.mustPost(r) // never durable: resending is safe
	default:
		return x.mustPost(r)
	}
}

func (x *runner) mustPost(r *core.Request) serve.Decision {
	x.t.Helper()
	d, err := x.postRequest(r)
	if err != nil {
		x.t.Fatalf("request %d: %v\ndaemon output:\n%s", r.ID, err, x.d.out.String())
	}
	return d
}

func (x *runner) postRequest(r *core.Request) (serve.Decision, error) {
	id, rel := int32(r.ID), r.Release
	body := serve.Request{
		ID: &id, Origin: int64(r.Origin), Dest: int64(r.Dest),
		Release: &rel, Deadline: r.Deadline, Penalty: r.Penalty,
		Capacity: r.Capacity,
	}
	var d serve.Decision
	if err := x.postJSON("/v1/requests", body, &d); err != nil {
		return serve.Decision{}, err
	}
	return d, nil
}

func (x *runner) postTraffic(e roadnet.TrafficEvent) error {
	at := e.At
	var res serve.TrafficResult
	return x.postJSON("/v1/traffic", serve.TrafficRequest{At: &at, Updates: e.Updates}, &res)
}

func (x *runner) postJSON(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := x.client.Post(x.d.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

func (x *runner) storedDecision(id int32) (serve.Decision, bool) {
	x.t.Helper()
	resp, err := x.client.Get(fmt.Sprintf("%s/v1/decisions/%d", x.d.base, id))
	if err != nil {
		x.t.Fatalf("decisions/%d: %v", id, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var d serve.Decision
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			x.t.Fatalf("decisions/%d: %v", id, err)
		}
		return d, true
	case http.StatusNotFound:
		return serve.Decision{}, false
	default:
		x.t.Fatalf("decisions/%d: unexpected status %d", id, resp.StatusCode)
		return serve.Decision{}, false
	}
}

func (x *runner) getStats() serve.Stats {
	x.t.Helper()
	resp, err := x.client.Get(x.d.base + "/v1/stats")
	if err != nil {
		x.t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		x.t.Fatalf("stats: %v", err)
	}
	return st
}

// TestCrashRecoveryEquivalence is the headline guarantee: SIGKILL the
// daemon at seeded random points of a lockstep replay (mid-request,
// right after an ack, and concurrently with a traffic update), restart
// it on the same WAL directory each time, and the decision stream the
// clients assemble — using only the public recovery protocol
// (GET /v1/decisions/{id} for in-flight requests, the traffic epoch for
// updates) — is byte-identical to an uninterrupted daemon run, which is
// itself bit-identical to the offline reference engine.
func TestCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness execs the real daemon; skipped in -short")
	}
	seed := int64(envInt("CRASH_SEED", 1))
	scale := envFloat("CRASH_SCALE", 0.02)
	nkills := envInt("CRASH_KILLS", 3)

	fix := buildFixture(t, scale)
	t.Logf("fixture: |V|=%d requests=%d workers=%d traffic-events=%d seed=%d kills=%d+1",
		fix.g.NumVertices(), len(fix.reqs), len(fix.inst.Workers), len(fix.events), seed, nkills)

	// The kill schedule: nkills distinct request indices (mode chosen per
	// kill), plus one kill racing the first traffic POST.
	rng := rand.New(rand.NewSource(seed))
	killAt := make(map[int]killMode, nkills)
	for len(killAt) < nkills && len(killAt) < len(fix.reqs)-1 {
		i := 1 + rng.Intn(len(fix.reqs)-1)
		if _, dup := killAt[i]; dup {
			continue
		}
		if rng.Intn(3) == 0 {
			killAt[i] = killAfterAck
		} else {
			killAt[i] = killMidFlight
		}
	}

	client := &http.Client{Timeout: 30 * time.Second}

	// Reference: one daemon, no crashes.
	ref := &runner{t: t, fix: fix, client: client,
		rng: rand.New(rand.NewSource(seed + 1)),
		d:   &daemon{t: t, fix: fix, walDir: t.TempDir()}}
	ref.run()

	// Crashy: same trace, SIGKILL at every scheduled point.
	crashy := &runner{t: t, fix: fix, client: client,
		rng:    rand.New(rand.NewSource(seed + 2)),
		d:      &daemon{t: t, fix: fix, walDir: t.TempDir()},
		killAt: killAt, trafficKill: true}
	crashy.run()

	t.Logf("crashy run: %d starts, %d records replayed across recoveries", crashy.d.starts, crashy.d.recovered)
	if want := nkills + 2; crashy.d.starts != want {
		t.Errorf("crashy run made %d starts, want %d (one per kill plus the first)", crashy.d.starts, want)
	}

	if !bytes.Equal(ref.stream.Bytes(), crashy.stream.Bytes()) {
		t.Fatalf("decision streams diverge:\n--- uninterrupted ---\n%s--- crashed %d times ---\n%s",
			firstDiff(ref.stream.String(), crashy.stream.String()), len(killAt)+1, "")
	}

	// The stats the two daemons report at end of trace must agree on
	// every replay-deterministic field.
	type cmp struct {
		name string
		a, b any
	}
	rs, cs := ref.stats, crashy.stats
	for _, c := range []cmp{
		{"requests", rs.Requests, cs.Requests},
		{"accepted", rs.Accepted, cs.Accepted},
		{"rejected", rs.Rejected, cs.Rejected},
		{"completions", rs.Completions, cs.Completions},
		{"late_arrivals", rs.LateArrivals, cs.LateArrivals},
		{"late_admissions", rs.LateAdmissions, cs.LateAdmissions},
		{"traffic_epoch", rs.TrafficEpoch, cs.TrafficEpoch},
		{"infeasible_stops", rs.InfeasibleStops, cs.InfeasibleStops},
		{"sim_time", math.Float64bits(rs.SimTime), math.Float64bits(cs.SimTime)},
		{"penalty_sum", math.Float64bits(rs.PenaltySum), math.Float64bits(cs.PenaltySum)},
		{"total_distance", math.Float64bits(rs.TotalDistance), math.Float64bits(cs.TotalDistance)},
	} {
		if c.a != c.b {
			t.Errorf("final stats diverge on %s: uninterrupted %v, crashy %v", c.name, c.a, c.b)
		}
	}

	// Graceful shutdown leaves both WAL dirs at rest: state in the
	// checkpoint, log truncated to a bare segment header.
	for _, d := range []*daemon{ref.d, crashy.d} {
		if _, err := os.Stat(filepath.Join(d.walDir, wal.CheckpointName)); err != nil {
			t.Errorf("missing checkpoint after shutdown: %v", err)
		}
		if fi, err := os.Stat(filepath.Join(d.walDir, wal.SegmentName)); err != nil {
			t.Errorf("missing segment after shutdown: %v", err)
		} else if fi.Size() != wal.HeaderSize {
			t.Errorf("segment not truncated after shutdown: %d bytes, want %d", fi.Size(), wal.HeaderSize)
		}
	}

	// Anchor the uninterrupted run to the offline reference engine: the
	// daemon chain ends at the same decisions the paper pipeline makes.
	oracle, kind, err := cliutil.BuildOracle("hub", fix.g)
	if err != nil {
		t.Fatal(err)
	}
	profile := &roadnet.TrafficProfile{Events: fix.events}
	offline, _, err := serve.OfflineDecisions(fix.g, fix.inst, oracle, kind, 1, profile)
	if err != nil {
		t.Fatalf("offline reference: %v", err)
	}
	var offStream bytes.Buffer
	for _, r := range fix.reqs {
		d, ok := offline[int32(r.ID)]
		if !ok {
			t.Fatalf("offline reference has no decision for request %d", r.ID)
		}
		fmt.Fprintf(&offStream, "%d %t %d %016x %016x\n",
			d.ID, d.Accepted, d.Worker,
			math.Float64bits(d.Delta), math.Float64bits(d.SimTime))
	}
	if !bytes.Equal(offStream.Bytes(), ref.stream.Bytes()) {
		t.Fatalf("uninterrupted daemon diverges from offline reference:\n%s",
			firstDiff(offStream.String(), ref.stream.String()))
	}
}

// firstDiff renders the first few lines where two streams disagree.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		av, bv := "", ""
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("line %d:\n  a: %q\n  b: %q", i+1, av, bv)
		}
	}
	return "(no line-level difference)"
}
