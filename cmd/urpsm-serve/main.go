// Command urpsm-serve is the online dispatch daemon: it loads a road
// network and an initial fleet, then serves URPSM requests over HTTP with
// group-commit admission: whatever is pending when the event loop is free
// is planned, logged and synced as one group (see internal/serve and
// DESIGN.md §9).
//
//	urpsm-serve -net city.net -load city.load -oracle auto -addr :8650
//	urpsm-serve -net city.net -load city.load -wal state/
//
// The -load file supplies the fleet (its workers); its requests, if any,
// are ignored — live requests arrive via POST /v1/requests.
//
// With -wal DIR the daemon write-ahead-logs every admission, decision
// and traffic update to DIR/wal.log (fsynced once per commit group,
// before any decision is acknowledged) and checkpoints the fleet, the
// counters and the traffic overlay's arc factors to DIR/checkpoint.json.
// A restart on DIR resumes exactly where the previous run stopped, after
// a graceful SIGINT/SIGTERM drain or a crash — kill -9 included: the log
// tail replays through the same decide path as live traffic, and a torn
// tail is discarded at the last complete commit group, which by
// construction holds nothing the server ever acknowledged. Without -wal
// no state survives the process. See DESIGN.md §13 and FORMATS.md §7–8.
//
// Overload (DESIGN.md §15): with -max-queue N admission is bounded —
// beyond N pending requests the deterministic shed policy turns away
// the lowest-value request in sight (deadline-infeasible first, then
// lowest rejection penalty p_r) with HTTP 429 + Retry-After, WAL-logged
// so recovery and replay stay bit-exact under overload. With
// -degrade-target D the graceful-degradation ladder watches the p95
// per-group plan time and, after -degrade-window consecutive breaches,
// tightens the queue cap (its one stage), recovering after as many groups
// under half the target.
//
// Traffic (DESIGN.md §11): POST /v1/traffic applies a batch of slowdowns
// and returns once the distance oracle answers on the new weights. The
// daemon keeps the tier -oracle resolved to at start: cch re-customizes in
// milliseconds, hub rebuilds its labels (about 0.9 s at 2.4k vertices)
// while queries wait. Decisions stay bit-identical to the
// offline engine under the same traffic.
//
// Distances: every query goes through one LRU cache, whose misses are the
// dist_queries stat. On hub each admission group is planned against one
// prefetched distance table; cch and bidijkstra plan from point queries.
//
// API: POST /v1/requests, POST /v1/traffic, POST /v1/checkpoint,
// GET /v1/workers/{id}/route, GET /v1/decisions/{id}, GET /v1/stats,
// GET /v1/snapshot, GET /metrics (Prometheus text). See FORMATS.md §5.
//
// With -pprof ADDR the daemon additionally serves net/http/pprof on a
// separate listener (off by default; keep it loopback-only in
// production). See DESIGN.md §10.4 for the profiling walkthrough.
//
// Observability: the daemon keeps a flight recorder of the last
// -trace-events request-lifecycle events (GET /debug/trace, and
// GET /v1/decisions/{id}/explain for per-decision planner introspection);
// -log-level selects the verbosity of the structured stderr log. See
// DESIGN.md §14 and FORMATS.md §9.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/workload"
)

// version is stamped into the urpsm_build_info metric; override at build
// time with -ldflags "-X main.version=v1.2.3".
var version = "dev"

func main() {
	var (
		netFile   = flag.String("net", "", "road-network file (urpsm-roadnet format, required)")
		loadFile  = flag.String("load", "", "workload file supplying the initial fleet (urpsm-workload format, required)")
		oracle    = cliutil.OracleFlag("auto")
		addr      = flag.String("addr", ":8650", "HTTP listen address")
		maxQueue  = flag.Int("max-queue", 0, "bound the pending admission queue: beyond this many requests the lowest-value one is shed with HTTP 429 (0 = unbounded)")
		degTarget = flag.Duration("degrade-target", 0, "p95 per-group plan-time SLO driving the graceful-degradation ladder (0 = ladder disabled)")
		degWindow = flag.Int("degrade-window", serve.DefaultDegradeWindow, "consecutive groups breaching (or clearing) the SLO before the ladder moves a stage")
		gridKm    = flag.Float64("grid", 2, "grid cell size g in km")
		alpha     = flag.Float64("alpha", 1, "unified-cost weight α")
		walDir    = flag.String("wal", "", "write-ahead-log directory: the checkpoint plus log a restart on the same directory resumes from, crash-safe (empty = no state survives the process)")
		walCkpt   = flag.Int64("wal-checkpoint-bytes", serve.DefaultCheckpointBytes, "auto-checkpoint once the log exceeds this size (negative = explicit POST /v1/checkpoint only)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		traceEv   = flag.Int("trace-events", serve.DefaultTraceEvents, "flight-recorder ring capacity in events for /debug/trace and explain (0 = tracing disabled)")
		logLevel  = cliutil.LogLevelFlag("info")
	)
	flag.Parse()
	if err := run(*netFile, *loadFile, *oracle, *addr,
		*gridKm, *alpha, *walDir, *walCkpt, *pprofAddr,
		*traceEv, *logLevel,
		overload{maxQueue: *maxQueue, target: *degTarget, window: *degWindow}); err != nil {
		fmt.Fprintln(os.Stderr, "urpsm-serve:", err)
		os.Exit(1)
	}
}

// overload groups the bounded-admission and degradation-ladder knobs
// (DESIGN.md §15).
type overload struct {
	maxQueue int
	target   time.Duration
	window   int
}

func run(netFile, loadFile, oracleKind, addr string,
	gridKm, alpha float64, walDir string,
	walCkptBytes int64, pprofAddr string,
	traceEvents int, logLevel string, ovl overload) error {
	if netFile == "" || loadFile == "" {
		return fmt.Errorf("-net and -load are required")
	}
	logger, err := cliutil.NewLogger(logLevel)
	if err != nil {
		return err
	}
	if err := cliutil.CheckOracle(oracleKind); err != nil {
		return err
	}
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

	oracle, resolved, err := cliutil.BuildOracle(oracleKind, g)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Graph:           g,
		Workers:         inst.Workers,
		Oracle:          oracle,
		OracleKind:      resolved,
		Alpha:           alpha,
		CellMeters:      gridKm * 1000,
		MaxQueue:        ovl.maxQueue,
		DegradeTarget:   ovl.target,
		DegradeWindow:   ovl.window,
		WALDir:          walDir,
		CheckpointBytes: walCkptBytes,
		TraceEvents:     traceEvents,
		Logger:          logger,
		Version:         version,
	}

	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	if walDir != "" {
		st := srv.Stats()
		fmt.Printf("wal %s: recovered %d records (%d torn bytes discarded), state checkpointed at %d decided requests, traffic epoch %d\n",
			walDir, st.WALRecovered, st.WALTornBytes, st.Requests, st.TrafficEpoch)
	}

	// Listen explicitly so the line below reports the actual bound
	// address: with -addr :0 (crash harness, tests) the kernel picks a
	// free port and clients parse it from this print.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// A hardened server: a stalled or malicious peer cannot hold a
	// connection open indefinitely (slowloris) or feed an unbounded
	// header. The write timeout must cover a queued request's wait — a
	// decision response legitimately blocks until its group is synced —
	// so it is generous rather than tight. Request bodies are bounded
	// per-handler with MaxBytesReader.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 16,
	}

	fmt.Printf("urpsm-serve on %s: net=%s |V|=%d |E|=%d workers=%d oracle=%s algo=%s admission=group-commit max-queue=%d\n",
		ln.Addr(), netFile, g.NumVertices(), g.NumEdges(), len(inst.Workers),
		resolved, srv.Planner(), ovl.maxQueue)

	errC := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errC <- err
		}
	}()

	// Optional profiling listener, separate from the service port so the
	// dispatch API surface never exposes pprof by accident.
	var pprofSrv *http.Server
	if pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// Header-read timeout only: profile endpoints legitimately stream
		// for tens of seconds, so no write timeout here.
		pprofSrv = &http.Server{Addr: pprofAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		logger.Info("pprof listening", "url", "http://"+pprofAddr+"/debug/pprof/")
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errC <- fmt.Errorf("pprof: %w", err)
			}
		}()
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errC:
		return err
	case sig := <-sigC:
		logger.Info("draining", "signal", sig.String())
	}

	// Drain first (new submissions get 503, admitted ones are decided and,
	// with -wal, the final checkpoint is taken), then let in-flight HTTP
	// responses finish.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("pprof shutdown: %w", err)
		}
	}
	if walDir != "" {
		// Server.Shutdown took the final checkpoint and truncated the log.
		logger.Info("wal final checkpoint written", "dir", walDir)
	}
	st := srv.Stats()
	fmt.Printf("served %d requests (%d accepted, %d rejected) over %d batches; unified cost %.0f\n",
		st.Requests, st.Accepted, st.Rejected, st.Batches, st.UnifiedCost)
	return nil
}
